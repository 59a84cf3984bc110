from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noetherline.invariants import (
    FlipRecord,
    ImageKind,
    basket_normalize,
    canonical_image,
    canonical_ring_rank,
    deformation_feasible,
    flip_analysis,
    invariants,
    kobayashi_params,
    kobayashi_translate,
    moduli_components,
    orbifold_rr_K3,
    plurigenus,
)
from noetherline.linear_system import base_locus
from noetherline.singularities import EmptyFamilyError, SingularityKind, classify_general_member
from noetherline.toric import BundleParams, SpecialCurve
from oracles import (
    bundle_params, positivity, reid_plurigenus, weighted_monomial_count, wps_hypersurface_basics,
)


def existing_params(d_max, min_dd0=0):
    for d in range(d_max + 1):
        for d0 in range(0, 3 * d // 2 + 1):
            if 4 * d0 >= d and min(d, d0) >= min_dd0:
                yield BundleParams(d, d0)


# --- invariant sets -----------------------------------------------------------


def test_invariants_x_8_7():
    inv = invariants(BundleParams(8, 7))
    assert inv.pg == 22
    assert inv.K3 == 26
    assert inv.on_noether_line
    assert inv.K_ample and inv.K_nef
    assert inv.mori_dream_general  # d >= d0
    assert canonical_image(BundleParams(8, 7)) == (ImageKind.HIRZEBRUCH, 10, (5, 1), "")


def test_invariants_x_2_3():
    inv = invariants(BundleParams(2, 3))
    assert inv.pg == 4 and inv.K3 == 2
    assert inv.K_nef and not inv.K_ample
    assert canonical_image(BundleParams(2, 3)) == (  # complete-intersection model, no embedding
        ImageKind.HIRZEBRUCH, 0, None,
        "canonical model is a complete intersection of a quadric and a degree-10 "
        "hypersurface in P(1,1,1,1,2,5); the base curve of |K| contracts to a node",
    )


def test_invariants_x_8_2_cone():
    inv = invariants(BundleParams(8, 2))
    assert inv.pg == 22 and inv.K3 == 26
    assert canonical_image(BundleParams(8, 2)) == (
        ImageKind.CONE, 20, None,
        "cone over a rational normal curve of degree 20; S0 contracts to the vertex",
    )
    assert inv.K_nef and not inv.K_ample


def test_invariants_degenerate_cases():
    assert canonical_image(BundleParams(1, 1)) == (
        ImageKind.DEGENERATE, None, None,
        "Kodaira dimension 0; the canonical system is a single fibre",
    )
    assert canonical_image(BundleParams(0, 0)) == (
        ImageKind.DEGENERATE, None, None,
        "product of a line with a fixed degree-10 surface in P(1,1,2,5)",
    )
    assert canonical_image(BundleParams(3, 1)) == (
        ImageKind.DEGENERATE, None, None,
        "canonical class negative on the section S0; see the flip analysis",
    )
    assert not invariants(BundleParams(3, 1)).K_nef


def test_invariants_rejects_empty_family():
    with pytest.raises(EmptyFamilyError):
        invariants(BundleParams(5, 1))


def _check_positivity(params):
    # Every reader of a positivity threshold against its closed form: the
    # flags of `invariants`, the degenerate image, both base loci and the
    # smooth case of the classification.
    K_nef, K_ample, degenerate, member_nef = positivity(params)
    family = None if member_nef else SpecialCurve.S0
    assert base_locus(params) == (family, SpecialCurve.GAMMA if K_ample else None), params
    assert (canonical_image(params)[0] is ImageKind.DEGENERATE) == degenerate, params
    kind, _ = classify_general_member(params)
    if kind is not SingularityKind.NOT_EXISTENT:
        smooth = member_nef or 8 * params.d0 == 7 * params.d
        assert (kind is SingularityKind.SMOOTH) == smooth, params
        inv = invariants(params, kind)
        assert (inv.K_nef, inv.K_ample) == (K_nef, K_ample), params


def test_positivity_matches_its_closed_forms_below_d_200():
    for d in range(200):
        for d0 in range(0, 3 * d // 2 + 1):
            _check_positivity(BundleParams(d, d0))


@given(bundle_params())
def test_positivity_matches_its_closed_forms(params):
    _check_positivity(params)


def test_closed_forms_on_sweep():
    for params in existing_params(25, min_dd0=1):
        inv = invariants(params)
        assert inv.pg == 3 * params.d - 2
        assert inv.K3 == 4 * params.d - 6
        assert inv.chi_O == 1 - inv.pg
        assert 3 * inv.K3 == 4 * inv.pg - 10 and inv.on_noether_line
        assert inv.q1 == inv.q2 == 0
        assert inv.mori_dream_general == (params.d >= params.d0)


# --- plurigenera ----------------------------------------------------------------


def test_plurigenus_examples():
    assert plurigenus(BundleParams(2, 1), 2) == 11
    assert plurigenus(BundleParams(3, 1), 2) == 22
    assert plurigenus(BundleParams(4, 1), 2) == 33
    for params in existing_params(15, min_dd0=1):
        assert plurigenus(params, 1) == invariants(params).pg


@st.composite
def nonempty_models(draw, d_max: int = 59) -> BundleParams:
    """X(d;d0) with 1 <= d <= d_max and 4*d0 >= d, but X(1..4;1), where K is
    not nef: so d >= 2 and d0 >= 2."""
    d = draw(st.integers(2, d_max))
    d0 = draw(st.integers(max(2, -(-d // 4)), 3 * d // 2))
    return BundleParams(d, d0)


@settings(max_examples=200, deadline=None)
@given(nonempty_models(), st.integers(2, 10))
@example(BundleParams(2, 2), 2)
@example(BundleParams(8, 2), 10)
@example(BundleParams(59, 15), 10)
@example(BundleParams(59, 88), 7)
def test_plurigenus_matches_reids_formula(params, m):
    inv = invariants(params)
    assert plurigenus(params, m) == reid_plurigenus(inv.K3, inv.chi_O, m)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.integers(2, 10))
def test_flipped_plurigenus_matches_reids_orbifold_formula(d, m):
    """After the flip of X(d;1), K is nef: the plurigenera of X(d;1) follow
    Reid's formula with the flipped K^3 and the basket."""
    rec = flip_analysis(d)
    assert plurigenus(BundleParams(d, 1), m) == reid_plurigenus(rec.K3_plus, rec.chi_O, m, rec.basket)


def test_plurigenus_range_and_existence():
    with pytest.raises(ValueError):
        plurigenus(BundleParams(3, 3), 0)
    with pytest.raises(ValueError):
        plurigenus(BundleParams(3, 3), 11)
    with pytest.raises(EmptyFamilyError):
        plurigenus(BundleParams(9, 1), 2)


def test_tenth_plurigenus_subtracts_the_relation():
    from noetherline.toric import h0_class

    for params in existing_params(8, min_dd0=2):
        direct = h0_class((10, -20), params) - max(0, 10 * params.d - 19)
        assert plurigenus(params, 10) == direct


# --- baskets and orbifold Riemann-Roch --------------------------------------------


def test_quotient_singularity_validation():
    # A basket point 1/r(1,-1,b) is the pair (r, b), which orbifold_rr_K3
    # checks wherever it stands in the basket.
    for point in ((4, 2), (1, 1), (3, 0), (3, 3), (3, -1)):  # gcd(2, 4) != 1; r < 2; b out of range
        with pytest.raises(ValueError, match="invalid quotient type"):
            orbifold_rr_K3(0, 0, [(2, 1), point])
    # Each point's contribution b(r - b)/(2r): alone, K^3 = -2 times it.
    assert orbifold_rr_K3(0, 0, [(4, 3)]) == -2 * Fraction(3, 8)
    assert orbifold_rr_K3(0, 0, [(2, 1)]) == -2 * Fraction(1, 4)


def test_basket_normalize_examples():
    assert basket_normalize(4, (1, 3, 3)) == (4, 3)
    assert basket_normalize(7, (3, 4, 6)) == (7, 2)
    assert basket_normalize(2, (1, 1, 1)) == (2, 1)
    assert basket_normalize(3, (1, 2, 2)) == (3, 2)
    assert basket_normalize(5, (1, 4, 4)) == (5, 4)


def test_basket_normalize_is_involution_consistent():
    from math import gcd

    for r in range(2, 13):
        for b in range(1, r):
            if gcd(b, r) != 1:
                continue
            assert basket_normalize(r, (1, r - 1, b)) == (r, b)


def test_basket_normalize_rejects_non_isolated_types():
    with pytest.raises(ValueError, match="not of isolated"):
        basket_normalize(4, (2, 1, 1))


def test_orbifold_rr_examples():
    assert orbifold_rr_K3(11, -3, [(2, 1), (2, 1), (4, 3)]) == Fraction(9, 4)
    assert orbifold_rr_K3(22, -6, [(2, 1), (7, 2)]) == Fraction(85, 14)
    assert orbifold_rr_K3(33, -9, [(2, 1), (3, 2), (5, 4)]) == Fraction(301, 30)


# --- flips -------------------------------------------------------------------------


def test_flip_records():
    expected = {
        2: (Fraction(9, 4), 4, 11, ((2, 1), (2, 1), (4, 3))),
        3: (Fraction(85, 14), 7, 22, ((2, 1), (7, 2))),
        4: (Fraction(301, 30), 10, 33, ((2, 1), (3, 2), (5, 4))),
    }
    for d, (k3, pg, p2, basket) in expected.items():
        rec = flip_analysis(d)
        assert rec == FlipRecord(
            params=BundleParams(d, 1), K_dot_s0=-1, pg=pg, P2=p2, chi_O=1 - pg,
            basket=basket, K3_plus=k3, nef_cone_Fplus=((1, -1), (1, -d)),
        )
        # the volume solves the orbifold Riemann-Roch identity exactly
        assert orbifold_rr_K3(rec.P2, rec.chi_O, rec.basket) == rec.K3_plus


def test_flip_rejects_other_degrees():
    for d in (1, 5, 0):
        with pytest.raises(ValueError):
            flip_analysis(d)


# --- parameter translation -----------------------------------------------------------


def test_kobayashi_examples():
    with pytest.raises(ValueError, match=r"X\(8;7\)"):
        kobayashi_translate(9, 10)
    assert kobayashi_params(BundleParams(8, 7)) == (9, 10)
    assert kobayashi_translate(0, 0) == BundleParams(0, 0)


def test_kobayashi_round_trip_and_genus():
    for a in range(0, 31):
        for e in range(0, a + 1):
            params = kobayashi_translate(a, e)
            assert kobayashi_params(params) == (a, e)
            assert 6 * a - 3 * e - 2 == 3 * params.d - 2
            assert params.e <= params.d


# --- moduli and deformations ----------------------------------------------------------


def test_moduli_components():
    assert moduli_components(22) == (8, 2, BundleParams(8, 7))
    assert moduli_components(7) == (3, 1, None)
    with pytest.raises(ValueError):
        moduli_components(8)
    with pytest.raises(ValueError):
        moduli_components(4)  # d = 2 < 3
    for d in range(3, 50):
        expected = (d, 2, BundleParams(d, 7 * d // 8)) if d % 8 == 0 else (d, 1, None)
        assert moduli_components(3 * d - 2) == expected


def test_deformation_feasible():
    assert not deformation_feasible(BundleParams(8, 7))  # e = 10 > 8
    assert deformation_feasible(BundleParams(5, 5))  # e = 5
    assert deformation_feasible(BundleParams(4, 4))  # e = d boundary
    for d in range(0, 25):
        for d0 in range(0, 3 * d // 2 + 1):
            params = BundleParams(d, d0)
            assert deformation_feasible(params) == (params.e <= d)


# --- graded rings and weighted hypersurfaces -------------------------------------------


def test_canonical_ring_rank():
    assert canonical_ring_rank(0) == 1
    assert canonical_ring_rank(1) == 2
    assert canonical_ring_rank(5) == 13
    assert canonical_ring_rank(10) == 48
    with pytest.raises(ValueError):
        canonical_ring_rank(-1)


def test_weighted_monomial_count():
    assert weighted_monomial_count((1, 1, 2, 5), 10) == 49
    assert weighted_monomial_count((1, 1), 3) == 4
    assert weighted_monomial_count((2, 3), 1) == 0
    assert weighted_monomial_count((1,), -2) == 0


def test_wps_hypersurface_examples():
    check = wps_hypersurface_basics((1, 1, 4, 6, 15), 30)
    assert check.amplitude == 3 and check.pg == 4
    check = wps_hypersurface_basics((1, 1, 2, 5), 10)
    assert check.amplitude == 1 and check.pg == 2
    check = wps_hypersurface_basics((1, 1, 1, 1, 1), 5)
    assert check.amplitude == 0 and check.pg == 1
    with pytest.raises(ValueError):
        wps_hypersurface_basics((1, 0, 2), 10)
