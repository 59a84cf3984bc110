import random
from fractions import Fraction
from itertools import permutations

import pytest

from noetherline.toric import (
    COORDINATES,
    BundleParams,
    DivisorClass,
    F,
    H,
    NormalizationError,
    SpecialCurve,
    coordinate_divisor_class,
    curve_intersection,
    h0_class,
    is_ample,
    is_nef,
    member_class,
    quartic_intersection,
    weight_matrix,
)

from oracles import canonical_class_F, tautological_class


def valid_params(d_max):
    for d in range(d_max + 1):
        for d0 in range(0, 3 * d // 2 + 1):
            yield BundleParams(d, d0)


# --- parameters and weight matrix ---------------------------------------


def test_params_reject_negative_entries():
    with pytest.raises(ValueError):
        BundleParams(-1, 0)
    with pytest.raises(ValueError):
        BundleParams(3, -2)


def test_params_reject_negative_e_with_swap_hint():
    with pytest.raises(NormalizationError, match="swap x0 and x1"):
        BundleParams(2, 4)


def test_weight_matrix_examples():
    assert weight_matrix(BundleParams(2, 3)) == (
        (1, 1, -1, -1, 0, 0),
        (0, 0, 1, 1, 2, 5),
    )
    assert weight_matrix(BundleParams(0, 0)) == (
        (1, 1, 0, 0, 0, 0),
        (0, 0, 1, 1, 2, 5),
    )
    assert weight_matrix(BundleParams(8, 7)) == (
        (1, 1, 1, -9, 0, 0),
        (0, 0, 1, 1, 2, 5),
    )


def test_weight_matrix_columns():
    # Two rows of six entries, one column per coordinate label.
    base, fibre = weight_matrix(BundleParams(8, 7))
    assert len(base) == len(fibre) == len(COORDINATES)
    columns = dict(zip(COORDINATES, zip(base, fibre)))
    assert columns["x1"] == (-9, 1)
    assert columns["z"] == (0, 5)
    assert "w" not in columns


# --- divisor classes ------------------------------------------------------


def test_divisor_class_group_operations():
    c = DivisorClass(2, -3)
    assert c + DivisorClass(1, 1) == DivisorClass(3, -2)
    assert c - DivisorClass(1, 1) == DivisorClass(1, -4)
    assert -c == DivisorClass(-2, 3)
    assert 3 * c == c * 3 == DivisorClass(6, -9)
    assert str(DivisorClass(1, -2)) == "H - 2F"
    assert str(DivisorClass(-9, 18)) == "-9H + 18F"
    assert str(DivisorClass(0, 0)) == "0"


def test_coordinate_divisor_classes():
    p3 = BundleParams(3, 2)
    assert coordinate_divisor_class("y", p3) == DivisorClass(2, -6)
    assert coordinate_divisor_class("t0", p3) == DivisorClass(0, 1)
    assert coordinate_divisor_class("t0", BundleParams(7, 4)) == DivisorClass(0, 1)
    with pytest.raises(ValueError):
        coordinate_divisor_class("t2", p3)


def test_coordinate_sum_at_2_3():
    params = BundleParams(2, 3)
    total = DivisorClass(0, 0)
    for coord in COORDINATES:
        total = total + coordinate_divisor_class(coord, params)
    assert total == DivisorClass(9, -18)
    assert total == -canonical_class_F(params)


def test_canonical_class_examples_and_sum_identity():
    assert canonical_class_F(BundleParams(2, 1)) == DivisorClass(-9, 18)
    assert canonical_class_F(BundleParams(0, 0)) == DivisorClass(-9, -2)
    for params in valid_params(25):
        total = DivisorClass(0, 0)
        for coord in COORDINATES:
            total = total + coordinate_divisor_class(coord, params)
        assert canonical_class_F(params) == -total


# --- intersection numbers -------------------------------------------------


def test_quartic_generators():
    params = BundleParams(7, 5)
    assert quartic_intersection(H, H, H, F, params) == Fraction(1, 10)
    assert quartic_intersection(F, F, H, H, params) == 0
    assert quartic_intersection(H, H, H, H, params) == Fraction(7, 2)


def test_member_times_K_cubed_is_4d_minus_6():
    K = DivisorClass(1, -2)
    for d in range(2, 61):
        params = BundleParams(d, d)
        assert quartic_intersection(member_class(params), K, K, K, params) == 4 * d - 6


def test_quartic_symmetric_and_multilinear():
    rng = random.Random(20814)
    params = BundleParams(5, 3)
    for _ in range(40):
        classes = [
            DivisorClass(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(5)
        ]
        c1, c2, c3, c4, c5 = classes
        base = quartic_intersection(c1, c2, c3, c4, params)
        for perm in permutations((c1, c2, c3, c4)):
            assert quartic_intersection(*perm, params) == base
        assert quartic_intersection(c1 + c5, c2, c3, c4, params) == base + quartic_intersection(c5, c2, c3, c4, params)
        assert quartic_intersection(3 * c1, c2, c3, c4, params) == 3 * base


# --- nef and ample ---------------------------------------------------------


def test_nef_ample_examples():
    K = DivisorClass(1, -2)
    assert is_ample(K, BundleParams(5, 4))
    assert is_nef(K, BundleParams(5, 2)) and not is_ample(K, BundleParams(5, 2))
    zero = DivisorClass(0, 0)
    params = BundleParams(4, 3)
    assert is_nef(zero, params) and not is_ample(zero, params)


def _nef_by_curves(c, params):
    # Positivity on the three torus-invariant test curves: a line of a fibre,
    # the section S0, and the index-5 curve.
    triples = (("t0", "y", "z"), ("x1", "y", "z"), ("x0", "x1", "y"))
    values = [
        quartic_intersection(
            c,
            coordinate_divisor_class(t[0], params),
            coordinate_divisor_class(t[1], params),
            coordinate_divisor_class(t[2], params),
            params,
        )
        for t in triples
    ]
    return all(v >= 0 for v in values), all(v > 0 for v in values)


def test_nef_matches_curve_positivity_on_grid():
    for d in range(0, 6):
        for d0 in range(0, 3 * d // 2 + 1):
            params = BundleParams(d, d0)
            for a in range(-4, 5):
                for b in range(-7, 8):
                    c = DivisorClass(a, b)
                    nef_oracle, ample_oracle = _nef_by_curves(c, params)
                    assert is_nef(c, params) == nef_oracle, (params, c)
                    assert is_ample(c, params) == ample_oracle, (params, c)


def test_ample_iff_nef_with_strict_inequalities():
    rng = random.Random(7)
    for _ in range(300):
        params = BundleParams(rng.randint(0, 12), 0)
        params = BundleParams(params.d, rng.randint(0, 3 * params.d // 2))
        c = DivisorClass(rng.randint(-20, 20), rng.randint(-40, 40))
        m = min(params.d, params.d0)
        assert is_ample(c, params) == (c.a > 0 and c.b > -c.a * m)
        assert is_ample(c, params) <= is_nef(c, params)


# --- special curves ---------------------------------------------------------


def test_curve_intersection_s0():
    assert curve_intersection(DivisorClass(1, -2), SpecialCurve.S0, BundleParams(2, 1)) == -1
    for params in valid_params(12):
        for a, b in ((1, -2), (3, 1), (0, 4)):
            value = curve_intersection(DivisorClass(a, b), SpecialCurve.S0, params)
            assert value == a * params.d0 + b


def test_curve_intersection_index_curves():
    # The two curves inside the singular locus pick up their indices as
    # denominators: S2 gives (a*d + b)/2 and S5 gives (a*d + b)/5.
    for params in valid_params(10):
        for a, b in ((1, -2), (2, 3), (1, 0)):
            c = DivisorClass(a, b)
            assert curve_intersection(c, SpecialCurve.S2, params) == Fraction(
                a * params.d + b, 2
            )
            assert curve_intersection(c, SpecialCurve.S5, params) == Fraction(
                a * params.d + b, 5
            )


def test_curve_intersection_gamma():
    K = DivisorClass(1, -2)
    assert curve_intersection(K, SpecialCurve.GAMMA, BundleParams(2, 3)) == 0
    for params in valid_params(10):
        assert curve_intersection(K, SpecialCurve.GAMMA, params) == params.d - 2


def test_tautological_and_member_classes():
    params = BundleParams(4, 5)
    assert tautological_class(params) == DivisorClass(1, -4)
    assert member_class(params) == 10 * tautological_class(params)


# --- section counts ----------------------------------------------------------


def brute_h0(a, b, d, d0):
    """Count lattice monomials t0^c0 t1^c1 x0^a0 x1^a1 y^a2 z^a5 of class (a, b)."""
    if a < 0:
        return 0
    total = 0
    for a0 in range(a + 1):
        for a1 in range(a + 1):
            for a2 in range(a // 2 + 1):
                for a5 in range(a // 5 + 1):
                    if a0 + a1 + 2 * a2 + 5 * a5 != a:
                        continue
                    w = a0 * d0 + a1 * (3 * d - d0) + 2 * a2 * d + 5 * a5 * d
                    n = w + b
                    for c0 in range(n + 1):
                        total += 1
    return total


def test_h0_examples():
    for d in range(1, 12):
        for d0 in range(2, 3 * d // 2 + 1):
            assert h0_class(DivisorClass(1, -2), BundleParams(d, d0)) == 3 * d - 2
    assert h0_class(DivisorClass(0, 1), BundleParams(6, 4)) == 2
    assert h0_class(DivisorClass(2, -4), BundleParams(2, 1)) == 11
    assert h0_class(DivisorClass(-1, 100), BundleParams(3, 3)) == 0


def test_h0_against_brute_lattice_count():
    rng = random.Random(99)
    for _ in range(60):
        d = rng.randint(0, 6)
        d0 = rng.randint(0, 3 * d // 2) if d else 0
        a = rng.randint(-1, 10)
        b = rng.randint(-15, 15)
        params = BundleParams(d, d0)
        assert h0_class(DivisorClass(a, b), params) == brute_h0(a, b, d, d0)
    # The degree-ten section count, which `family_dimension` checks against a
    # sum of the same coefficient form, including the edges d0 = 0 and 1.
    for d in range(0, 7):
        for d0 in (0, 1, d, 3 * d // 2):
            if 2 * d0 <= 3 * d:
                params = BundleParams(d, d0)
                assert h0_class(member_class(params), params) == brute_h0(10, -10 * d, d, d0)
