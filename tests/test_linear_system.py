import gc
import os
import subprocess
import sys
from dataclasses import astuple
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from noetherline.cli import _monomial_label
from noetherline.invariants import canonical_ring_rank
from noetherline.linear_system import (
    Y_FIFTH,
    Z_SQUARED,
    FibreMonomial,
    base_locus,
    coefficient_profile,
    enumerate_monomials,
    family_dimension,
    normal_form_support,
)
from noetherline import linear_system
from noetherline.toric import (
    BundleParams,
    CrossCheckError,
    SpecialCurve,
    coefficient_form,
    fibre_exponents,
    h0_class,
)

from oracles import base_weight, bundle_params, monomial_label


def weighted_degree(mono):
    """a0 + a1 + 2*a2 + 5*a5."""
    return mono.a0 + mono.a1 + 2 * mono.a2 + 5 * mono.a5


def brute_monomials(m):
    """Independent enumeration: filter the full exponent box by degree."""
    box = product(range(m + 1), range(m + 1), range(m // 2 + 1), range(m // 5 + 1))
    return {
        (a0, a1, a2, a5)
        for a0, a1, a2, a5 in box
        if a0 + a1 + 2 * a2 + 5 * a5 == m
    }


def test_monomial_validation_and_labels():
    with pytest.raises(ValueError):
        FibreMonomial(-1, 0, 0, 0)
    assert _monomial_label(FibreMonomial(9, 1, 0, 0)) == monomial_label(9, 1, 0, 0) == "x0^9 x1"
    assert _monomial_label(FibreMonomial(0, 0, 0, 0)) == monomial_label(0, 0, 0, 0) == "1"
    assert _monomial_label(Z_SQUARED) == monomial_label(*astuple(Z_SQUARED)) == "z^2"
    assert weighted_degree(Y_FIFTH) == 10


_EXPONENT = st.integers(0, 1000)


@given(_EXPONENT, _EXPONENT, _EXPONENT, _EXPONENT)
@example(0, 0, 0, 0)
@example(1, 0, 0, 0)
@example(2, 0, 0, 0)
@example(0, 1, 0, 0)
@example(0, 2, 0, 0)
@example(0, 0, 1, 0)
@example(0, 0, 2, 0)
@example(0, 0, 0, 1)
@example(0, 0, 0, 2)
@example(*astuple(Z_SQUARED))
@example(*astuple(Y_FIFTH))
def test_label_matches_the_join_loop(a0, a1, a2, a5):
    # Exponents run past the `monomials` cap of 300: the power tables build
    # an entry for any exponent.
    assert _monomial_label(FibreMonomial(a0, a1, a2, a5)) == monomial_label(a0, a1, a2, a5)


def test_enumerate_degree_one_order():
    assert enumerate_monomials(1) == (
        FibreMonomial(1, 0, 0, 0),
        FibreMonomial(0, 1, 0, 0),
    )


def test_enumerate_counts():
    assert len(enumerate_monomials(10)) == 49
    assert len(enumerate_monomials(5)) == 13
    assert enumerate_monomials(0) == (FibreMonomial(0, 0, 0, 0),)
    with pytest.raises(ValueError):
        enumerate_monomials(-1)


def test_enumerate_matches_brute_force_and_is_sorted():
    for m in range(0, 21):
        monos = enumerate_monomials(m)
        assert {(x.a0, x.a1, x.a2, x.a5) for x in monos} == brute_monomials(m)
        keys = [(x.a5, x.a2, x.a1) for x in monos]
        assert keys == sorted(keys)
        assert all(weighted_degree(x) == m for x in monos)


def test_enumerated_monomials_equal_constructed_ones():
    # The cache is filled without the dataclass `__init__`, from the blocks
    # of `fibre_blocks`; its monomials must be the checked constructor's over
    # `fibre_exponents`, in values, order and every respect a record or test
    # reads, at every degree through 80 and at the bench's longest listings.
    for m in [*range(81), 147, 150]:
        built = tuple(FibreMonomial(*e) for e in fibre_exponents(m))
        monos = enumerate_monomials(m)
        assert monos == built
        assert list(map(hash, monos)) == list(map(hash, built))
        assert list(map(repr, monos)) == list(map(repr, built))
        assert list(map(astuple, monos)) == list(map(astuple, built))
        assert all(type(x) is FibreMonomial for x in monos)


def test_enumeration_checks_the_exponents(monkeypatch):
    # The nonnegativity that `__post_init__` checks per monomial is checked
    # per block when the cache is filled, on the rest, a2 and a5 of each
    # block it reads from `fibre_blocks`; a failing fill caches nothing.
    enumerate_monomials.cache_clear()
    for bad in [(-1, 1, 0), (2, -1, 0), (2, 0, -1)]:
        monkeypatch.setattr(linear_system, "fibre_blocks", lambda m, bad=bad: iter([(m, 0, 0), bad]))
        with pytest.raises(ValueError):
            enumerate_monomials(299)
        assert enumerate_monomials.cache_info().currsize == 0


def test_a_cold_fill_runs_no_collection():
    # The cached monomials form no cycle, so the fill pauses the cyclic
    # collector: the 4,464 tracked objects of degree 60 start no collection,
    # and the tuple is still the brute-force enumeration in (a5, a2, a1) order.
    # A collection first empties the young generation, so that the few
    # hundred blocks read before the pause cannot start one either.
    starts = []

    def count_starts(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    enumerate_monomials.cache_clear()
    gc.collect()
    gc.callbacks.append(count_starts)
    try:
        monos = enumerate_monomials(60)
    finally:
        gc.callbacks.remove(count_starts)
    assert starts == []
    assert list(map(astuple, monos)) == sorted(brute_monomials(60), key=lambda e: (e[3], e[2], e[1]))


@pytest.mark.parametrize("enabled", [True, False])
def test_the_fill_leaves_the_collector_as_the_caller_had_it(monkeypatch, enabled):
    # After a fill, a refused degree and a fill that raises midway alike.
    def broken_repeat(*args):
        raise RuntimeError("fill interrupted")

    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        enumerate_monomials.cache_clear()
        enumerate_monomials(60)
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError):
            enumerate_monomials(-1)
        assert gc.isenabled() is enabled
        monkeypatch.setattr(linear_system, "repeat", broken_repeat)
        with pytest.raises(RuntimeError):
            enumerate_monomials(61)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_importing_the_cli_leaves_the_collector_on():
    # `PROFILE_FORMS` fills degree 10 when the package is imported.
    env = dict(os.environ, PYTHONPATH=str(Path(linear_system.__file__).parents[1]))
    code = "import gc, noetherline.cli; assert gc.isenabled()"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_monomials_minus_relation_equals_ring_rank():
    for n in range(0, 51):
        below = len(enumerate_monomials(n - 10)) if n >= 10 else 0
        assert len(enumerate_monomials(n)) - below == canonical_ring_rank(n)


# --- coefficient degrees -----------------------------------------------------


def test_coefficient_degree_examples():
    # x0^9 x1 at X(8;7), x0^10 at X(5;3), and x0^7 x1^3 everywhere.
    assert coefficient_form(9, 1, 8, 7) == 0
    assert coefficient_form(10, 0, 5, 3) == -20
    for d in range(1, 15):
        for d0 in range(0, 3 * d // 2 + 1):
            assert coefficient_form(7, 3, d, d0) == 4 * d0 - d


_SMALL_EXPONENT = st.integers(0, 30)


@given(bundle_params(), _SMALL_EXPONENT, _SMALL_EXPONENT, _SMALL_EXPONENT, _SMALL_EXPONENT)
@example(BundleParams(8, 7), *astuple(Z_SQUARED))
@example(BundleParams(40, 33), 3, 0, 1, 1)
@example(BundleParams(0, 0), 0, 0, 0, 30)
def test_coefficient_degree_is_base_weight_less_degree_times_d(params, a0, a1, a2, a5):
    # The degree in |m(H - d*F)| is the monomial's F-degree less m*d, for
    # monomials with z too, which the closed forms below skip.
    mono = FibreMonomial(a0, a1, a2, a5)
    degree = base_weight(mono, params) - weighted_degree(mono) * params.d
    assert coefficient_form(a0, a1, params.d, params.d0) == degree


def test_profile_closed_forms_agree():
    # The degree-ten profile is `coefficient_form` per monomial, and for
    # z-free monomials of every degree the coefficient degree has two closed
    # forms, -a0(d - d0) - a1(d0 - 2d) and ((a0 + a1)d + (a1 - a0)e)/2.
    for d in range(0, 12):
        for d0 in range(0, 3 * d // 2 + 1):
            params = BundleParams(d, d0)
            e = params.e
            assert coefficient_profile(params) == tuple(
                (mono, coefficient_form(mono.a0, mono.a1, d, d0)) for mono in enumerate_monomials(10)
            )
            for m in (5, 10, 13):
                for mono in enumerate_monomials(m):
                    deg = coefficient_form(mono.a0, mono.a1, d, d0)
                    if mono.a5:
                        continue
                    assert deg == -mono.a0 * (d - d0) - mono.a1 * (d0 - 2 * d)
                    assert 2 * deg == (mono.a0 + mono.a1) * d + (mono.a1 - mono.a0) * e


def test_degree_weakly_decreasing_in_a0():
    # Shifting weight from x1 to x0 lowers the coefficient degree by e >= 0.
    for d in range(0, 10):
        for d0 in range(0, 3 * d // 2 + 1):
            for mono in enumerate_monomials(10):
                if mono.a1 == 0 or mono.a5:
                    continue
                assert (
                    coefficient_form(mono.a0 + 1, mono.a1 - 1, d, d0)
                    <= coefficient_form(mono.a0, mono.a1, d, d0)
                )


# --- normal form support -----------------------------------------------------


def test_support_all_present_when_d0_ge_d():
    for params in (BundleParams(5, 5), BundleParams(4, 6), BundleParams(0, 0)):
        support = normal_form_support(params)
        assert len(support) == 37
        z_free = [m for m in support if m.a5 == 0 and m.a2 <= 4]
        assert len(z_free) == 35


def test_support_at_8_7():
    support = normal_form_support(BundleParams(8, 7))
    assert FibreMonomial(9, 1, 0, 0) in support
    assert not any(m.a1 == 0 and m.a2 < 5 and m.a5 == 0 for m in support)


def test_support_at_2_1_excludes_x0_9_x1():
    support = normal_form_support(BundleParams(2, 1))
    assert FibreMonomial(9, 1, 0, 0) not in support


@given(bundle_params())
def test_support_is_the_per_monomial_definition(params):
    expected = tuple(
        mono
        for mono in enumerate_monomials(10)
        if mono in (Z_SQUARED, Y_FIFTH)
        or (mono.a5 == 0 and coefficient_form(mono.a0, mono.a1, params.d, params.d0) >= 0)
    )
    assert normal_form_support(params) == expected


def test_support_always_contains_z2_and_y5():
    for d in range(0, 15):
        for d0 in range(0, 3 * d // 2 + 1):
            support = normal_form_support(BundleParams(d, d0))
            assert Z_SQUARED in support and Y_FIFTH in support
            assert all(m.a5 == 0 for m in support if m not in (Z_SQUARED,))


# --- base locus and family dimension -----------------------------------------


def test_base_locus():
    # (family, canonical) at each point.
    S0, GAMMA = SpecialCurve.S0, SpecialCurve.GAMMA
    assert base_locus(BundleParams(5, 5)) == (None, GAMMA)
    assert base_locus(BundleParams(8, 7)) == (S0, GAMMA)
    assert base_locus(BundleParams(2, 1)) == (S0, None)
    assert base_locus(BundleParams(2, 3)) == (None, None)
    assert base_locus(BundleParams(8, 2)) == (S0, None)


def test_family_dimension_product_case():
    assert family_dimension(BundleParams(0, 0), coefficient_profile(BundleParams(0, 0))) == 48


def test_family_dimension_matches_section_count():
    for d in range(0, 10):
        for d0 in range(0, 3 * d // 2 + 1):
            params = BundleParams(d, d0)
            sections = h0_class((10, -10 * d), params)
            assert family_dimension(params, coefficient_profile(params)) == sections - 1


def test_family_dimension_checks_a_given_profile():
    # A profile of other parameters disagrees with the section count.
    with pytest.raises(CrossCheckError):
        family_dimension(BundleParams(8, 7), coefficient_profile(BundleParams(8, 4)))
