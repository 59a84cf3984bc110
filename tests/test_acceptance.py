"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every check is exact; there are no tolerances anywhere.
"""

import random
import time
from fractions import Fraction
from itertools import permutations
from math import ceil

from noetherline.bundles import FibrationData, chi_invariants
from noetherline.invariants import (
    ImageKind,
    canonical_image,
    canonical_ring_rank,
    flip_analysis,
    invariants,
    kobayashi_params,
    kobayashi_translate,
    moduli_components,
    orbifold_rr_K3,
    plurigenus,
)
from noetherline.linear_system import enumerate_monomials
from noetherline.singularities import (
    SingularityKind,
    classify_general_member,
    local_support_at_s0,
)
from noetherline.toric import (
    BundleParams,
    coordinate_divisor_class,
    is_ample,
    is_nef,
    quartic_intersection,
)

from oracles import (
    DU_VAL_SYSTEMS,
    Z_GETS_TWO,
    classify_by_e,
    duval_test,
    noether_check,
    weight_below_one_exists,
)


def _report(n, text):
    print(f"criterion {n:2d}: PASS  {text}")


def criterion1_sweep():
    for d in range(3, 61):
        for d0 in range(max(3, ceil(d / 4)), 3 * d // 2 + 1):
            if min(d, d0) >= 3:
                yield BundleParams(d, d0)


def test_criterion_1_noether_line_sweep():
    start = time.perf_counter()
    cases = 0
    for params in criterion1_sweep():
        inv = invariants(params)
        assert inv.pg == 3 * params.d - 2
        assert inv.K3 == 4 * params.d - 6  # computed by intersection expansion
        assert 3 * inv.K3 == 4 * inv.pg - 10
        cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"sweep took {elapsed:.3f}s"
    _report(1, f"{cases} cases, pg = 3d-2, K3 = 4d-6, 3K3 = 4pg-10 ({elapsed:.3f}s)")


def test_criterion_2_trichotomy_equivalence():
    cases = 0
    for d in range(0, 201):
        for d0 in range(0, 3 * d // 2 + 1):
            params = BundleParams(d, d0)
            by_d0 = classify_general_member(params)
            by_e = classify_by_e(params)
            assert by_d0 == by_e, params
            assert 8 * d0 - 7 * d == 5 * d - 4 * params.e
            cases += 1
    _report(2, f"classify_general_member == classify_by_e on {cases} cases")


def test_criterion_3_paper_point_values():
    inv = invariants(BundleParams(8, 7))
    assert classify_general_member(BundleParams(8, 7)) == (SingularityKind.SMOOTH, None)
    assert inv.pg == 22 and inv.K3 == 26

    params = BundleParams(8, 2)
    assert classify_general_member(params) == (SingularityKind.CANONICAL_CURVE, 0)
    inv = invariants(params)
    assert canonical_image(params)[:3] == (ImageKind.CONE, 20, None)
    assert inv.pg == 22

    inv = invariants(BundleParams(2, 3))
    assert inv.K_nef and not inv.K_ample
    assert inv.pg == 4 and inv.K3 == 2
    _report(3, "X(8;7), X(8;2), X(2;3) match the recorded values")


def test_criterion_4_flip_table():
    expected = {
        2: (Fraction(9, 4), 4, 11),
        3: (Fraction(85, 14), 7, 22),
        4: (Fraction(301, 30), 10, 33),
    }
    for d, (k3_plus, pg, p2) in expected.items():
        rec = flip_analysis(d)
        assert rec.K3_plus == k3_plus
        assert rec.pg == pg
        # P2 computed independently by monomial counting
        assert rec.P2 == plurigenus(BundleParams(d, 1), 2) == p2
        assert orbifold_rr_K3(rec.P2, 3 - 3 * d, rec.basket) == k3_plus
        # solving the identity for P2 returns an integer equal to the count
        solved = Fraction(k3_plus, 2) - 3 * (1 - pg) + sum(
            (Fraction(b * (r - b), 2 * r) for r, b in rec.basket), Fraction(0)
        )
        assert solved.denominator == 1 and solved == p2
    _report(4, "flip volumes {9/4, 85/14, 301/30} verified via orbifold RR")


def test_criterion_5_monomial_oracles():
    assert len(enumerate_monomials(10)) == 49
    for n in range(0, 51):
        below = len(enumerate_monomials(n - 10)) if n >= 10 else 0
        assert canonical_ring_rank(n) == len(enumerate_monomials(n)) - below
    cases = 0
    for params in criterion1_sweep():
        assert plurigenus(params, 1) == invariants(params).pg
        cases += 1
    _report(5, f"49 degree-10 monomials; rank oracle n <= 50; P1 = pg on {cases} cases")


def test_criterion_6_du_val_weight_test():
    z2, y5, x3 = (0, 0, 2), (0, 5, 0), (3, 0, 0)  # x^p y^q z^s as (p, q, s)
    # exhaustive 24-case evaluation, independent of duval_test
    checks = 0
    for system in DU_VAL_SYSTEMS:
        for assignment in permutations((0, 1, 2)):
            checks += 1
            weights = [Fraction(system.weights[i], system.r) for i in assignment]
            assert any(
                x * weights[0] + y * weights[1] + z * weights[2] < 1
                for x, y, z in (z2, y5, x3)
            )
    assert checks == 24
    assert duval_test({z2, y5, x3})
    assert not duval_test({z2, y5})

    cases = 0
    for d in range(0, 201):
        for d0 in range(0, 3 * d // 2 + 1):
            params = BundleParams(d, d0)
            derived = weight_below_one_exists(
                local_support_at_s0(params), DU_VAL_SYSTEMS[2], Z_GETS_TWO
            )
            assert derived == (4 * d0 >= d), params
            cases += 1
    _report(6, f"24/24 weight checks; existence boundary re-derived on {cases} cases")


def test_criterion_7_nef_oracle_equivalence():
    rng = random.Random(11235)
    triples = (("t0", "y", "z"), ("x1", "y", "z"), ("x0", "x1", "y"))
    for _ in range(10_000):
        d = rng.randint(0, 20)
        d0 = rng.randint(0, min(20, 3 * d // 2)) if d else 0
        params = BundleParams(d, d0)
        c = (rng.randint(-50, 50), rng.randint(-50, 50))
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
        assert is_nef(c, params) == all(v >= 0 for v in values), (params, c)
        assert is_ample(c, params) == all(v > 0 for v in values), (params, c)
    _report(7, "is_nef/is_ample match the three-curve oracle on 10^4 random classes")


def test_criterion_8_kobayashi_bijection():
    cases = 0
    for a in range(0, 101):
        for e in range(0, a + 1):
            params = kobayashi_translate(a, e)
            assert kobayashi_params(params) == (a, e)
            assert 6 * a - 3 * e - 2 == 3 * params.d - 2
            cases += 1
    _report(8, f"round trip and genus identity on {cases} pairs (a, e)")


def test_criterion_9_bundle_algebra_consistency():
    for params in criterion1_sweep():
        _, _, chi_omega, k3 = chi_invariants(FibrationData(0, 3 * params.d, 2 * params.d))
        inv = invariants(params)
        assert k3 == inv.K3
        assert chi_omega == inv.pg - 1
    grid = 0
    for b in range(0, 4):
        for e1 in range(0, 31):
            for e2 in range(0, 31):
                data = FibrationData(b, e1, e2)
                if data.N < 0:
                    continue
                _, _, chi_omega, _ = chi_invariants(data)
                pg = chi_omega + 1 - b
                check = noether_check(data, pg=pg, q1=b, q2=0)
                assert check.gap == Fraction(data.N, 6)
                grid += 1
    _report(9, f"degree data reproduces K3 and chi; Noether gap = N/6 on {grid} grid points")


def test_criterion_10_moduli_components():
    for d in range(3, 97):
        expected = (d, 2, BundleParams(d, 7 * d // 8)) if d % 8 == 0 else (d, 1, None)
        assert moduli_components(3 * d - 2) == expected
    _report(10, "two components exactly when 8 | d, for 3 <= d <= 96")
