from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given

from noetherline.singularities import (
    SingularityClassification,
    SingularityKind,
    classify_general_member,
    local_support_at_s0,
)
from noetherline.toric import BundleParams

from oracles import (
    DISSIDENT_CHART,
    DU_VAL_SYSTEMS,
    ChartMonomial,
    bundle_params,
    classify_by_e,
    crepant_chart_check,
    duval_test,
    weight_below_one_exists,
)

# Local monomials x^p y^q z^s as their exponents (p, q, s).
Z2 = (0, 0, 2)
Y5 = (0, 5, 0)
X3 = (3, 0, 0)


def test_weight_systems_are_the_four_fixed_ones():
    assert [(s.r, s.weights) for s in DU_VAL_SYSTEMS] == [
        (2, (1, 1, 0)),
        (3, (1, 1, 1)),
        (4, (2, 1, 1)),
        (6, (3, 2, 1)),
    ]


# --- local support -----------------------------------------------------------


def test_local_support_contains_z2_y5_x3_in_curve_range():
    support = local_support_at_s0(BundleParams(8, 5))
    assert {Z2, Y5, X3} <= support


def test_local_support_at_8_7_contains_x():
    assert (1, 0, 0) in local_support_at_s0(BundleParams(8, 7))


def test_local_support_below_quarter_has_no_small_monomial():
    support = local_support_at_s0(BundleParams(9, 2))  # 4*d0 = 8 < 9 = d
    assert all(x + y >= 4 for x, y, z in support if z == 0)


# --- weighted order test -------------------------------------------------------


def test_weight_below_one_examples():
    support = {Z2, Y5, X3}
    for assignment in permutations((0, 1, 2)):
        assert weight_below_one_exists(support, DU_VAL_SYSTEMS[1], assignment)
    # system (2,1,1)/4 with the weight 2 on z: z^2 and y^5 both have weight >= 1
    assert not weight_below_one_exists({Z2, Y5}, DU_VAL_SYSTEMS[2], (1, 2, 0))
    constant = {(0, 0, 0)}
    for system in DU_VAL_SYSTEMS:
        for assignment in permutations((0, 1, 2)):
            assert weight_below_one_exists(constant, system, assignment)


def brute_duval(support):
    """Re-derivation with Fractions: 4 systems x 6 assignments = 24 checks."""
    checks = 0
    for system in DU_VAL_SYSTEMS:
        for assignment in permutations((0, 1, 2)):
            checks += 1
            weights = [Fraction(system.weights[i], system.r) for i in assignment]
            if not any(
                x * weights[0] + y * weights[1] + z * weights[2] < 1
                for x, y, z in support
            ):
                return False, checks
    return True, checks


def test_duval_examples_and_exhaustive_oracle():
    ok, checks = brute_duval({Z2, Y5, X3})
    assert ok and checks == 24
    assert duval_test({Z2, Y5, X3})
    assert not duval_test({Z2, Y5})
    assert duval_test({(1, 0, 0)})


# --- classification -----------------------------------------------------------


def test_classification_point_examples():
    assert classify_general_member(BundleParams(8, 7)) == SingularityClassification(
        SingularityKind.SMOOTH
    )
    assert classify_general_member(BundleParams(16, 15)) == SingularityClassification(
        SingularityKind.TERMINAL_POINTS, count=8
    )
    assert classify_general_member(BundleParams(3, 1)) == SingularityClassification(
        SingularityKind.CANONICAL_CURVE, count=1
    )
    assert classify_general_member(BundleParams(5, 1)).kind is SingularityKind.NOT_EXISTENT
    assert classify_general_member(BundleParams(8, 2)) == SingularityClassification(
        SingularityKind.CANONICAL_CURVE, count=0
    )


def test_product_case_is_smooth_with_flag():
    cls = classify_general_member(BundleParams(0, 0))
    assert cls.kind is SingularityKind.SMOOTH and cls.product
    assert classify_by_e(BundleParams(0, 0)) == cls
    assert "product" in cls.describe()


def test_boundary_pins():
    for k in range(1, 13):
        assert classify_general_member(BundleParams(8 * k, 7 * k)).kind is SingularityKind.SMOOTH
        below = classify_general_member(BundleParams(8 * k, 7 * k - 1))
        assert below.kind is SingularityKind.CANONICAL_CURVE
    # one step above the smooth ray: terminal with exactly 8 points (needs
    # 7k + 1 < 8k, i.e. k >= 2; at k = 1 the step lands on d0 = d, smooth)
    assert classify_general_member(BundleParams(8, 8)).kind is SingularityKind.SMOOTH
    for k in range(2, 13):
        above = classify_general_member(BundleParams(8 * k, 7 * k + 1))
        assert above == SingularityClassification(SingularityKind.TERMINAL_POINTS, count=8)


def test_integer_boundary_conventions():
    # d0 = d/4 is a canonical curve (0 dissident points) only when 4 | d.
    assert classify_general_member(BundleParams(12, 3)) == SingularityClassification(
        SingularityKind.CANONICAL_CURVE, count=0
    )
    assert classify_general_member(BundleParams(13, 3)).kind is SingularityKind.NOT_EXISTENT
    # d0 = 7d/8 is smooth only when 8 | d.
    assert classify_general_member(BundleParams(9, 8)).kind is SingularityKind.TERMINAL_POINTS


def test_trichotomy_equivalence_small_sweep():
    for d in range(0, 61):
        for d0 in range(0, 3 * d // 2 + 1):
            params = BundleParams(d, d0)
            assert classify_general_member(params) == classify_by_e(params), params


@given(bundle_params())
def test_kernel_agrees_with_duval_test_and_the_e_oracle(params):
    cls = classify_general_member(params)
    assert cls == classify_by_e(params)
    assert cls.exists == duval_test(local_support_at_s0(params))


def test_returned_counts_are_in_range():
    for d in range(0, 40):
        for d0 in range(0, 3 * d // 2 + 1):
            cls = classify_general_member(BundleParams(d, d0))
            if cls.kind is SingularityKind.TERMINAL_POINTS:
                assert cls.count > 0
            elif cls.kind is SingularityKind.CANONICAL_CURVE:
                assert cls.count >= 0
            else:
                assert cls.count is None


def test_classification_validation():
    with pytest.raises(ValueError):
        SingularityClassification(SingularityKind.TERMINAL_POINTS, count=0)
    with pytest.raises(ValueError):
        SingularityClassification(SingularityKind.SMOOTH, count=3)
    with pytest.raises(ValueError):
        SingularityClassification(SingularityKind.CANONICAL_CURVE, count=-1)


# --- crepant chart -------------------------------------------------------------


def test_crepant_chart_examples():
    assert crepant_chart_check(DISSIDENT_CHART).exact
    no_t = {ChartMonomial(0, 0, 0, 2), ChartMonomial(0, 0, 5, 0), ChartMonomial(0, 3, 0, 0)}
    result = crepant_chart_check(no_t)
    assert not result
    assert result.offenders == (ChartMonomial(0, 3, 0, 0),)
    assert crepant_chart_check(set()).exact
