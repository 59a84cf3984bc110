from fractions import Fraction
from itertools import permutations

from hypothesis import example, given
from hypothesis import strategies as st

from noetherline.cli import inspect_record
from noetherline.linear_system import support_pattern
from noetherline.singularities import (
    SingularityKind,
    cell,
    classify_general_member,
    local_support_at_s0,
    row_pieces,
    support_breaks,
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
    assert classify_general_member(BundleParams(8, 7)) == (SingularityKind.SMOOTH, None)
    assert classify_general_member(BundleParams(16, 15)) == (SingularityKind.TERMINAL_POINTS, 8)
    assert classify_general_member(BundleParams(3, 1)) == (SingularityKind.CANONICAL_CURVE, 1)
    assert classify_general_member(BundleParams(5, 1)) == (SingularityKind.NOT_EXISTENT, None)
    assert classify_general_member(BundleParams(8, 2)) == (SingularityKind.CANONICAL_CURVE, 0)


def test_product_case_is_smooth_with_flag():
    # X(0;0), the only product, is smooth; the record flags it.
    assert classify_general_member(BundleParams(0, 0)) == (SingularityKind.SMOOTH, None)
    assert classify_by_e(BundleParams(0, 0)) == (SingularityKind.SMOOTH, None)
    for params in (BundleParams(0, 0), BundleParams(8, 7)):
        classification = inspect_record(params)["classification"]
        assert classification == {
            "kind": "smooth",
            "count": None,
            "product": params.d == 0,
            "description": "smooth (product with a fixed surface)" if params.d == 0 else "smooth",
        }


def test_boundary_pins():
    for k in range(1, 13):
        assert classify_general_member(BundleParams(8 * k, 7 * k)) == (SingularityKind.SMOOTH, None)
        below = classify_general_member(BundleParams(8 * k, 7 * k - 1))
        assert below == (SingularityKind.CANONICAL_CURVE, 4 * (7 * k - 1) - 8 * k)
    # one step above the smooth ray: terminal with exactly 8 points (needs
    # 7k + 1 < 8k, i.e. k >= 2; at k = 1 the step lands on d0 = d, smooth)
    assert classify_general_member(BundleParams(8, 8)) == (SingularityKind.SMOOTH, None)
    for k in range(2, 13):
        above = classify_general_member(BundleParams(8 * k, 7 * k + 1))
        assert above == (SingularityKind.TERMINAL_POINTS, 8)


def test_integer_boundary_conventions():
    # d0 = d/4 is a canonical curve (0 dissident points) only when 4 | d.
    assert classify_general_member(BundleParams(12, 3)) == (SingularityKind.CANONICAL_CURVE, 0)
    assert classify_general_member(BundleParams(13, 3)) == (SingularityKind.NOT_EXISTENT, None)
    # d0 = 7d/8 is smooth only when 8 | d.
    assert classify_general_member(BundleParams(9, 8)) == (SingularityKind.TERMINAL_POINTS, 1)


def test_trichotomy_equivalence_small_sweep():
    for d in range(0, 61):
        for d0 in range(0, 3 * d // 2 + 1):
            params = BundleParams(d, d0)
            assert classify_general_member(params) == classify_by_e(params), params


@given(bundle_params())
def test_kernel_agrees_with_duval_test_and_the_e_oracle(params):
    kind, count = classify_general_member(params)
    assert (kind, count) == classify_by_e(params)
    assert (kind is not SingularityKind.NOT_EXISTENT) == duval_test(local_support_at_s0(params))


def test_returned_counts_are_in_range():
    for d in range(0, 40):
        for d0 in range(0, 3 * d // 2 + 1):
            kind, count = classify_general_member(BundleParams(d, d0))
            if kind is SingularityKind.TERMINAL_POINTS:
                assert type(count) is int and count > 0
            elif kind is SingularityKind.CANONICAL_CURVE:
                assert type(count) is int and count >= 0
            else:
                assert count is None


# --- crepant chart -------------------------------------------------------------


def test_crepant_chart_examples():
    assert crepant_chart_check(DISSIDENT_CHART).exact
    no_t = {ChartMonomial(0, 0, 0, 2), ChartMonomial(0, 0, 5, 0), ChartMonomial(0, 3, 0, 0)}
    result = crepant_chart_check(no_t)
    assert not result
    assert result.offenders == (ChartMonomial(0, 3, 0, 0),)
    assert crepant_chart_check(set()).exact


# --- crossing routines ---------------------------------------------------------


@st.composite
def lines(draw):
    """A line (start, step, count) of the domain 0 <= d0 <= 3d/2, d <= 3000:
    at most 400 rows along d0 at one d, or along d at one d0."""
    if draw(st.booleans()):
        d = draw(st.integers(0, 3000))
        d0 = draw(st.integers(0, 3 * d // 2))
        return (d, d0), (0, 1), draw(st.integers(1, min(400, 3 * d // 2 + 1 - d0)))
    d0 = draw(st.integers(0, 4500))
    d = draw(st.integers(-(-2 * d0 // 3), 3000))
    return (d, d0), (1, 0), draw(st.integers(1, min(400, 3001 - d)))


@given(lines())
@example(((0, 0), (0, 1), 1))
@example(((20, 0), (0, 1), 31))
@example(((0, 0), (1, 0), 400))
@example(((7, 10), (1, 0), 40))
def test_crossing_routines_are_their_per_row_definitions(line):
    # `row_pieces` cuts the line into the maximal runs of rows of one cell,
    # and `support_breaks` gives the rows whose support pattern differs from
    # the row before.
    start, step, count = line
    rows = [(start[0] + i * step[0], start[1] + i * step[1]) for i in range(count)]
    cells = [cell(*row) for row in rows]
    bounds = [0, *(i for i in range(1, count) if cells[i] != cells[i - 1]), count]
    assert row_pieces(start, step, count) == list(zip(bounds, bounds[1:]))
    patterns = [support_pattern(BundleParams(*row)) for row in rows]
    breaks = [i for i in range(1, count) if patterns[i] != patterns[i - 1]]
    assert support_breaks(start, step, count) == breaks
