"""Closed-form oracles that the library derives another way, the per-row
walk that `classify` replaced by its piece-by-piece walk, the join loop that
monomial labels replaced by their tables, and the parameter strategy of the
property tests."""

from hypothesis import strategies as st

from noetherline.cli import classify_record
from noetherline.linear_system import FibreMonomial
from noetherline.singularities import SingularityClassification, SingularityKind
from noetherline.toric import BundleParams


@st.composite
def bundle_params(draw, d_max: int = 5000) -> BundleParams:
    """(d, d0) with 0 <= d <= d_max and e = 3d - 2*d0 >= 0, often within one
    step of a boundary of the classification (d0 = d/4, 7d/8 or d)."""
    d = draw(st.integers(0, d_max))
    top = 3 * d // 2
    near_edge = st.sampled_from((d // 4, 7 * d // 8, d)).flatmap(
        lambda k: st.integers(max(0, k - 1), min(top, k + 1))
    )
    return BundleParams(d, draw(st.integers(0, top) | near_edge))


def classify_by_e(params: BundleParams) -> SingularityClassification:
    """The trichotomy phrased in (d, e), e = 3d - 2*d0.

    Nonempty iff 2e <= 5d; smooth iff e <= d or 4e = 5d; 5d - 4e terminal
    points iff d < e < 5d/4; otherwise a canonical curve with 5d - 2e
    dissident points.
    """
    d, e = params.d, params.e
    if 2 * e > 5 * d:
        return SingularityClassification(SingularityKind.NOT_EXISTENT)
    if d == 0:
        return SingularityClassification(SingularityKind.SMOOTH, product=True)
    if e <= d or 4 * e == 5 * d:
        return SingularityClassification(SingularityKind.SMOOTH)
    if 4 * e < 5 * d:
        return SingularityClassification(
            SingularityKind.TERMINAL_POINTS, count=5 * d - 4 * e
        )
    return SingularityClassification(
        SingularityKind.CANONICAL_CURVE, count=5 * d - 2 * e
    )


def classify_rows(d_min: int, d_max: int, d0: int | None):
    """The records of `classify d_min d_max [--d0 d0]`, every row derived on
    its own by `classify_record`."""
    for d in range(d_min, d_max + 1):
        if d0 is None:
            yield from (classify_record(BundleParams(d, k)) for k in range(0, 3 * d // 2 + 1))
        elif 0 <= d0 <= 3 * d // 2:
            yield classify_record(BundleParams(d, d0))


def monomial_label(a0: int, a1: int, a2: int, a5: int) -> str:
    """The label of x0^a0 x1^a1 y^a2 z^a5, built part by part and joined."""
    parts = []
    for exp, name in ((a0, "x0"), (a1, "x1"), (a2, "y"), (a5, "z")):
        if exp == 1:
            parts.append(name)
        elif exp > 1:
            parts.append(f"{name}^{exp}")
    return " ".join(parts) if parts else "1"


def base_weight(mono: FibreMonomial, params: BundleParams) -> int:
    """F-degree of the monomial, summed over its variables' divisor classes:
    a0*d0 + a1*(3d - d0) + (2*a2 + 5*a5)*d."""
    d, d0 = params.d, params.d0
    return mono.a0 * d0 + mono.a1 * (3 * d - d0) + (2 * mono.a2 + 5 * mono.a5) * d
