"""Singularities of the general member along the base section.

Near the section S0, where only t0, t1, x0 are nonzero, the member has local
fibre coordinates x = x1/x0, y = y/x0^2, z = z/x0^5, and its equation has
local monomial support obtained from the global normal-form support (a global
x0^a0 x1^a1 y^a2 contributes x^a1 y^a2).

Whether the family has a member with canonical singularities is decided
by one weighted order test along S0: under the (2,1,1)/4 system with the
weight 2 on z, the equation must contain a monomial of weight below one,
that is x^p y^q z^s with p + q + 2*s < 4.  (The full test of the four
systems (1,1,0)/2, (1,1,1)/3, (2,1,1)/4, (3,2,1)/6 under every assignment of
their weights is an oracle of the test suite.)  With the values of two
coefficient forms this yields a complete classification of the general
member by elementary inequalities in (d, d0), equivalently in (d, e):

* the family has a member with canonical singularities iff 4*d0 >= d
  (iff 2*e <= 5*d);
* the general member is smooth iff d0 >= d or 8*d0 = 7*d (e <= d or 4e = 5d);
* it has 8*d0 - 7*d = 5*d - 4*e isolated terminal points iff
  7*d/8 < d0 < d (d < e < 5d/4);
* otherwise it is singular along the whole section, a canonical curve with
  4*d0 - d = 5*d - 2*e dissident points.

At a dissident point the local equation is z^2 + y^5 + t*x^3; the weighted
blowup t -> t, x -> t^3 x', y -> t^2 y', z -> t^5 z' divides it exactly by
t^10 and the chart z'^2 + y'^5 + x'^3 is a compound Du Val point, so the
dissident points are canonical.  The test suite checks that weight
bookkeeping.

The classification is one derivation per model.  The local support is a
filter on the signs of the integer forms of `linear_system.DEGREE_TEN_FORMS`,
and the support depends on the sign pattern alone, so `local_support_at_s0`
returns one shared frozenset per pattern.  Existence is the weighted order
test on that support, cross-checked against 4*d0 >= d (`order_test`); its
verdict is a function of the pattern too, derived once and kept next to the
support.  The remaining cases read the values of the forms 8*d0 - 7*d (of
x0^9 x1) and 4*d0 - d (of x0^7 x1^3).

Every field of a classify row (the classification above and the invariants
of `invariants.invariants`) reads the signs of a few integer forms: the class
and its count read `CLASS_FORMS`, and the invariants, which a row has only
where 4*d0 >= d, read `INVARIANT_FORMS`.  Those signs cut the plane into
convex cells (`cell`; 21 meet d < 160), and each field is constant or affine
in (d, d0) on a cell.  `row_pieces` cuts a line of the plane into its
intersections with the cells; a sweep derives a few anchor rows of each
cell and writes every piece of the cell from its affine map.
The support forms change no field: `support_breaks` gives the rows where
the support pattern changes, so that the order test runs inside pieces.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .linear_system import DEGREE_TEN_FORMS, support_pattern
from .toric import BundleParams, CrossCheckError

__all__ = [
    "EmptyFamilyError",
    "SingularityKind",
    "SingularityClassification",
    "local_support_at_s0",
    "order_test",
    "classify_general_member",
    "CLASS_FORMS",
    "INVARIANT_FORMS",
    "cell",
    "row_pieces",
    "support_breaks",
]


class EmptyFamilyError(ValueError):
    """No member of the family has canonical singularities (4*d0 < d)."""


#: The local image x^a1 y^a2 of the monomial of each form of
#: `DEGREE_TEN_FORMS`, and the monomials z^2 and y^5 of every normalized
#: equation.  A local monomial x^p y^q z^s is the tuple (p, q, s); each is
#: read off a `FibreMonomial`, so no exponent is negative.
_LOCAL_IMAGES = tuple((mono.a1, mono.a2, 0) for mono, _, _ in DEGREE_TEN_FORMS)
_ALWAYS_PRESENT = ((0, 0, 2), (0, 5, 0))

# The local support of each sign pattern met so far, with the verdict of the
# order test on it.  The plane 0 <= d0 <= 3d/2 has exactly 8 patterns, one
# per gap that the slopes d0/d in {0, 1/4, 1/2, 2/3, 3/4, 5/6, 7/8, 1}, where
# forms vanish, leave in [0, 3/2]: every form zero on such a ray is positive
# above it and the test is >= 0, so a ray has the pattern of the gap above
# it, and the origin's all-true pattern is that of d <= d0 <= 3d/2, where
# every form is nonnegative.
_SUPPORT_BY_PATTERN: dict[tuple[bool, ...], tuple[frozenset[tuple[int, int, int]], bool]] = {}


def local_support_at_s0(params: BundleParams) -> frozenset[tuple[int, int, int]]:
    """Local monomial support of a general member near the section S0, each
    monomial x^p y^q z^s as its exponents (p, q, s).

    A global x0^a0 x1^a1 y^a2 of the normal-form support contributes x^a1 y^a2,
    z^2 and y^5 contribute themselves.  Rows with the same sign pattern share
    one frozenset once `order_test` has met the pattern.
    """
    pattern = support_pattern(params)
    entry = _SUPPORT_BY_PATTERN.get(pattern)
    if entry is not None:
        return entry[0]
    kept = (m for m, sign in zip(_LOCAL_IMAGES, pattern) if sign)
    return frozenset((*kept, *_ALWAYS_PRESENT))


class SingularityKind(str, Enum):
    NOT_EXISTENT = "not_existent"
    SMOOTH = "smooth"
    TERMINAL_POINTS = "terminal_points"
    CANONICAL_CURVE = "canonical_curve"


@dataclass(frozen=True)
class SingularityClassification:
    """Outcome of the general-member classification.

    ``count`` is the number of terminal points for TERMINAL_POINTS and the
    number of dissident points for CANONICAL_CURVE; it is None otherwise.
    ``product`` marks the degenerate d = 0 case, where the member is a
    product of a line with a fixed surface.
    """

    kind: SingularityKind
    count: int | None = None
    product: bool = False

    def __post_init__(self) -> None:
        if self.kind is SingularityKind.TERMINAL_POINTS:
            if self.count is None or self.count <= 0:
                raise ValueError("terminal point count must be positive")
        elif self.kind is SingularityKind.CANONICAL_CURVE:
            if self.count is None or self.count < 0:
                raise ValueError("dissident point count must be nonnegative")
        elif self.count is not None:
            raise ValueError(f"{self.kind.value} carries no count")

    @property
    def exists(self) -> bool:
        return self.kind is not SingularityKind.NOT_EXISTENT

    def describe(self) -> str:
        if self.kind is SingularityKind.NOT_EXISTENT:
            return "no member with canonical singularities"
        if self.kind is SingularityKind.SMOOTH:
            return "smooth (product with a fixed surface)" if self.product else "smooth"
        if self.kind is SingularityKind.TERMINAL_POINTS:
            return f"{self.count} isolated terminal points on S0"
        return f"canonical singularities along S0, {self.count} dissident points"


def order_test(params: BundleParams) -> bool:
    """Whether the family of params has a member with canonical singularities,
    by the weighted order test on the local support: the (2,1,1)/4 system
    with the weight 2 on z asks for a support monomial x^p y^q z^s with
    p + q + 2*s below four.  The verdict is derived once per sign pattern and is
    cross-checked against the closed form 4*d0 >= d at every call; a
    disagreement raises `CrossCheckError`.
    """
    pattern = support_pattern(params)
    entry = _SUPPORT_BY_PATTERN.get(pattern)
    if entry is None:
        support = local_support_at_s0(params)
        entry = _SUPPORT_BY_PATTERN[pattern] = (
            support, any(p + q + 2 * s < 4 for p, q, s in support)
        )
    if entry[1] != (4 * params.d0 >= params.d):
        raise CrossCheckError(f"{params.label()}: the order test disagrees with 4*d0 >= d")
    return entry[1]


def classify_general_member(params: BundleParams) -> SingularityClassification:
    """Classify the general member by the support analysis along S0.

    Existence is `order_test`.  The member is smooth iff d0 >= d or
    8*d0 - 7*d = 0; otherwise 8*d0 - 7*d > 0 counts its terminal points and
    4*d0 - d its dissident points.
    """
    if not order_test(params):
        return SingularityClassification(SingularityKind.NOT_EXISTENT)
    d, d0 = params.d, params.d0
    if d == 0:
        return SingularityClassification(SingularityKind.SMOOTH, product=True)
    terminal = 8 * d0 - 7 * d
    if d0 >= d or terminal == 0:
        return SingularityClassification(SingularityKind.SMOOTH)
    if terminal > 0:
        return SingularityClassification(SingularityKind.TERMINAL_POINTS, count=terminal)
    return SingularityClassification(SingularityKind.CANONICAL_CURVE, count=4 * d0 - d)


#: The forms A*d + B*d0 + C, as (A, B, C), whose signs fix a row's class and
#: its count: 8*d0 - 7*d and 4*d0 - d.
CLASS_FORMS: tuple[tuple[int, int, int], ...] = ((-7, 8, 0), (-1, 4, 0))

#: The other forms whose signs a classify row reads, all of them through the
#: invariants of an existent member, so only where 4*d0 >= d.
INVARIANT_FORMS: tuple[tuple[int, int, int], ...] = (
    # The sections x0 and x1 of K = H - 2F, which p_g counts (x0's, d0 - 2,
    # is among the d0 - k below).
    (3, -1, -2),
    # d0 >= d: the member is smooth, and the Mori dream flag.
    (-1, 1, 0),
    # min(d, d0) against 1, 2 and 3: the degenerate, cone and X(2;3) images,
    # K nef and K ample.  d0 - 1 also fixes the Noether flag: 3K^3 - 4p_g + 10
    # is 4(d0 - 1) where d0 <= 1 (and d > 0) and 0 elsewhere.
    *((1, 0, -k) for k in (1, 2, 3)),
    *((0, 1, -k) for k in (1, 2, 3)),
    # d and d0 themselves: the product row d = 0.
    (1, 0, 0),
    (0, 1, 0),
)


def cell(d: int, d0: int) -> tuple[int, ...]:
    """The cell of (d, d0): the signs of `CLASS_FORMS` and, if 4*d0 >= d, `INVARIANT_FORMS`."""
    forms = CLASS_FORMS + INVARIANT_FORMS if 4 * d0 >= d else CLASS_FORMS
    return tuple([((v := a * d + b * d0 + c) > 0) - (v < 0) for a, b, c in forms])


def _zeros(forms, start: tuple[int, int], step: tuple[int, int], count: int) -> set[int]:
    """The cuts 0 < i < count of the rows start + i*step at the zeros of
    `forms`: a form that is zero on row i cuts at i and i + 1, one that is
    zero between rows i - 1 and i cuts at i."""
    (d, d0), (sd, sd0) = start, step
    cuts = []
    for a, b, c in forms:
        if slope := a * sd + b * sd0:
            # The form is value + i*slope; it is zero at i = -value/slope.
            value = a * d + b * d0 + c
            cuts += -(value // slope), -value // slope + 1
    return {i for i in cuts if 0 < i < count}


def row_pieces(
    start: tuple[int, int], step: tuple[int, int], count: int
) -> list[tuple[int, int]]:
    """The pieces of the rows start + i*step, 0 <= i < count, as index
    ranges [lo, hi) in order.  Each form of `CLASS_FORMS` has one sign on
    each piece, and so has each form of `INVARIANT_FORMS` on each piece where
    the member exists; a row where such a form is zero is a piece of its
    own.  The support forms do not cut: `support_breaks` walks them."""
    (d, d0), (sd, sd0) = start, step
    existence, slope = 4 * d0 - d, 4 * sd0 - sd  # 4*d0 - d on row i: existence + i*slope
    cuts = {0, count, *_zeros(CLASS_FORMS, start, step, count)}
    cuts.update(
        i for i in _zeros(INVARIANT_FORMS, start, step, count)
        if existence + i * slope >= 0 or existence + (i - 1) * slope >= 0
    )
    bounds = sorted(cuts)
    return list(zip(bounds, bounds[1:]))


def support_breaks(start: tuple[int, int], step: tuple[int, int], count: int) -> list[int]:
    """The rows 0 < i < count of the rows start + i*step where the sign
    pattern of the support forms (`linear_system.support_pattern`) changes,
    ascending."""
    (d, d0), (sd, sd0) = start, step
    breaks = set()
    for _, a, b in DEGREE_TEN_FORMS:
        slope = a * sd + b * sd0
        if slope:
            # The first row i on the other side of value + i*slope >= 0.
            value = a * d + b * d0
            i = -(value // slope) if slope > 0 else -value // slope + 1
            if 0 < i < count:
                breaks.add(i)
    return sorted(breaks)
