"""Toric models of threefolds fibred in (1,2)-surfaces.

A pair of integers ``(d, d0)`` with ``d, d0 >= 0`` and ``e := 3*d - 2*d0 >= 0``
selects a projective toric 4-fold: the P(1,1,2,5)-bundle over the projective
line whose six homogeneous coordinates carry the bidegrees

=====  ====  ====  ======  =======  ===  ===
row    t0    t1    x0      x1       y    z
=====  ====  ====  ======  =======  ===  ===
base    1     1    d-d0    d0-2d    0    0
fibre   0     0    1       1        2    5
=====  ====  ====  ======  =======  ===  ===

The divisor class group has rank two.  We use the generators ``F`` (the fibre,
cut out by t0) and ``H`` (the class of t0^d0 * x0); the tautological sheaf of
the bundle then has class ``H - d*F``.  A class ``a*H + b*F`` is the pair
``(a, b)`` of its coordinates.  All intersection numbers follow from

    H^4 = d/2,    H^3.F = 1/10,    F^2 = 0,

by multilinear expansion, and every quantity in this package is an exact
integer or `fractions.Fraction`; no floating point is used anywhere.

The object of interest is a general divisor in ``|10(H - d*F)|``, a threefold
fibred in surfaces with p_g = 2 and K^2 = 1.  This module provides the
divisor-class arithmetic for the ambient bundle: intersection numbers, the
nef and ample criteria, degrees on the distinguished torus-invariant curves,
and section counts of arbitrary classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator

__all__ = [
    "COORDINATES",
    "NormalizationError",
    "CrossCheckError",
    "BundleParams",
    "CANONICAL_CLASS",
    "SpecialCurve",
    "weight_matrix",
    "coordinate_divisor_class",
    "member_class",
    "quartic_intersection",
    "is_nef",
    "is_ample",
    "curve_intersection",
    "fibre_blocks",
    "fibre_exponents",
    "coefficient_form",
    "h0_class",
]

#: Ordered labels of the six homogeneous coordinates.
COORDINATES = ("t0", "t1", "x0", "x1", "y", "z")

#: Fibre weights of the coordinates (second row of every weight matrix).
FIBRE_ROW = (0, 0, 1, 1, 2, 5)

#: The canonical class H - 2F of a member, by adjunction.
CANONICAL_CLASS = (1, -2)


class NormalizationError(ValueError):
    """Weight data outside the normalized range e = 3d - 2*d0 >= 0."""


class CrossCheckError(RuntimeError):
    """Two independent derivations of the same quantity disagree."""


@dataclass(frozen=True)
class BundleParams:
    """The integer pair (d, d0) selecting a bundle, with derived e = 3d - 2*d0.

    Both entries must be nonnegative, and so must e.  The sign condition on e
    is a harmless normalization: swapping the two weight-one coordinates
    replaces d0 by 3d - d0 and flips the sign of e, so a caller holding data
    with e < 0 should relabel rather than expect a silent swap here.
    """

    d: int
    d0: int

    def __post_init__(self) -> None:
        if self.d < 0 or self.d0 < 0:
            raise ValueError(
                f"d and d0 must be nonnegative, got ({self.d}, {self.d0})"
            )
        if self.e < 0:
            raise NormalizationError(
                f"e = 3*d - 2*d0 = {self.e} is negative for (d, d0) = "
                f"({self.d}, {self.d0}); swap x0 and x1, i.e. replace d0 by "
                f"3*d - d0 = {3 * self.d - self.d0}"
            )

    @property
    def e(self) -> int:
        return 3 * self.d - 2 * self.d0

    def label(self) -> str:
        return f"X({self.d};{self.d0})"


def weight_matrix(params: BundleParams) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The normalized weight matrix of ``params``, as its rows over `COORDINATES`:
    the base row (1, 1, d - d0, d0 - 2d, 0, 0) and `FIBRE_ROW`."""
    d, d0 = params.d, params.d0
    return (1, 1, d - d0, d0 - 2 * d, 0, 0), FIBRE_ROW


def coordinate_divisor_class(coord: str, params: BundleParams) -> tuple[int, int]:
    """Class of the torus-invariant divisor cut out by one coordinate.

    t0, t1 -> F; x0 -> H - d0*F; x1 -> H + (d0 - 3d)*F; y -> 2(H - d*F);
    z -> 5(H - d*F).
    """
    d, d0 = params.d, params.d0
    table = {
        "t0": (0, 1),
        "t1": (0, 1),
        "x0": (1, -d0),
        "x1": (1, d0 - 3 * d),
        "y": (2, -2 * d),
        "z": (5, -5 * d),
    }
    try:
        return table[coord]
    except KeyError:
        raise ValueError(f"unknown coordinate label {coord!r}") from None


def member_class(params: BundleParams) -> tuple[int, int]:
    """Class 10(H - d*F) of the degree-ten family of threefolds."""
    return 10, -10 * params.d


def quartic_intersection(
    c1: tuple[int, int],
    c2: tuple[int, int],
    c3: tuple[int, int],
    c4: tuple[int, int],
    params: BundleParams,
) -> Fraction:
    """Intersection number of four divisor classes, as an exact rational.

    Expands the product multilinearly over H^4 = d/2, H^3.F = 1/10 and
    F^2 = 0.  These relations determine the whole quartic form on the
    rank-two lattice; no further relations are imposed.  The sum is taken
    in integers scaled by ten, 10 H^4 = 5d and 10 H^3.F = 1, and divided
    once at the end.
    """
    (a1, b1), (a2, b2), (a3, b3), (a4, b4) = c1, c2, c3, c4
    h4 = a1 * a2 * a3 * a4
    h3f = b1 * a2 * a3 * a4 + b2 * a1 * a3 * a4 + b3 * a1 * a2 * a4 + b4 * a1 * a2 * a3
    return Fraction(5 * params.d * h4 + h3f, 10)


def is_nef(c: tuple[int, int], params: BundleParams) -> bool:
    """a*H + b*F is nef iff a >= 0 and b >= -a * min(d, d0).

    Equivalent to nonnegativity on the torus-invariant test curves: a line of
    a fibre gives a, the section S0 gives b + a*d0, and the index-5 curve
    gives (b + a*d)/5; nef is base point free (Cox-Little-Schenck 6.3.12).
    """
    a, b = c
    return a >= 0 and b >= -a * min(params.d, params.d0)


def is_ample(c: tuple[int, int], params: BundleParams) -> bool:
    """Ample iff both nef inequalities are strict."""
    a, b = c
    return a > 0 and b > -a * min(params.d, params.d0)


class SpecialCurve(Enum):
    """Distinguished torus-invariant curves, keyed by their defining divisors.

    FIBRE_LINE is a line of a fibre; S0 is the section meeting the singular
    locus of a general member; S2 and S5 are the index-2 and index-5 singular
    curves of the ambient bundle; GAMMA is the base curve of the canonical
    system, cut on the member by the two weight-one coordinate divisors.
    """

    FIBRE_LINE = ("t0", "y", "z")
    S0 = ("x1", "y", "z")
    S2 = ("x0", "x1", "z")
    S5 = ("x0", "x1", "y")
    GAMMA = ("x0", "x1")


def curve_intersection(
    c: tuple[int, int], curve: SpecialCurve, params: BundleParams
) -> Fraction:
    """Degree of a*H + b*F on one of the special curves.

    Computed as the quartic product of the class with the curve's defining
    divisors (for GAMMA the third factor is the member class 10(H - d*F)).
    Closed forms: FIBRE_LINE -> a, S0 -> a*d0 + b and GAMMA -> a*d + b,
    while the two curves in the singular locus pick up their indices as
    denominators, S2 -> (a*d + b)/2 and S5 -> (a*d + b)/5.
    """
    factors = [coordinate_divisor_class(label, params) for label in curve.value]
    if curve is SpecialCurve.GAMMA:
        factors.append(member_class(params))
    return quartic_intersection(c, factors[0], factors[1], factors[2], params)


def fibre_blocks(m: int) -> Iterator[tuple[int, int, int]]:
    """(rest, a2, a5) of each block of degree m, a0 + a1 = rest, ordered by (a5, a2)."""
    for a5 in range(m // 5 + 1):
        for a2 in range((m - 5 * a5) // 2 + 1):
            yield m - 5 * a5 - 2 * a2, a2, a5


def fibre_exponents(m: int) -> Iterator[tuple[int, int, int, int]]:
    """(a0, a1, a2, a5) with a0 + a1 + 2*a2 + 5*a5 = m, ordered by (a5, a2, a1)."""
    for rest, a2, a5 in fibre_blocks(m):
        for a1 in range(rest + 1):
            yield rest - a1, a1, a2, a5


def coefficient_form(a0: int, a1: int, d: int, d0: int) -> int:
    """Degree of the binary-form coefficient of x0^a0 x1^a1 y^a2 z^a5 in
    |m(H - d*F)|, m its weighted degree, whatever a2 and a5 are: minus its
    weight a0*(d - d0) + a1*(d0 - 2d) in the base row of `weight_matrix`."""
    return (2 * a1 - a0) * d + (a0 - a1) * d0


def h0_class(c: tuple[int, int], params: BundleParams) -> int:
    """Number of global sections of O(a*H + b*F), by pushforward to the line.

    Each fibre monomial of weighted degree a, of `coefficient_form` k, brings
    the max(0, k + a*d + b + 1) binary forms in t0, t1 of degree k + a*d + b;
    there are none for a < 0.  Exact for the pushed-forward split bundle only.
    """
    (a, b), d, d0 = c, params.d, params.d0
    shift = a * d + b + 1
    total = 0
    for a0, a1, _, _ in fibre_exponents(a):
        if (n := coefficient_form(a0, a1, d, d0) + shift) > 0:
            total += n
    return total
