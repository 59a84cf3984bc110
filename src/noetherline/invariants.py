"""Birational invariants, plurigenera, flips, and moduli bookkeeping.

For every nonempty family with d >= 1 the general member has p_g = 3d - 2,
q1 = q2 = 0 and K^3 = 4d - 6, so 3*K^3 = 4*p_g - 10: it sits on the Noether
line (X(0;0), a product, has p_g = 0 and K^3 = -6 and does not).  p_g counts
sections of the restricted canonical class and K^3 is an intersection
product; their closed forms are oracles in the test suite.  Hard-coded are
q1 = q2 = 0 and the flips' baskets and volumes (`_FLIP_DATA`), each volume
checked against orbifold Riemann-Roch with P2 counted.

Whether K = H - 2F (`toric.CANONICAL_CLASS`) is nef or ample is asked of
`toric.is_nef` and `toric.is_ample`: K is nef iff min(d, d0) >= 2 and ample
iff min(d, d0) >= 3.  The canonical image is the Hirzebruch surface of degree
e = 3d - 2*d0, embedded by |(d0 - 2) l + delta| once K is ample; for d0 = 2
the image degenerates to the cone over a rational normal curve, and where K
is not nef no canonical threefold interpretation applies directly (the
d0 = 1 cases with 2 <= d <= 4 flip to canonical threefolds with quotient
singularities, see `flip_analysis`; their anticipated volumes are checked
against the orbifold Riemann-Roch formula 1/2 K^3 = P2 + 3 chi(O) -
sum b(r-b)/(2r)).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Iterable

from .linear_system import enumerate_monomials
from .singularities import EmptyFamilyError, SingularityKind, classify_general_member, order_test
from .toric import CANONICAL_CLASS, BundleParams, CrossCheckError, SpecialCurve, coefficient_form
from .toric import curve_intersection, h0_class, is_ample, is_nef, member_class, quartic_intersection

__all__ = [
    "ImageKind",
    "InvariantSet",
    "canonical_image",
    "FlipRecord",
    "invariants",
    "plurigenus",
    "basket_normalize",
    "orbifold_rr_K3",
    "flip_analysis",
    "kobayashi_translate",
    "kobayashi_params",
    "moduli_components",
    "deformation_feasible",
    "canonical_ring_rank",
]

class ImageKind(str, Enum):
    HIRZEBRUCH = "hirzebruch"
    CONE = "cone"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class InvariantSet:
    pg: int
    q1: int
    q2: int
    chi_O: int
    K3: Fraction
    on_noether_line: bool
    K_ample: bool
    K_nef: bool
    mori_dream_general: bool


def canonical_image(
    params: BundleParams,
) -> tuple[ImageKind, int | None, tuple[int, int] | None, str]:
    """The image of the canonical map of X(d;d0), read off whether K is nef,
    d0 and e, as (kind, e, embedding, note): a Hirzebruch surface, a cone or
    degenerate; its degree e (None when degenerate); the coefficients (m, n)
    of the very ample system m*l + n*delta that embeds a Hirzebruch surface,
    else None; and a note, "" where there is none."""
    d, d0 = params.d, params.d0
    if not is_nef(CANONICAL_CLASS, params):
        if (d, d0) == (0, 0):
            note = "product of a line with a fixed degree-10 surface in P(1,1,2,5)"
        elif (d, d0) == (1, 1):
            note = "Kodaira dimension 0; the canonical system is a single fibre"
        else:
            note = "canonical class negative on the section S0; see the flip analysis"
        return ImageKind.DEGENERATE, None, None, note
    if d0 == 2:
        note = f"cone over a rational normal curve of degree {params.e}; S0 contracts to the vertex"
        return ImageKind.CONE, params.e, None, note
    if (d, d0) == (2, 3):
        note = ("canonical model is a complete intersection of a quadric and a degree-10 "
                "hypersurface in P(1,1,1,1,2,5); the base curve of |K| contracts to a node")
        return ImageKind.HIRZEBRUCH, 0, None, note
    return ImageKind.HIRZEBRUCH, params.e, (d0 - 2, 1), ""


def invariants(params: BundleParams, kind: SingularityKind | None = None) -> InvariantSet:
    """The invariant set of the general member of a nonempty family.

    p_g is computed as the section count of H - 2F and K^3 as the quartic
    product X.(H - 2F)^3, not from their closed forms, and the flags K_nef
    and K_ample are `toric.is_nef` and `is_ample` of K.  Where K is not nef
    the numbers are the formal family values.  A caller that has already
    classified the member passes ``kind``, the kind of
    `classify_general_member` (of the same ``params``), which is then not
    recomputed.
    """
    if kind is None:
        kind, _ = classify_general_member(params)
    if kind is SingularityKind.NOT_EXISTENT:
        raise EmptyFamilyError(
            f"{params.label()}: 4*d0 < d, the family has no member with "
            "canonical singularities"
        )
    K = CANONICAL_CLASS
    pg = h0_class(K, params)
    k3 = quartic_intersection(member_class(params), K, K, K, params)
    return InvariantSet(
        pg=pg,
        q1=0,
        q2=0,
        chi_O=1 - pg,
        K3=k3,
        on_noether_line=3 * k3 == 4 * pg - 10,
        K_ample=is_ample(K, params),
        K_nef=is_nef(K, params),
        mori_dream_general=params.d >= params.d0,
    )


def plurigenus(params: BundleParams, m: int) -> int:
    """The m-th plurigenus of the general member, 1 <= m <= 10.

    Counts sections of m(H - 2F) and subtracts those vanishing on the member;
    the subtracted class has negative H-coefficient for m <= 9 and is
    (0, 10d - 20) at m = 10.  Validated against all anchored values; beyond
    m = 10 the vanishing of the correction is not established, so larger m is
    refused.
    """
    if not 1 <= m <= 10:
        raise ValueError(f"plurigenus is defined for 1 <= m <= 10, got {m}")
    if not order_test(params):
        raise EmptyFamilyError(f"{params.label()}: empty family")
    total = h0_class((m, -2 * m), params)
    correction = h0_class((m - 10, 10 * params.d - 2 * m), params)
    return total - correction


def _pattern_b(residues: list[int], r: int) -> int | None:
    # Read a sorted residue multiset as {1, r-1, b}; the removal is unique.
    rest = list(residues)
    if 1 not in rest:
        return None
    rest.remove(1)
    if (r - 1) not in rest:
        return None
    rest.remove(r - 1)
    b = rest[0]
    if 1 <= b <= r - 1 and gcd(b, r) == 1:
        return b
    return None


def basket_normalize(r: int, weights: tuple[int, int, int]) -> tuple[int, int]:
    """Normalize a quotient type 1/r(w1, w2, w3) to the form 1/r(1, -1, b),
    returned as the pair (r, b).

    Searches for a unit u mod r with {u*w1, u*w2, u*w3} = {1, r-1, b} as
    multisets.  An input already in the normal form is returned unchanged;
    otherwise the smallest admissible b is chosen (b is only defined up to
    b <-> r - b, which leaves the Riemann-Roch contribution invariant).
    """
    if r < 2:
        raise ValueError("index r must be at least 2")
    residues = sorted(w % r for w in weights)
    b = _pattern_b(residues, r)
    if b is not None:
        return r, b
    candidates = []
    for u in range(2, r):
        if gcd(u, r) != 1:
            continue
        b = _pattern_b(sorted(u * w % r for w in weights), r)
        if b is not None:
            candidates.append(b)
    if not candidates:
        raise ValueError(f"1/{r}{tuple(weights)} is not of isolated (1,-1,b) form")
    return r, min(candidates)


def orbifold_rr_K3(p2: int, chi_o: int, basket: Iterable[tuple[int, int]]) -> Fraction:
    """Solve 1/2 K^3 = P2 + 3 chi(O) - sum b(r-b)/(2r) for K^3, the sum over
    the basket's points 1/r(1,-1,b), given as pairs (r, b); each must have
    r >= 2, 0 < b < r and gcd(b, r) = 1 (ValueError)."""
    total = Fraction(0)
    for r, b in basket:
        if r < 2 or not 0 < b < r or gcd(b, r) != 1:
            raise ValueError(f"invalid quotient type 1/{r}(1,-1,{b})")
        total += Fraction(b * (r - b), 2 * r)
    return 2 * (p2 + 3 * chi_o - total)


@dataclass(frozen=True)
class FlipRecord:
    """Data of the flip of a d0 = 1 model with 2 <= d <= 4."""

    params: BundleParams
    K_dot_s0: int
    pg: int
    P2: int
    chi_O: int
    basket: tuple[tuple[int, int], ...]
    K3_plus: Fraction
    nef_cone_Fplus: tuple[tuple[int, int], tuple[int, int]]


# Baskets and flipped volumes of the three models with K big but not nef.
_FLIP_DATA: dict[int, tuple[tuple[tuple[int, int], ...], Fraction]] = {
    2: (((2, 1), (2, 1), (4, 3)), Fraction(9, 4)),
    3: (((2, 1), (7, 2)), Fraction(85, 14)),
    4: (((2, 1), (3, 2), (5, 4)), Fraction(301, 30)),
}


def flip_analysis(d: int) -> FlipRecord:
    """Invariants of the flipped model of X(d;1) for d in {2, 3, 4}.

    K meets the section S0 negatively (degree d0 - 2 = -1); flipping S0
    yields a model with nef and big canonical class, nef cone spanned by
    H - F and H - d*F, the stored basket of quotient points 1/r(1,-1,b) as
    pairs (r, b), and the stored volume.  The record is gated on the
    orbifold Riemann-Roch identity with P2 computed independently by
    monomial counting.
    """
    if d not in _FLIP_DATA:
        raise ValueError(f"flip analysis applies to d in (2, 3, 4), got {d}")
    params = BundleParams(d, 1)
    basket, k3_plus = _FLIP_DATA[d]
    k_dot_s0 = curve_intersection(CANONICAL_CLASS, SpecialCurve.S0, params)
    if k_dot_s0 != -1:
        raise CrossCheckError(f"{params.label()}: K.S0 = {k_dot_s0}, not d0 - 2 = -1")
    pg = h0_class(CANONICAL_CLASS, params)
    p2 = plurigenus(params, 2)
    chi_o = 1 - pg
    rr = orbifold_rr_K3(p2, chi_o, basket)
    if rr != k3_plus:
        raise CrossCheckError(
            f"flip table inconsistent for d={d}: Riemann-Roch gives {rr}, "
            f"stored {k3_plus}"
        )
    return FlipRecord(
        params=params,
        K_dot_s0=int(k_dot_s0),
        pg=pg,
        P2=p2,
        chi_O=chi_o,
        basket=basket,
        K3_plus=k3_plus,
        nef_cone_Fplus=((1, -1), (1, -d)),
    )


def kobayashi_translate(a: int, e: int) -> BundleParams:
    """Parameters (d, d0) of the model built from blowup data (a, e).

    The translation is d = 2a - e, d0 = 2d - a, valid for a >= e >= 0; the
    geometric genera match, 6a - 3e - 2 = 3d - 2.
    """
    d, d0 = 2 * a - e, 3 * a - 2 * e
    if e < 0 or a < e:
        failed = " and ".join(
            name for name, fails in (("e < 0", e < 0), ("a < e", a < e)) if fails
        )
        detail = ""
        if e >= 0 and d >= 0 and d0 >= 0:
            detail = f"; these are the coordinates of X({d};{d0}), which has e > d"
        raise ValueError(
            f"{failed}: (a, e) = ({a}, {e}) is outside the "
            f"Kobayashi-Chen-Hu range a >= e >= 0{detail}"
        )
    return BundleParams(d, d0)


def kobayashi_params(params: BundleParams) -> tuple[int, int]:
    """Inverse translation: (a, e) = (2d - d0, 3d - 2*d0)."""
    return (2 * params.d - params.d0, params.e)


def moduli_components(pg: int) -> tuple[int, int, BundleParams | None]:
    """Connected components of the smooth locus for a given geometric genus,
    as (d, components, second): second is a model of the second component,
    None when there is only one.

    Requires pg = 3d - 2 with d >= 3.  There are two components exactly when
    8 divides d; the second one contains the smooth models X(d; 7d/8).
    """
    if pg < 7 or (pg + 2) % 3 != 0:
        raise ValueError(f"pg = {pg} is not of the form 3d - 2 with d >= 3")
    d = (pg + 2) // 3
    if d % 8 == 0:
        return d, 2, BundleParams(d, 7 * d // 8)
    return d, 1, None


def deformation_feasible(params: BundleParams) -> bool:
    """Does the scroll-type degeneration of the bundle carry every member?

    The degeneration from (d, d0 + 1) to (d, d0) carries a member iff every
    z-free coefficient keeps enough degree after factoring the forced power
    of the degenerating section: deg c - a1*e = (a0 + a1)(d - e)/2 >= 0 for
    all z-free degree-ten monomials, which holds iff e <= d.
    """
    e = params.e
    degree_check = all(
        coefficient_form(mono.a0, mono.a1, params.d, params.d0) - mono.a1 * e >= 0
        for mono in enumerate_monomials(10)
        if mono.a5 == 0
    )
    if degree_check != (e <= params.d):
        raise CrossCheckError(f"{params.label()}: the degree check disagrees with e <= d")
    return degree_check


def canonical_ring_rank(n: int) -> int:
    """Rank of the degree-n part of the relative canonical algebra.

    Equals 1, 2 for n = 0, 1 and 3 + n(n-1)/2 for n >= 2; also the number of
    degree-n fibre monomials minus the multiples of the single degree-ten
    relation.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n <= 1:
        return n + 1
    return 3 + n * (n - 1) // 2

