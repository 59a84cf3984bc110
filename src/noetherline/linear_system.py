"""Fibre monomials and linear systems of the degree-ten family.

A fibre monomial x0^a0 x1^a1 y^a2 z^a5 of weighted degree m = a0 + a1 +
2*a2 + 5*a5 appears in a member of |m(H - d*F)| with a coefficient that is a
binary form in t0, t1 of degree (2*a1 - a0)*d + (a0 - a1)*d0, whatever a2 and
a5 are (`toric.coefficient_form`).  A negative degree forces the coefficient
to vanish identically, so a general member contains exactly the monomials of
nonnegative coefficient degree.  `coefficient_profile` lists the degree-ten
monomials as (monomial, coefficient degree) pairs; it reads each degree off
`PROFILE_FORMS`, the form A*d + B*d0 of each of the 49 monomials, read once
at import.

For the degree-ten family the equation is normalized: the coefficients of
z^2 and y^5 are nonzero constants scaled to one, and completing the square in
z removes every monomial divisible by z.  `normal_form_support` returns the
surviving monomials.

`DEGREE_TEN_FORMS` holds the forms of the 35 z-free monomials other than y^5,
taken from `PROFILE_FORMS`, so a row's support is a filter on their signs
(`support_pattern`).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat

from .toric import CANONICAL_CLASS, BundleParams, CrossCheckError, SpecialCurve
from .toric import coefficient_form, fibre_blocks, h0_class, is_ample, is_nef, member_class

__all__ = [
    "FibreMonomial",
    "Z_SQUARED",
    "Y_FIFTH",
    "PROFILE_FORMS",
    "DEGREE_TEN_FORMS",
    "support_pattern",
    "enumerate_monomials",
    "coefficient_profile",
    "normal_form_support",
    "base_locus",
    "family_dimension",
]


@dataclass(frozen=True, slots=True)
class FibreMonomial:
    """Exponent vector (a0, a1, a2, a5) of x0^a0 x1^a1 y^a2 z^a5."""

    a0: int
    a1: int
    a2: int
    a5: int

    def __post_init__(self) -> None:
        if min(self.a0, self.a1, self.a2, self.a5) < 0:
            raise ValueError("exponents must be nonnegative")


Z_SQUARED = FibreMonomial(0, 0, 0, 2)
Y_FIFTH = FibreMonomial(0, 0, 5, 0)


@lru_cache(maxsize=None)
def enumerate_monomials(m: int) -> tuple[FibreMonomial, ...]:
    """All fibre monomials of weighted degree m, ordered by (a5, a2, a1).

    The ordering is part of the contract: output tables and serialized
    records are byte-stable across runs.

    The monomials are allocated bare, without the frozen `__init__`, then
    each field is set through its slot a column at a time, chained from one
    `range` or `repeat` per block of `toric.fibre_blocks`, checked first.

    The fill pauses the cyclic collector, process-wide for its few
    milliseconds: the monomials hold only ints and form no cycle, yet each
    full pass would re-walk the growing cache.  It leaves the collector on
    or off as the caller had it, also when the fill raises.
    """
    if m < 0:
        raise ValueError("degree must be nonnegative")
    blocks = list(fibre_blocks(m))
    if blocks and min(map(min, blocks)) < 0:
        raise ValueError("exponents must be nonnegative")
    enabled = gc.isenabled()
    gc.disable()
    try:
        monos = tuple(map(object.__new__, repeat(FibreMonomial, sum(rest + 1 for rest, _, _ in blocks))))
        columns = [(range(r, -1, -1), range(r + 1), repeat(a2, r + 1), repeat(a5, r + 1)) for r, a2, a5 in blocks]
        for name, column in zip(FibreMonomial.__slots__, zip(*columns)):
            # `__set__` returns None, so `any` runs the map to its end.
            any(map(getattr(FibreMonomial, name).__set__, monos, chain.from_iterable(column)))
    finally:
        if enabled:
            gc.enable()
    return monos


#: The 49 degree-ten monomials, z included, in enumeration order, each with
#: its coefficient degree A*d + B*d0 as (A, B), the form at (1, 0) and (0, 1).
PROFILE_FORMS: tuple[tuple[FibreMonomial, int, int], ...] = tuple([
    (mono, coefficient_form(mono.a0, mono.a1, 1, 0), coefficient_form(mono.a0, mono.a1, 0, 1))
    for mono in enumerate_monomials(10)
])

#: The z-free degree-ten monomials other than y^5, with their forms.
DEGREE_TEN_FORMS: tuple[tuple[FibreMonomial, int, int], ...] = tuple(
    row for row in PROFILE_FORMS if row[0].a5 == 0 and row[0] != Y_FIFTH
)


def coefficient_profile(params: BundleParams) -> tuple[tuple[FibreMonomial, int], ...]:
    """Every degree-ten monomial paired with its coefficient degree, as
    (monomial, degree) in enumeration order: each degree is its form of
    `PROFILE_FORMS` at params."""
    d, d0 = params.d, params.d0
    return tuple([(mono, a * d + b * d0) for mono, a, b in PROFILE_FORMS])


def support_pattern(params: BundleParams) -> tuple[bool, ...]:
    """For each form of `DEGREE_TEN_FORMS`, whether it is nonnegative at params."""
    d, d0 = params.d, params.d0
    return tuple([a * d + b * d0 >= 0 for _, a, b in DEGREE_TEN_FORMS])


def normal_form_support(params: BundleParams) -> tuple[FibreMonomial, ...]:
    """Monomials surviving in the normalized equation of a general member.

    z^2 and y^5 always appear (their coefficients are nonzero constants,
    scaled to one); every other monomial divisible by z is removed by
    completing the square; the remaining z-free monomials appear iff their
    coefficient degree, a form of `DEGREE_TEN_FORMS`, is nonnegative.
    Returned in enumeration order, where y^5 closes the z-free monomials and
    z^2 comes last.
    """
    pattern = support_pattern(params)
    kept = (mono for (mono, _, _), sign in zip(DEGREE_TEN_FORMS, pattern) if sign)
    return (*kept, Y_FIFTH, Z_SQUARED)


def base_locus(params: BundleParams) -> tuple[SpecialCurve | None, SpecialCurve | None]:
    """The base loci (family, canonical) of the member family and the canonical
    system, read off `toric.is_nef` and `toric.is_ample`.  The family's is
    None when the member class 10(H - d*F) is nef, so base point free
    (d0 >= d), and S0 otherwise; the canonical one is GAMMA if the canonical
    class H - 2F is ample (min(d, d0) >= 3), and below that the system
    degenerates and no base curve is reported."""
    family = None if is_nef(member_class(params), params) else SpecialCurve.S0
    canonical = SpecialCurve.GAMMA if is_ample(CANONICAL_CLASS, params) else None
    return family, canonical


def family_dimension(params: BundleParams, profile: tuple[tuple[FibreMonomial, int], ...]) -> int:
    """Projective dimension of the degree-ten family.

    Sums the coefficient spaces over ``profile``, the caller's
    ``coefficient_profile(params)``, and cross-checks against the section
    count `h0_class` of 10(H - d*F), the same form summed its own way.
    """
    total = sum(max(0, degree + 1) for _, degree in profile)
    sections = h0_class(member_class(params), params)
    if total != sections:
        raise CrossCheckError(f"{params.label()}: {total} coefficients, {sections} sections")
    return total - 1
