"""Degree arithmetic for fibrations in (1,2)-surfaces over a curve of genus b.

The relative canonical algebra of such a fibration is generated in degrees
1, 1, 2, 5; the new generators in degrees 1, 2, 5 span locally free sheaves
E1, E2, E5 of ranks 2, 1, 1 with E5 = det(E1) (x) E2, so deg E5 =
deg E1 + deg E2 always.  The integer N = 3*deg E2 - 2*deg E1 counts the
expected half-points of the total space; N = 0 characterises the Gorenstein
case and gives equality in the Noether-type inequality

    K^3 >= (4*(p_g - q2) - 10*(1 - q1)) / 3,

the general gap being exactly N/6.  Over genus b >= 1 only Euler
characteristics are determined by the degrees, so this module never reports
individual h^0 or h^1 there.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from .toric import BundleParams, CrossCheckError, DivisorClass, WeightMatrix, canonical_class_F

__all__ = [
    "FibrationData",
    "ChiInvariants",
    "NoetherCheck",
    "DualisingDegrees",
    "gorenstein_data",
    "chi_invariants",
    "noether_check",
    "split_bundle_weight_matrix",
    "twist_degrees",
    "relative_dualising_degree",
    "relative_canonical_class",
]


@dataclass(frozen=True)
class FibrationData:
    """Base genus and characteristic-sheaf degrees of a fibration.

    ``split_E1`` optionally records a splitting of E1 into two line bundles;
    it is meaningful over genus 0 only, where every bundle splits.
    """

    genus_b: int
    deg_E1: int
    deg_E2: int
    split_E1: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.genus_b < 0:
            raise ValueError("genus must be nonnegative")
        if self.split_E1 is not None:
            if self.genus_b != 0:
                raise ValueError("a splitting of E1 is meaningful over genus 0 only")
            if sum(self.split_E1) != self.deg_E1:
                raise ValueError("split degrees must sum to deg E1")
        if self.deg_E1 < 0 or self.deg_E2 < 0:
            # Semipositivity holds for an actual fibration; formal data is
            # still accepted for arithmetic.
            warnings.warn(
                "negative characteristic-sheaf degree violates semipositivity",
                stacklevel=2,
            )

    @property
    def deg_E5(self) -> int:
        return self.deg_E1 + self.deg_E2

    @property
    def N(self) -> int:
        """N = 3*deg E2 - 2*deg E1; a negative value flags a non-fibration."""
        return 3 * self.deg_E2 - 2 * self.deg_E1

    @property
    def exists(self) -> bool:
        """N >= 0 is necessary for the data to come from a fibration."""
        return self.N >= 0


def gorenstein_data(params: BundleParams) -> FibrationData:
    """The degrees of the toric model: genus 0, deg E1 = 3d, deg E2 = 2d."""
    return FibrationData(0, 3 * params.d, 2 * params.d, split_E1=(params.d0, 3 * params.d - params.d0))


@dataclass(frozen=True)
class ChiInvariants:
    chi_OB: int
    chi_E1: int
    chi_omega_X: int
    K3: Fraction


def chi_invariants(data: FibrationData) -> ChiInvariants:
    """Euler characteristics and canonical volume from the degree data.

    chi(O_B) = 1 - b, chi(E1) = deg E1 + 2(1 - b) by Riemann-Roch on the
    base, chi(omega_X) = chi(E1) - 5 chi(O_B), and
    K^3 = 4/3 chi(omega_X) - 2 chi(O_B) + N/6.
    """
    if data.N < 0:
        raise ValueError(f"N = {data.N} < 0: not a fibration in (1,2)-surfaces")
    chi_ob = 1 - data.genus_b
    chi_e1 = data.deg_E1 + 2 * chi_ob
    chi_omega = chi_e1 - 5 * chi_ob
    k3 = Fraction(4, 3) * chi_omega - 2 * chi_ob + Fraction(data.N, 6)
    return ChiInvariants(chi_ob, chi_e1, chi_omega, k3)


@dataclass(frozen=True)
class NoetherCheck:
    lhs: Fraction
    rhs: Fraction
    gap: Fraction
    equality: bool


def noether_check(data: FibrationData, pg: int, q1: int, q2: int) -> NoetherCheck:
    """Evaluate both sides of the Noether-type inequality.

    lhs is K^3 from the degree data, rhs = (4(pg - q2) - 10(1 - q1))/3.  The
    supplied invariants must satisfy q1 = b and chi(omega_X) = pg - q2 + q1 - 1;
    then lhs - rhs = N/6 identically and equality holds iff N = 0.
    """
    chi = chi_invariants(data)
    if q1 != data.genus_b:
        raise ValueError(f"q1 = {q1} must equal the base genus {data.genus_b}")
    if pg - q2 + q1 - 1 != chi.chi_omega_X:
        raise ValueError(
            f"inconsistent invariants: pg - q2 + q1 - 1 = {pg - q2 + q1 - 1} "
            f"but chi(omega_X) = {chi.chi_omega_X}"
        )
    rhs = Fraction(4 * (pg - q2) - 10 * (1 - q1), 3)
    gap = chi.K3 - rhs
    return NoetherCheck(chi.K3, rhs, gap, gap == 0)


def split_bundle_weight_matrix(
    d0: int, d1: int, d2: int, d5: int
) -> WeightMatrix:
    """Weight matrix of the bundle of a split algebra over the line.

    The generators of weights (1, 1, 2, 5) twisted by degrees
    (d0, d1, d2, d5) give base row (1, 1, -d0, -d1, -d2, -d5).  When
    d1 = 3d - d0, d2 = 2d, d5 = 5d this presents the same bundle as the
    normalized matrix: twisting by t = d (adding d times the fibre row)
    recovers it.
    """
    return WeightMatrix((1, 1, -d0, -d1, -d2, -d5))


def twist_degrees(
    degrees: tuple[int, int, int, int], t: int
) -> tuple[int, int, int, int]:
    """Degrees of the generators after tensoring the algebra by O(t)."""
    weights = (1, 1, 2, 5)
    return tuple(deg + w * t for deg, w in zip(degrees, weights))


@dataclass(frozen=True)
class DualisingDegrees:
    """Twists of the relative dualising sheaf: O(taut_twist) (x) pullback O(base_twist)."""

    taut_twist: int
    base_twist: int


def relative_dualising_degree(
    weights: tuple[int, ...], char_degrees: tuple[int, ...]
) -> DualisingDegrees:
    """Relative dualising sheaf of a weighted projective bundle.

    For generator weights (a_1, ..., a_n) (listed with multiplicity) and
    characteristic-sheaf summand degrees the sheaf is O(-sum a_i) twisted by
    the pullback of a base line bundle of degree sum(char_degrees).
    """
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    return DualisingDegrees(-sum(weights), sum(char_degrees))


def relative_canonical_class(params: BundleParams) -> DivisorClass:
    """Relative canonical class of the toric model, as a divisor class.

    Computed from the normalized presentation with generator degrees
    (d0 - d, 2d - d0, 0, 0): the tautological twist is -9 and the base twist
    is d, giving -9(H - d*F) + d*F = (-9, 10d).  Must differ from the
    absolute canonical class by the pullback of the base canonical class.
    """
    d, d0 = params.d, params.d0
    dual = relative_dualising_degree((1, 1, 2, 5), (d0 - d, 2 * d - d0, 0, 0))
    cls = DivisorClass(dual.taut_twist, -dual.taut_twist * d + dual.base_twist)
    if cls != canonical_class_F(params) - DivisorClass(0, -2):
        raise CrossCheckError(f"{params.label()}: K_X/P1 = {cls} is not K_X + 2F")
    return cls
