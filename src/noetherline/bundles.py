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

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "FibrationData",
    "ChiInvariants",
    "chi_invariants",
]


@dataclass(frozen=True)
class FibrationData:
    """Base genus and characteristic-sheaf degrees of a fibration.

    Formal data with a negative degree is accepted for arithmetic;
    `semipositive` says whether it can come from an actual fibration.
    """

    genus_b: int
    deg_E1: int
    deg_E2: int

    def __post_init__(self) -> None:
        if self.genus_b < 0:
            raise ValueError("genus must be nonnegative")

    @property
    def semipositive(self) -> bool:
        """Both degrees nonnegative, as semipositivity demands of a fibration."""
        return self.deg_E1 >= 0 and self.deg_E2 >= 0

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
