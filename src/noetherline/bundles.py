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

__all__ = [
    "FibrationData",
    "ChiInvariants",
    "chi_invariants",
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
