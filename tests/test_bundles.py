import warnings
from fractions import Fraction

import pytest

from noetherline.bundles import FibrationData, chi_invariants
from noetherline.invariants import invariants
from noetherline.toric import BundleParams, DivisorClass, weight_matrix

from oracles import (
    canonical_class_F,
    gorenstein_data,
    noether_check,
    relative_canonical_class,
    relative_dualising_degree,
    split_bundle_weight_matrix,
    twist,
    twist_degrees,
)


def test_n_invariant():
    for d in range(0, 20):
        assert FibrationData(0, 3 * d, 2 * d).N == 0
    data = FibrationData(0, 3, 3)
    assert data.N == 3 and data.exists
    bad = FibrationData(0, 2, 1)
    assert bad.N == -1 and not bad.exists


def test_deg_e5_is_derived():
    data = FibrationData(1, 10, 10)
    assert data.deg_E5 == 20


def test_split_validation():
    with pytest.raises(ValueError):
        FibrationData(-1, 7, 5)


def test_semipositivity_is_data_not_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data = FibrationData(0, -1, 4)
    assert not data.semipositive
    assert not FibrationData(0, 1, -1).semipositive
    assert FibrationData(0, 0, 0).semipositive
    assert data.deg_E5 == 3


def test_chi_invariants_examples():
    for d in range(3, 20):
        chi = chi_invariants(FibrationData(0, 3 * d, 2 * d))
        assert chi.chi_omega_X == 3 * d - 3
        assert chi.K3 == 4 * d - 6
    chi = chi_invariants(FibrationData(1, 10, 10))
    assert chi.chi_OB == 0 and chi.K3 == 15
    chi = chi_invariants(FibrationData(0, 0, 0))
    assert chi.chi_omega_X == -3 and chi.K3 == -6


def test_chi_invariants_rejects_negative_n():
    with pytest.raises(ValueError):
        chi_invariants(FibrationData(0, 2, 1))


def test_gorenstein_data_reproduces_toric_invariants():
    for d in range(3, 25):
        for d0 in range(max(3, -(-d // 4)), 3 * d // 2 + 1):
            params = BundleParams(d, d0)
            inv = invariants(params)
            chi = chi_invariants(gorenstein_data(params))
            assert chi.K3 == inv.K3
            assert chi.chi_omega_X == inv.pg - 1


def test_noether_equality_iff_gorenstein():
    data = FibrationData(0, 9, 6)  # N = 0
    chi = chi_invariants(data)
    check = noether_check(data, pg=chi.chi_omega_X + 1, q1=0, q2=0)
    assert check.equality and check.gap == 0
    one = FibrationData(0, 1, 1)  # N = 1
    check = noether_check(one, pg=chi_invariants(one).chi_omega_X + 1, q1=0, q2=0)
    assert check.gap == Fraction(1, 6) and not check.equality
    two = FibrationData(0, 2, 2)  # N = 2
    check = noether_check(two, pg=chi_invariants(two).chi_omega_X + 1, q1=0, q2=0)
    assert check.gap == Fraction(1, 3)


def test_noether_gap_on_grid():
    for b in range(0, 3):
        for e1 in range(0, 13):
            for e2 in range(0, 13):
                data = FibrationData(b, e1, e2)
                if data.N < 0:
                    continue
                chi = chi_invariants(data)
                q2 = 1  # any consistent choice works; the gap is N/6 regardless
                pg = chi.chi_omega_X + 1 - b + q2
                check = noether_check(data, pg=pg, q1=b, q2=q2)
                assert check.gap == Fraction(data.N, 6)
                assert check.equality == (data.N == 0)


def test_noether_check_rejects_inconsistent_invariants():
    data = FibrationData(0, 9, 6)
    with pytest.raises(ValueError, match="inconsistent"):
        noether_check(data, pg=99, q1=0, q2=0)
    with pytest.raises(ValueError, match="base genus"):
        noether_check(data, pg=7, q1=1, q2=0)


# --- split bundles and the dualising sheaf ---------------------------------------


def test_split_matrix_bridges_to_normalized_matrix():
    for d in range(0, 15):
        for d0 in range(0, 3 * d // 2 + 1):
            split = split_bundle_weight_matrix(d0, 3 * d - d0, 2 * d, 5 * d)
            assert twist(split, d) == weight_matrix(BundleParams(d, d0))


def test_split_matrix_product_case():
    assert split_bundle_weight_matrix(0, 0, 0, 0) == (
        (1, 1, 0, 0, 0, 0),
        (0, 0, 1, 1, 2, 5),
    )


def test_twist_degrees():
    d, d0 = 6, 4
    assert twist_degrees((d0, 3 * d - d0, 2 * d, 5 * d), -d) == (
        d0 - d,
        2 * d - d0,
        0,
        0,
    )


def test_relative_dualising_degree():
    assert relative_dualising_degree((1, 1, 2, 5), (7, 2, 0, 0)).taut_twist == -9
    assert relative_dualising_degree((1, 1, 1), (4,)).taut_twist == -3
    dual = relative_dualising_degree((1, 1, 2, 5), (3 , 2, 0, 0))
    assert dual.base_twist == 5
    with pytest.raises(ValueError):
        relative_dualising_degree((1, 0, 2), (1,))


def test_relative_canonical_class_two_path_identity():
    for d in range(0, 20):
        for d0 in range(0, 3 * d // 2 + 1):
            params = BundleParams(d, d0)
            cls = relative_canonical_class(params)
            assert cls == DivisorClass(-9, 10 * d)
            assert cls == canonical_class_F(params) - DivisorClass(0, -2)
