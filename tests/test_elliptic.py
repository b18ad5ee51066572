"""Tests for the Jacobi elliptic / elliptic integral layer.

Oracles used here are independent of the production path: adaptive
quadrature of the defining integrals, numerical inversion of the
incomplete integral of the first kind, and scipy.special.ellipj as a
third-party implementation.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import ellipj

from sct.elliptic import (
    complete_E,
    complete_K,
    incomplete_E,
    jacobi_am,
    jacobi_epsilon,
    jacobi_sn_cn_dn,
)
from sct.errors import DomainError

U_GRID = np.linspace(-5.0, 5.0, 81)


def ellipf_quadrature(phi, k):
    """Incomplete integral of the first kind by adaptive quadrature."""
    val, err = quad(lambda t: 1.0 / math.sqrt(1.0 - (k * math.sin(t)) ** 2),
                    0.0, phi, epsabs=1e-15, epsrel=1e-14, limit=200)
    assert err < 1e-12
    return val


def ellipe_quadrature(phi, k):
    """Incomplete integral of the second kind by adaptive quadrature."""
    val, err = quad(lambda t: math.sqrt(1.0 - (k * math.sin(t)) ** 2),
                    0.0, phi, epsabs=1e-15, epsrel=1e-14, limit=200)
    assert err < 1e-12
    return val


class TestJacobiFunctions:
    def test_origin(self):
        assert jacobi_sn_cn_dn(0.0, 0.8) == (0.0, 1.0, 1.0)

    def test_k_one_degenerates_to_hyperbolic(self):
        sn, cn, dn = jacobi_sn_cn_dn(1.2, 1.0)
        assert sn == pytest.approx(math.tanh(1.2), rel=1e-14)
        assert cn == pytest.approx(1.0 / math.cosh(1.2), rel=1e-14)
        assert dn == pytest.approx(1.0 / math.cosh(1.2), rel=1e-14)

    def test_against_inversion_of_first_kind_integral(self):
        # sn(u, k) = sin(phi) where u = F(phi, k); invert F numerically.
        u, k = 0.7, 0.9
        phi = brentq(lambda p: ellipf_quadrature(p, k) - u, 0.0, 1.5,
                     xtol=1e-15, rtol=8.9e-16)
        sn, cn, dn = jacobi_sn_cn_dn(u, k)
        assert sn == pytest.approx(math.sin(phi), abs=1e-13)
        assert cn == pytest.approx(math.cos(phi), abs=1e-13)
        assert dn == pytest.approx(math.sqrt(1 - (k * math.sin(phi)) ** 2), abs=1e-13)

    @pytest.mark.parametrize("k", [0.0, 0.3, 0.5, 1.0 / math.sqrt(2.0), 0.9, 0.99, 0.9999, 1.0])
    def test_identities(self, k):
        for u in U_GRID:
            sn, cn, dn = jacobi_sn_cn_dn(float(u), k)
            assert sn * sn + cn * cn == pytest.approx(1.0, abs=1e-12)
            assert dn * dn + (k * sn) ** 2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k", [0.2, 0.7, 0.95, 1.0])
    def test_parity(self, k):
        for u in U_GRID:
            sp, cp, dp = jacobi_sn_cn_dn(float(u), k)
            sm, cm, dm = jacobi_sn_cn_dn(float(-u), k)
            assert sm == pytest.approx(-sp, abs=1e-13)
            assert cm == pytest.approx(cp, abs=1e-13)
            assert dm == pytest.approx(dp, abs=1e-13)

    def test_k_zero_reduces_to_trig(self):
        for u in U_GRID:
            sn, cn, dn = jacobi_sn_cn_dn(float(u), 0.0)
            assert sn == pytest.approx(math.sin(u), abs=1e-12)
            assert cn == pytest.approx(math.cos(u), abs=1e-12)
            assert dn == pytest.approx(1.0, abs=1e-12)

    def test_k_one_reduces_to_hyperbolic(self):
        for u in U_GRID:
            sn, cn, dn = jacobi_sn_cn_dn(float(u), 1.0)
            assert sn == pytest.approx(math.tanh(u), abs=1e-12)
            assert cn == pytest.approx(1.0 / math.cosh(u), abs=1e-12)
            assert dn == pytest.approx(1.0 / math.cosh(u), abs=1e-12)

    @pytest.mark.parametrize("k", [0.1, 0.4, 0.8, 0.97])
    def test_against_scipy(self, k):
        for u in np.linspace(-4.0, 4.0, 33):
            sn, cn, dn = jacobi_sn_cn_dn(float(u), k)
            s2, c2, d2, _ = ellipj(u, k * k)
            assert sn == pytest.approx(s2, abs=5e-13)
            assert cn == pytest.approx(c2, abs=5e-13)
            assert dn == pytest.approx(d2, abs=5e-13)

    def test_near_one_branch_continuity(self):
        # AGM just above the switch must match the hyperbolic expansion
        # evaluated at the same m1.
        from sct.elliptic import _sn_cn_dn_near_one

        for u in (0.3, 1.7, 4.0):
            m1 = 1.1e-12
            k = math.sqrt(1.0 - m1)
            agm = jacobi_sn_cn_dn(u, k, m1=m1)
            hyp = _sn_cn_dn_near_one(u, m1)
            for a, b in zip(agm, hyp):
                assert a == pytest.approx(b, rel=1e-11)

    def test_k_one_at_large_argument(self):
        # 1 / cosh u up to |u| = 710, then sech u = 2 e^-|u| (cosh overflows)
        sech = 1.0 / math.cosh(709.5)
        assert jacobi_sn_cn_dn(709.5, 1.0) == (1.0, sech, sech)
        sech = 2.0 * math.exp(-711.0)
        assert jacobi_sn_cn_dn(711.0, 1.0) == (1.0, sech, sech)
        assert jacobi_sn_cn_dn(-800.0, 1.0) == (-1.0, 0.0, 0.0)
        assert jacobi_epsilon(711.0, 1.0) == 1.0

    def test_near_one_correction_overflow_is_a_domain_error(self):
        m1 = 1e-13
        with pytest.raises(DomainError, match=r"u=711.0 with m1=1e-13"):
            jacobi_sn_cn_dn(711.0, math.sqrt(1.0 - m1), m1=m1)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            jacobi_sn_cn_dn(0.5, 1.5)
        with pytest.raises(DomainError):
            jacobi_sn_cn_dn(0.5, -0.1)
        with pytest.raises(DomainError):
            jacobi_sn_cn_dn(math.inf, 0.5)


class TestCompleteK:
    def test_circular_case(self):
        assert complete_K(0.0) == pytest.approx(math.pi / 2, rel=1e-15)

    def test_lemniscatic_value(self):
        # AGM value, cross-checked against quadrature of the defining integral.
        k = 1.0 / math.sqrt(2.0)
        assert complete_K(k) == pytest.approx(1.85407467730137, rel=1e-12)
        assert complete_K(k) == pytest.approx(ellipf_quadrature(math.pi / 2, k), rel=1e-12)

    def test_log_divergence_near_one(self):
        m1 = 1e-10
        k = math.sqrt(1.0 - m1)
        ratio = complete_K(k, m1=m1) / math.log(4.0 / math.sqrt(m1))
        assert ratio == pytest.approx(1.0, rel=1e-9)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            complete_K(1.0)
        with pytest.raises(DomainError):
            complete_K(1.2)


class TestIncompleteE:
    def test_zero_modulus_is_identity(self):
        for phi in (-2.0, 0.0, 0.4, 1.1, 3.5):
            assert incomplete_E(phi, 0.0) == pytest.approx(phi, rel=1e-15, abs=1e-15)

    def test_complete_limit(self):
        assert incomplete_E(math.pi / 2, 0.0) == pytest.approx(math.pi / 2, rel=1e-15)
        for k in (0.3, 0.8, 0.999):
            assert incomplete_E(math.pi / 2, k) == pytest.approx(complete_E(k), rel=1e-14)

    def test_against_quadrature(self):
        assert incomplete_E(0.9, 0.95) == pytest.approx(ellipe_quadrature(0.9, 0.95), rel=1e-12)
        for phi in (0.2, 0.7, 1.3):
            for k in (0.1, 0.6, 0.99, 1.0):
                assert incomplete_E(phi, k) == pytest.approx(
                    ellipe_quadrature(phi, k), rel=1e-12, abs=1e-14)

    def test_quasi_periodic_extension(self):
        for k in (0.4, 0.9):
            for phi in (2.0, 4.5, -3.0):
                assert incomplete_E(phi, k) == pytest.approx(
                    ellipe_quadrature(phi, k), rel=1e-12)

    def test_monotone_in_phi_and_modulus(self):
        phis = np.linspace(0.05, math.pi / 2 - 0.05, 20)
        ks = np.linspace(0.0, 0.99, 12)
        for k in ks:
            vals = [incomplete_E(float(p), float(k)) for p in phis]
            assert all(b > a for a, b in zip(vals, vals[1:]))
        for phi in phis:
            vals = [incomplete_E(float(phi), float(k)) for k in ks]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            incomplete_E(0.5, 1.2)


class TestAmplitudeAndEpsilon:
    @pytest.mark.parametrize("k", [0.3, 0.8, 0.99])
    def test_amplitude_defines_sn_cn(self, k):
        for u in U_GRID:
            am = jacobi_am(float(u), k)
            sn, cn, _ = jacobi_sn_cn_dn(float(u), k)
            assert math.sin(am) == pytest.approx(sn, abs=1e-12)
            assert math.cos(am) == pytest.approx(cn, abs=1e-12)

    @pytest.mark.parametrize("k", [0.0, 0.5, 0.9, 1.0])
    def test_epsilon_integrates_dn_squared(self, k):
        # Independent dn from scipy in the oracle integrand.
        for u in (-4.0, -1.3, 0.7, 2.0, 4.8):
            oracle, err = quad(lambda t: ellipj(t, k * k)[2] ** 2, 0.0, u,
                               epsabs=1e-14, epsrel=1e-13, limit=200)
            assert jacobi_epsilon(u, k) == pytest.approx(oracle, abs=5e-12)

    def test_epsilon_odd(self):
        for k in (0.2, 0.95):
            for u in (0.3, 1.1, 2.7):
                assert jacobi_epsilon(-u, k) == pytest.approx(-jacobi_epsilon(u, k), rel=1e-13)
