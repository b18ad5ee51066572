"""Tests for the Jacobi elliptic / elliptic integral layer.

Oracles used here are independent of the production path: mpmath's
incomplete integrals and functions at 30 digits, numerical inversion of
the incomplete integral of the first kind, adaptive quadrature of
epsilon's defining integral, and scipy.special.ellipj as a third-party
implementation.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import ellipe, ellipj, ellipkinc

from sct.elliptic import (
    _agm_ladder,
    _scalar_sn_cn_dn_eps_k,
    _sn_cn_dn_eps_k,
    complete_K,
    jacobi_epsilon,
    jacobi_sn_cn_dn,
    sn_cn_dn_eps_array,
)
from sct.errors import DomainError
from sct.paths import _modulus_and_scale, q_theta_max

U_GRID = np.linspace(-5.0, 5.0, 81)


def ellipf_mpmath(phi, k):
    """Incomplete integral of the first kind, mpmath at 30 digits."""
    with mpmath.workdps(30):
        return float(mpmath.ellipf(phi, mpmath.mpf(k) ** 2))


def ellipe_mpmath(phi, k):
    """Incomplete integral of the second kind, mpmath at 30 digits."""
    with mpmath.workdps(30):
        return float(mpmath.ellipe(phi, mpmath.mpf(k) ** 2))


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
        phi = brentq(lambda p: ellipf_mpmath(p, k) - u, 0.0, 1.5,
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
        # below k ~ 1e-8, m1 = 1 exactly and the ladder is exact trig
        for k in (0.0, 1e-9):
            for u in U_GRID:
                assert jacobi_sn_cn_dn(float(u), k) == (math.sin(u), math.cos(u), 1.0)

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
        # the ladder just above the switch must match the k -> 1 expansion
        # that both kernels take below it, at the same m1, epsilon included
        from sct.elliptic import _sn_cn_dn_eps_near_one

        m1 = 1.1e-12
        u = np.array([0.3, 1.7, 4.0])
        hyp = np.array(_sn_cn_dn_eps_near_one(u, np.full_like(u, m1)))
        scalar = [_scalar_sn_cn_dn_eps_k(x, m1) for x in u.tolist()]
        for agm in (np.array([x[:4] for x in scalar]).T,
                    np.array(_sn_cn_dn_eps_k(u, np.full_like(u, m1))[:4])):
            np.testing.assert_allclose(agm, hyp, rtol=1e-11)
        assert all(x[4] == _agm_ladder(m1)[3] for x in scalar)

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

    def test_near_one_branch_stops_at_the_half_period(self):
        # past K the first-order terms grow like m1 e^(2|u|): at u = 40 the
        # expansion gave cn = -2942
        m1 = 1e-13
        k = math.sqrt(1.0 - m1)
        with pytest.raises(DomainError, match=r"u=40.0 with m1=1e-13"):
            jacobi_sn_cn_dn(40.0, k, m1=m1)
        with pytest.raises(DomainError, match=r"u=40.0 with m1=1e-13"):
            sn_cn_dn_eps_array(np.array([1.0, 40.0]), k, m1)
        big_k = complete_K(k, m1=m1)
        for u in np.linspace(-0.9999 * big_k, 0.9999 * big_k, 101):
            sn, cn, _ = jacobi_sn_cn_dn(float(u), k, m1=m1)
            assert sn * sn + cn * cn == pytest.approx(1.0, abs=1e-12)

    def test_ladder_stops_at_rounding_level(self):
        # a and b can settle one ulp apart; a stop test below that level is
        # never met and the ladder runs all its steps
        for m1 in np.geomspace(1e-12, 0.5, 200):
            levels, _, _, _ = _agm_ladder(float(m1))
            # (z_j, c_j / a_j) from j = n down
            assert len(levels) <= 10
            assert abs(levels[0][1]) <= 2.3e-16

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            jacobi_sn_cn_dn(0.5, 1.5)
        with pytest.raises(DomainError):
            jacobi_sn_cn_dn(0.5, -0.1)
        with pytest.raises(DomainError):
            jacobi_sn_cn_dn(math.inf, 0.5)
        # the ladder's phase 2^n a_n u overflowed into a bare ValueError
        for k in (0.0, 0.5):
            with pytest.raises(DomainError, match="overflows"):
                jacobi_sn_cn_dn(1e308, k)

    @pytest.mark.parametrize("m1", [math.nan, math.inf, -1e-3])
    def test_m1_must_be_finite_and_nonnegative(self, m1):
        # a NaN m1 once came back as (nan, nan, nan) and K = nan, and the
        # array kernel once spun forever on an infinite one
        message = f"m1={m1!r} must be finite and nonnegative"
        for call in (lambda: jacobi_sn_cn_dn(0.3, 0.5, m1=m1),
                     lambda: complete_K(0.5, m1=m1),
                     lambda: jacobi_epsilon(0.3, 0.5, m1=m1),
                     lambda: sn_cn_dn_eps_array(np.array([0.1, 0.3]), 0.5,
                                                np.array([0.75, m1]))):
            with pytest.raises(DomainError) as err:
                call()
            assert str(err.value) == message

    def test_unchecked_kernel_ladder_is_capped(self):
        # an infinite m1 turns the ladder to NaN, which never meets its
        # stop; the loop still ends, at _LADDER_MAX steps
        with np.errstate(invalid="ignore"):
            sn, cn, dn, eps, _ = _sn_cn_dn_eps_k(np.array([0.1]), np.array([math.inf]))
        assert np.isnan([sn, cn, dn, eps]).all()

    def test_unchecked_scalar_kernel_ladder_is_capped(self, deadline):
        # the scalar twin: a NaN m1 never meets the ladder's stop either
        from sct.elliptic import _LADDER_MAX

        assert len(_agm_ladder(math.nan)[0]) == _LADDER_MAX
        assert all(math.isnan(x) for x in _scalar_sn_cn_dn_eps_k(0.1, math.nan))

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(log_m1=st.floats(-12.0, 0.0, exclude_max=True),
           frac=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
    def test_ladder_branch_without_clamp(self, log_m1, frac):
        # the backward recursion takes arcsin of (c_j / a_j) sin(phi) with
        # no clamp: c_j / a_j < 1 keeps it in [-1, 1].  Against the array
        # kernel: its phase differs by a few rounding steps of 2^n a_n u,
        # so the bound grows with |u| (7.6 eps (1 + |u|) at worst over
        # 3e5 random draws; 6.1e-16 relative holds on the path grid only)
        m1 = max(1e-12, 10.0 ** log_m1)
        k = math.sqrt(1.0 - m1)
        big_k = complete_K(k, m1=m1)
        u = frac * big_k
        assume(abs(u) < big_k)
        got = sn, cn, dn = jacobi_sn_cn_dn(u, k, m1)
        assert abs(sn) <= 1.0 and 0.0 < cn <= 1.0 and 0.0 < dn <= 1.0
        want = sn_cn_dn_eps_array(u, k, m1)[:3]
        tol = 16.0 * np.finfo(float).eps * (1.0 + abs(u))
        for g, w in zip(got, want):
            assert abs(g - float(w)) <= tol


class TestArrayKernel:
    @staticmethod
    def _path_family_grid():
        # (u, k, m1) at +-u_T and inside, over turning values from q_t = 0
        # (k = 1) through the exact-m1 branch (m1 < 1e-12) to the ladder
        rows = []
        for Theta in (0.1, 1.0, 10.0, 100.0):
            cap = q_theta_max(Theta)
            for q in [0.0, *np.geomspace(1e-6 * cap, 0.999 * cap, 30)]:
                m1, k, s = _modulus_and_scale(float(q))
                u_T = 0.5 * s * Theta
                rows += [(u, k, m1) for u in (u_T, -u_T, 0.3 * u_T, 0.0)]
        return np.array(rows).T

    def test_matches_scalar_kernel_on_the_path_family(self):
        u, k, m1 = self._path_family_grid()
        assert (m1 == 0.0).any() and ((0.0 < m1) & (m1 < 1e-12)).any()
        assert (m1 > 1e-12).any()
        got = sn_cn_dn_eps_array(u, k, m1)
        want = np.array([jacobi_sn_cn_dn(*row) + (jacobi_epsilon(*row),)
                         for row in zip(u.tolist(), k.tolist(), m1.tolist())]).T
        for g, w in zip(got, want):
            assert np.all(np.abs(g - w) <= 1e-14 * np.abs(w))

    def test_kernels_agree_bit_for_bit_near_one(self):
        # below m1 = 1e-12 both kernels take the one k -> 1 expansion, the
        # scalar kernel as Python floats; its own copy, on math's tanh, cosh,
        # sinh and exp, differed from the array's in the last bits on ~8 %
        # of this grid
        for m1 in [0.0, *np.geomspace(1e-300, 9.99e-13, 300).tolist()]:
            reach = min(_agm_ladder(m1)[3] if m1 > 0.0 else math.inf, 800.0)
            u = np.linspace(-1.0, 1.0, 26)[1:-1] * reach
            scalar = [_scalar_sn_cn_dn_eps_k(x, m1)[:4] for x in u.tolist()]
            assert all(type(x) is float for row in scalar for x in row)
            array = np.array(_sn_cn_dn_eps_k(u, np.full_like(u, m1))[:4]).T
            assert np.array(scalar).tobytes() == array.tobytes(), m1

    def test_shape_and_broadcasting(self):
        u = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
        out = sn_cn_dn_eps_array(u, 0.9, 0.19)
        assert all(x.shape == (2, 3) for x in out)
        assert out[0][1, 2] == pytest.approx(jacobi_sn_cn_dn(1.0, 0.9, 0.19)[0], rel=1e-15)

    def test_domain_is_the_first_half_period(self):
        k, m1 = 0.9, 0.19
        big_k = complete_K(k, m1=m1)
        sn_cn_dn_eps_array(np.array([-0.999 * big_k, 0.999 * big_k]), k, m1)
        with pytest.raises(DomainError, match="half period") as array_err:
            sn_cn_dn_eps_array(np.array([0.5, 1.001 * big_k]), k, m1)
        # the scalar epsilon has the same domain; sn, cn, dn stay periodic
        with pytest.raises(DomainError) as scalar_err:
            jacobi_epsilon(1.001 * big_k, k, m1)
        assert str(scalar_err.value) == str(array_err.value)
        assert jacobi_sn_cn_dn(1.001 * big_k, k, m1)[1] < 0.0
        # k = 1: every u, sech u = 2 e^-|u| past 710
        sn, cn, _, eps = sn_cn_dn_eps_array(np.array([711.0]), 1.0, 0.0)
        assert (sn[0], cn[0], eps[0]) == (1.0, 2.0 * math.exp(-711.0), 1.0)
        for bad in ((math.inf, 0.9, 0.19), (0.5, 1.2, 0.0), (0.5, 0.9, -0.1)):
            with pytest.raises(DomainError):
                sn_cn_dn_eps_array(*bad)


class TestCompleteK:
    def test_circular_case(self):
        assert complete_K(0.0) == pytest.approx(math.pi / 2, rel=1e-15)

    def test_lemniscatic_value(self):
        # AGM value, cross-checked against mpmath's incomplete integral at pi/2.
        k = 1.0 / math.sqrt(2.0)
        assert complete_K(k) == pytest.approx(1.85407467730137, rel=1e-12)
        assert complete_K(k) == pytest.approx(ellipf_mpmath(math.pi / 2, k), rel=1e-12)

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
    """E(phi, k) on [0, pi/2) as epsilon at u = F(phi, k), from both
    kernels, with F from scipy."""

    @staticmethod
    def e(phi, k):
        u = float(ellipkinc(phi, k * k))
        m1 = (1.0 - k) * (1.0 + k)
        return jacobi_epsilon(u, k, m1), float(sn_cn_dn_eps_array(u, k, m1)[3])

    def test_zero_modulus_is_identity(self):
        for phi in (0.0, 0.4, 1.1, 1.5):
            for got in self.e(phi, 0.0):
                assert got == pytest.approx(phi, rel=1e-15, abs=1e-15)

    def test_complete_limit(self):
        # u -> K: epsilon(K - h) = E(k) - h dn(K)^2 + O(h^3), dn(K)^2 = 1 - k^2
        for k in (0.0, 0.3, 0.8, 0.999):
            m1 = (1.0 - k) * (1.0 + k)
            big_k = complete_K(k, m1=m1)
            h = 1e-6 * big_k
            want = ellipe(k * k) - h * m1
            assert jacobi_epsilon(big_k - h, k, m1) == pytest.approx(want, rel=1e-14)
            got = sn_cn_dn_eps_array(big_k - h, k, m1)[3]
            assert float(got) == pytest.approx(want, rel=1e-14)

    def test_against_quadrature(self):
        for got in self.e(0.9, 0.95):
            assert got == pytest.approx(ellipe_mpmath(0.9, 0.95), rel=1e-12)
        for phi in (0.2, 0.7, 1.3):
            for k in (0.1, 0.6, 0.99):
                for got in self.e(phi, k):
                    assert got == pytest.approx(ellipe_mpmath(phi, k), rel=1e-12, abs=1e-14)

    def test_monotone_in_phi_and_modulus(self):
        phis = np.linspace(0.05, math.pi / 2 - 0.05, 20)
        ks = np.linspace(0.0, 0.99, 12)
        table = np.array([[self.e(float(p), float(k)) for p in phis] for k in ks])
        for kernel in (0, 1):
            assert np.all(np.diff(table[:, :, kernel], axis=1) > 0.0)
            assert np.all(np.diff(table[:, :, kernel], axis=0) < 0.0)


class TestAmplitudeAndEpsilon:
    """Epsilon lives on the first half period |u| < K(k) (every u at
    k = 1); past it both kernels raise DomainError."""

    @staticmethod
    def half_period(k):
        return math.inf if k == 1.0 else complete_K(k)

    @pytest.mark.parametrize("k", [0.0, 0.5, 0.9, 1.0])
    def test_epsilon_integrates_dn_squared(self, k):
        # Independent dn from scipy in the oracle integrand.
        for u in (-4.0, -1.3, 0.7, 2.0, 4.8):
            if abs(u) >= self.half_period(k):
                with pytest.raises(DomainError, match="half period"):
                    jacobi_epsilon(u, k)
                continue
            oracle, err = quad(lambda t: ellipj(t, k * k)[2] ** 2, 0.0, u,
                               epsabs=1e-14, epsrel=1e-13, limit=200)
            assert jacobi_epsilon(u, k) == pytest.approx(oracle, abs=5e-12)

    def test_epsilon_odd(self):
        for k in (0.2, 0.95):
            for u in (0.3, 1.1, 2.7):
                if u >= self.half_period(k):
                    for v in (u, -u):
                        with pytest.raises(DomainError, match="half period"):
                            jacobi_epsilon(v, k)
                    continue
                assert jacobi_epsilon(-u, k) == pytest.approx(-jacobi_epsilon(u, k), rel=1e-13)

    def test_both_kernels_against_mpmath(self):
        # epsilon = E(arcsin sn(u | m), m), m = 1 - m1 exactly, at 30 digits;
        # the worst relative error of either kernel, by band of m1: the
        # k -> 1 expansion below 1e-12, the ladder above
        bounds = {(1e-16, 1e-12): 1e-13, (1e-12, 1e-6): 1e-14, (1e-6, 0.5): 1e-14}
        rng = np.random.default_rng(20)
        worst = {}
        for band in bounds:
            m1 = 10.0 ** rng.uniform(*np.log10(band), 100)
            k = np.sqrt(1.0 - m1)
            big_k = np.array([complete_K(float(a), m1=float(b)) for a, b in zip(k, m1)])
            u = rng.uniform(-0.999, 0.999, 100) * big_k
            array_eps = sn_cn_dn_eps_array(u, k, m1)[3]
            worst[band] = 0.0
            with mpmath.workdps(30):
                for i, (ui, ki, mi) in enumerate(zip(u.tolist(), k.tolist(), m1.tolist())):
                    m = 1 - mpmath.mpf(mi)
                    want = mpmath.ellipe(mpmath.asin(mpmath.ellipfun("sn", ui, m=m)), m)
                    for got in (jacobi_epsilon(ui, ki, mi), float(array_eps[i])):
                        worst[band] = max(worst[band], float(abs((got - want) / want)))
        assert all(worst[band] <= bound for band, bound in bounds.items()), worst
