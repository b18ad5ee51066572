"""Tests for classical trajectories, actions and canonical solutions."""

import math
from collections import Counter

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

import sct.paths
from sct.elliptic import _scalar_sn_cn_dn_eps_k, _sn_cn_dn_eps_k, jacobi_sn_cn_dn
from sct.errors import ConvergenceError, DegenerateError, DomainError, PoleError
from sct.paths import (
    CanonicalPair,
    ReducedParams,
    _pole_gap,
    canonical_longitudinal,
    canonical_transverse,
    harmonic_action,
    harmonic_canonical_pair,
    harmonic_trajectory,
    harmonic_well,
    invert_endpoint,
    q_theta_max,
    quartic_action,
    quartic_path_from_qt,
    quartic_well,
    shoot_radial_path,
)

# {0.5, 1, 2} x {0.5, 1, 2} minus (2, 2), which lies beyond the nc pole:
# sqrt(5) > K(k(2)) ~ 1.9496, so no closed path exists there.
QT_THETA_GRID = [(0.5, 0.5), (0.5, 1.0), (0.5, 2.0),
                 (1.0, 0.5), (1.0, 1.0), (1.0, 2.0),
                 (2.0, 0.5), (2.0, 1.0)]


def second_difference(f, x, h=1e-3):
    """Fourth-order five-point stencil for f''(x)."""
    return (-f(x - 2 * h) + 16 * f(x - h) - 30 * f(x)
            + 16 * f(x + h) - f(x + 2 * h)) / (12 * h * h)


class TestReducedParams:
    def test_validation(self):
        ReducedParams(0.5, 3, 1.0)
        with pytest.raises(DomainError):
            ReducedParams(-0.1, 1, 1.0)
        for g in (math.inf, math.nan):
            with pytest.raises(DomainError, match="finite"):
                ReducedParams(g, 1, 1.0)
        with pytest.raises(DomainError):
            ReducedParams(0.5, 0, 1.0)
        with pytest.raises(DomainError):
            ReducedParams(0.5, 1, 0.0)

    @pytest.mark.parametrize("D", [0.5, math.nan, math.inf, 0, -1, True])
    def test_dimension_is_an_integer_at_least_one(self, D):
        # D = 0.5 once passed here and failed with TypeError in z2_quartic;
        # D = True passed as D = 1
        with pytest.raises(DomainError, match="dimension"):
            ReducedParams(0.5, D, 1.0)

    def test_temperature(self):
        assert ReducedParams(0.2, 1, 4.0).T == 0.25


class TestHarmonic:
    def test_boundary(self):
        assert harmonic_trajectory(1.0, 2.0, 0.0) == pytest.approx(1.0, rel=1e-14)
        assert harmonic_trajectory(1.0, 2.0, 2.0) == pytest.approx(1.0, rel=1e-14)

    def test_midpoint(self):
        assert harmonic_trajectory(1.0, 2.0, 1.0) == pytest.approx(1.0 / math.cosh(1.0), rel=1e-14)

    def test_origin_fixed_point(self):
        assert harmonic_trajectory(0.0, 2.0, 0.7) == 0.0

    def test_large_theta_no_overflow(self):
        val = harmonic_trajectory(1.0, 1500.0, 750.0)
        assert 0.0 <= val < 1e-300 or val == 0.0

    def test_domain_error(self):
        with pytest.raises(DomainError):
            harmonic_trajectory(1.0, 2.0, 2.5)
        with pytest.raises(DomainError):
            harmonic_trajectory(1.0, 2.0, -0.1)

    @pytest.mark.parametrize("r0", [math.nan, math.inf, -1.0])
    def test_endpoint_must_be_finite_and_non_negative(self, r0):
        # r0 < 0 alone let NaN and inf through: harmonic_action(nan, 1.0)
        # was nan and shoot_radial_path ended in a bare scipy ValueError
        for call in (lambda: harmonic_trajectory(r0, 1.0, 0.5),
                     lambda: harmonic_action(r0, 1.0),
                     lambda: shoot_radial_path(quartic_well(), r0, 1.0)):
            with pytest.raises(DomainError, match=f"r0={r0!r} must be finite"):
                call()

    def test_action_values(self):
        assert harmonic_action(0.0, 1.0) == 0.0
        assert harmonic_action(1.0, 400.0) == pytest.approx(1.0, rel=1e-14)
        assert harmonic_action(2.0, 1.0) == pytest.approx(4.0 * math.tanh(0.5), rel=1e-14)

    def test_action_is_quadrature_of_lagrangian(self):
        r0, Theta = 1.3, 2.0

        def lagrangian(t):
            h = 1e-6
            rdot = (harmonic_trajectory(r0, Theta, t + h)
                    - harmonic_trajectory(r0, Theta, t - h)) / (2 * h)
            r = harmonic_trajectory(r0, Theta, t)
            return 0.5 * rdot * rdot + 0.5 * r * r

        # the clipped endpoints cost ~2 L(0) * 1e-6, hence the tolerance
        oracle, _ = quad(lagrangian, 1e-6, Theta - 1e-6, epsabs=1e-12, epsrel=1e-11)
        assert harmonic_action(r0, Theta) == pytest.approx(oracle, rel=1e-5)


class TestQuarticPath:
    def test_zero_turning_value_is_zero_path(self):
        # Theta = 2000 takes the k = 1 kernel past the range of cosh
        for Theta in (2.0, 2000.0):
            path = quartic_path_from_qt(0.0, Theta)
            assert path.q0 == 0.0
            assert path.position(1.3) == 0.0

    def test_modulus_and_scale(self):
        path = quartic_path_from_qt(1.0, 1.0)
        assert path.k == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-15)
        assert path.s == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_endpoint_composes_with_elliptic(self):
        path = quartic_path_from_qt(1.0, 1.0)
        _, cn, _ = jacobi_sn_cn_dn(math.sqrt(2.0) * 0.5, math.sqrt(3.0) / 2.0)
        assert path.q0 == pytest.approx(1.0 / cn, rel=1e-13)

    def test_boundary_conditions(self):
        for qt, Theta in QT_THETA_GRID:
            path = quartic_path_from_qt(qt, Theta)
            assert path.position(0.0) == pytest.approx(path.q0, rel=1e-12)
            assert path.position(Theta) == pytest.approx(path.q0, rel=1e-12)
            assert path.position(0.5 * Theta) == pytest.approx(qt, rel=1e-12)

    @pytest.mark.parametrize("qt,Theta", QT_THETA_GRID)
    def test_equation_of_motion(self, qt, Theta):
        path = quartic_path_from_qt(qt, Theta)
        for frac in (0.15, 0.35, 0.5, 0.62, 0.85):
            t = frac * Theta
            lhs = second_difference(path.position, t)
            q = path.position(t)
            rhs = q + q ** 3
            assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-8)

    @pytest.mark.parametrize("qt,Theta", QT_THETA_GRID)
    def test_energy_first_integral(self, qt, Theta):
        path = quartic_path_from_qt(qt, Theta)
        u_well = quartic_well()
        e_ref = -u_well.v(qt)
        for frac in (0.1, 0.3, 0.5, 0.8):
            t = frac * Theta
            q, v = path.position(t), path.velocity(t)
            assert 0.5 * v * v - u_well.v(q) == pytest.approx(e_ref, rel=1e-10, abs=1e-10)

    def test_small_qt_matches_harmonic_shape(self):
        qt, Theta = 1e-4, 2.0
        path = quartic_path_from_qt(qt, Theta)
        for t in (0.0, 0.4, 1.0, 1.7):
            harm = qt * math.cosh(t - 0.5 * Theta)
            assert path.position(t) == pytest.approx(harm, rel=1e-7)

    def test_turning_value_where_m1_underflows(self):
        # m1 = q_t^2 / 2 underflows to 0 below q_t ~ 3e-162, where K(k)
        # diverged; the k = 1 values give q0 = q_t cosh(u_T) to rounding
        for Theta in (1.0, 20.0, 700.0):
            path = quartic_path_from_qt(1e-170, Theta)
            assert path.m1 == 0.0
            assert path.q0 / (1e-170 * math.cosh(0.5 * Theta)) == pytest.approx(1.0, rel=1e-15)
        family = quartic_path_from_qt(np.array([1e-170, 1e-300]), np.array([1.0, 700.0]))
        assert family.q0[1] / (1e-300 * math.cosh(350.0)) == pytest.approx(1.0, rel=1e-15)
        # where q_t e^(u_T) passes 6e-8 the dropped O(m1) term would show
        for q_t in (1e-170, np.array([1e-300, 1e-170])):
            with pytest.raises(DomainError, match="q_t=1e-170, Theta=780.0: 1 - k"):
                quartic_path_from_qt(q_t, 780.0)

    def test_pole_error(self):
        # K(k(1)) = K(sqrt(3)/2) ~ 2.157, s = sqrt(2): pole at Theta ~ 3.05
        with pytest.raises(PoleError):
            quartic_path_from_qt(1.0, 3.2)

    def test_position_domain(self):
        path = quartic_path_from_qt(1.0, 1.0)
        with pytest.raises(DomainError):
            path.position(1.4)


class TestHalfPeriodValues:
    @staticmethod
    def _cases():
        for Theta in (0.1, 1.0, 2.0, 10.0):
            for qt in (0.0, 1e-7, 1.0, 0.999 * q_theta_max(Theta)):
                try:
                    yield quartic_path_from_qt(qt, Theta)
                except PoleError:
                    continue

    @staticmethod
    def _families():
        # k = 1 (m1 underflows to 0), the exact-m1 branch and the ladder
        for Theta in (0.1, 1.0, 2.0, 10.0):
            qt = np.array([1e-170, 1e-7, 1.0, 0.999 * q_theta_max(Theta)])
            yield quartic_path_from_qt(qt[qt < q_theta_max(Theta)], Theta)

    @pytest.fixture()
    def climbs(self, monkeypatch):
        # scalar kernel climbs, complete_K and jacobi_sn_cn_dn calls in paths
        counts = Counter()
        for name in ("_scalar_sn_cn_dn_eps_k", "complete_K", "jacobi_sn_cn_dn"):
            def counted(*args, _f=getattr(sct.paths, name), _name=name, **kwargs):
                counts[_name] += 1
                return _f(*args, **kwargs)
            monkeypatch.setattr(sct.paths, name, counted)
        return counts

    def test_lookup_equals_kernel_at_both_ends(self):
        paths = list(self._cases())
        # k = 1, the exact-m1 branch (m1 < 1e-12) and the AGM ladder
        m1s = [path.m1 for path in paths]
        assert min(m1s) == 0.0 and any(0.0 < m1 < 1e-12 for m1 in m1s)
        assert any(m1 > 1e-12 for m1 in m1s)
        for path in paths:
            for theta, u in ((0.0, -path.u_T), (path.Theta, path.u_T)):
                assert path.at(theta) == (u, *_scalar_sn_cn_dn_eps_k(u, path.m1)[:4])

    def test_family_lookup_equals_kernel_at_both_ends(self):
        families = list(self._families())
        m1 = np.concatenate([family.m1 for family in families])
        assert (m1 == 0.0).any() and ((0.0 < m1) & (m1 < 1e-12)).any()
        assert (m1 > 1e-12).any()
        for family in families:
            for theta, u in ((0.0, -family.u_T), (family.Theta, family.u_T)):
                got = family.at(theta)
                want = (u, *_sn_cn_dn_eps_k(u, family.m1)[:4])
                assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_lookup_calls_kernel_elsewhere(self, climbs):
        for path in self._cases():
            theta = 0.3 * path.Theta
            u = path.s * (theta - 0.5 * path.Theta)
            want = (u, *_scalar_sn_cn_dn_eps_k(u, path.m1)[:4])
            climbs.clear()
            assert path.at(theta) == want
            assert climbs["_scalar_sn_cn_dn_eps_k"] == 1

    def test_scalar_build_climbs_once(self, climbs):
        for qt in (0.0, 1e-170, 1e-7, 1.0):
            climbs.clear()
            quartic_path_from_qt(qt, 1.0)
            assert climbs == {"_scalar_sn_cn_dn_eps_k": 1}

    @pytest.mark.parametrize("builder", [canonical_longitudinal, canonical_transverse])
    def test_pair_climbs_once_inside_and_never_at_the_ends(self, climbs, builder):
        path = quartic_path_from_qt(1.0, 1.0)
        pair = builder(path)
        for f in (pair.fa, pair.fb, pair.fa_dot, pair.fb_dot):
            for theta, want in ((0.0, 0), (path.Theta, 0), (0.3, 1)):
                climbs.clear()
                f(theta)
                assert climbs["_scalar_sn_cn_dn_eps_k"] == want
                assert climbs["jacobi_sn_cn_dn"] == 0

    def test_position_climbs_once_inside_and_never_at_the_ends(self, climbs):
        path = quartic_path_from_qt(1.0, 1.0)
        for theta, want in ((0.0, 0), (path.Theta, 0), (0.3, 1)):
            climbs.clear()
            path.position(theta)
            assert climbs == ({"_scalar_sn_cn_dn_eps_k": 1} if want else {})

    def test_zero_dimensional_turning_value_builds_a_single_path(self, climbs):
        path, single = quartic_path_from_qt(np.array(0.5), 1.0), quartic_path_from_qt(0.5, 1.0)
        assert type(path.q_t) is float and path == single
        want = single.at(0.3)
        climbs.clear()
        assert path.at(0.3) == want
        assert climbs == {"_scalar_sn_cn_dn_eps_k": 1}
        rest = quartic_path_from_qt(np.array(0.0), 1.0)
        assert rest.at_rest and rest.position(0.3) == rest.velocity(0.3) == 0.0

    @staticmethod
    def _sweep(seed, n=40):
        # (path, times) draws: q_t from 1e-300 to 0.9999 of q_Theta (and 0),
        # Theta from 0.01 to 700; times at both ends (the path's own Theta,
        # a copy, an np.float64 and the int 0), the midpoint and at random
        rng = np.random.default_rng(seed)
        for Theta in (10.0 ** rng.uniform(-2.0, math.log10(700.0), n)).tolist():
            fracs = 10.0 ** rng.uniform(-300.0, math.log10(0.9999), 4)
            for q_t in [0.0, *(q_theta_max(Theta) * fracs).tolist()]:
                try:
                    path = quartic_path_from_qt(q_t, Theta)
                except DomainError:  # m1 underflows where the k = 1 values are not exact
                    continue
                ends = [path.Theta, float(repr(Theta)), np.float64(Theta), 0, 0.0]
                yield path, ends + [0.5 * Theta, *rng.uniform(0.0, Theta, 4).tolist()]

    def test_position_and_velocity_read_the_scalar_kernel(self):
        draws = 0
        for path, times in self._sweep(seed=7):
            for theta in times:
                if path.at_rest:
                    assert path.position(theta) == path.velocity(theta) == 0.0
                    continue
                u = path.s * (theta - 0.5 * path.Theta)
                sn, cn, dn = _scalar_sn_cn_dn_eps_k(u, path.m1)[:3]
                assert path.position(theta) == path.q_t / cn
                assert path.velocity(theta) == path.q_t * path.s * sn * dn / (cn * cn)
                draws += 1
        assert draws > 1000

    def test_family_position_and_velocity_read_the_array_kernel(self):
        for path, times in self._sweep(seed=8, n=10):
            if path.at_rest:
                continue
            family = quartic_path_from_qt(np.array([path.q_t, 0.5 * path.q_t]), path.Theta)
            for theta in times:
                u = family.s * (theta - 0.5 * family.Theta)
                sn, cn, dn = _sn_cn_dn_eps_k(u, family.m1)[:3]
                assert np.array_equal(family.position(theta), family.q_t / cn)
                assert np.array_equal(family.velocity(theta),
                                      family.q_t * family.s * sn * dn / (cn * cn))

    def test_lookup_raises_past_the_half_period(self):
        # a pair evaluated outside its window, at |u| >= K
        path = quartic_path_from_qt(0.999 * q_theta_max(1.0), 1.0)
        with pytest.raises(DomainError, match="outside the half period"):
            path.at(3.0)
        with pytest.raises(DomainError, match="outside the half period"):
            canonical_longitudinal(path).fb(3.0)


class TestPathFamily:
    QT = np.array([1e-9, 1e-4, 0.3, 1.0, 2.0])

    def test_fields_match_single_paths(self):
        family = quartic_path_from_qt(self.QT, 1.0)
        for i, qt in enumerate(self.QT):
            path = quartic_path_from_qt(float(qt), 1.0)
            for name in ("k", "s", "m1", "u_T", "q0", "sn_T", "cn_T", "dn_T", "eps_T"):
                assert getattr(family, name)[i] == pytest.approx(
                    getattr(path, name), rel=1e-14), name

    def test_closed_forms_and_pairs_work_elementwise(self):
        family = quartic_path_from_qt(self.QT, 0.5)
        action = quartic_action(family)
        lon = canonical_longitudinal(family)
        for i, qt in enumerate(self.QT):
            path = quartic_path_from_qt(float(qt), 0.5)
            assert action[i] == pytest.approx(quartic_action(path), rel=1e-9, abs=1e-30)
            pair = canonical_longitudinal(path)
            for theta in (0.0, 0.2, 0.5):
                assert lon.fb(theta)[i] == pytest.approx(pair.fb(theta), rel=1e-10)

    def test_pole_and_domain_errors(self):
        cap = q_theta_max(1.0)
        with pytest.raises(PoleError, match=f"q_t={1.01 * cap}"):
            quartic_path_from_qt(np.array([0.5 * cap, 1.01 * cap, 2.0 * cap]), 1.0)
        for bad in (0.0, -1.0, math.inf):
            with pytest.raises(DomainError):
                quartic_path_from_qt(np.array([0.5, bad]), 1.0)


class TestQThetaMax:
    def test_defining_residual(self):
        for Theta in (0.1, 0.5, 1.0, 2.0, 5.0):
            q = q_theta_max(Theta)
            s = math.sqrt(1.0 + q * q)
            k = math.sqrt((2.0 + q * q) / (2.0 + 2.0 * q * q))
            from sct.elliptic import complete_K
            assert 0.5 * s * Theta - complete_K(k) == pytest.approx(0.0, abs=1e-10)

    def test_monotone_decreasing_in_theta(self):
        qs = [q_theta_max(t) for t in (0.1, 0.5, 1.0, 2.0, 4.0)]
        assert all(b < a for a, b in zip(qs, qs[1:]))
        assert q_theta_max(0.1) > q_theta_max(1.0)

    def test_value_is_pole_free_up_to_large_theta(self):
        # a linear bisection capped at 200 steps once returned q_t past the
        # pole from Theta ~ 260 (at 300: 3.1e-61 against a root of 4.1e-65)
        for Theta in np.geomspace(0.01, 2000.0, 60):
            try:
                q = q_theta_max(float(Theta))
            except ConvergenceError:
                assert Theta > 740.0
                continue
            assert _pole_gap(q, float(Theta)) <= 0.0
            assert q == pytest.approx(4.0 * math.sqrt(2.0) * math.exp(-0.5 * Theta),
                                      rel=1e-2) or Theta < 20.0

    @pytest.mark.parametrize("Theta,expected", [
        (0.1, 37.07417130716567),
        (1.0, 3.6351253698206847),
        (10.0, 0.03803299265415916),
        (100.0, 1.0910656773662108e-21),
    ])
    def test_pinned_values(self, Theta, expected):
        assert q_theta_max(Theta) == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_kernel_calls_per_call(self, monkeypatch):
        # the octave search plus brentq, each q_t evaluated once
        calls = []
        complete_k = sct.paths.complete_K

        def counted(k, m1=None):
            calls.append(k)
            return complete_k(k, m1=m1)

        monkeypatch.setattr(sct.paths, "complete_K", counted)
        for Theta in np.geomspace(0.01, 740.0, 30):
            calls.clear()
            q_theta_max(float(Theta))
            assert len(calls) <= 15, Theta

    @pytest.mark.parametrize("Theta", [0.05, 28.0])
    def test_root_past_the_pole_is_stepped_down(self, monkeypatch, Theta):
        roots = []

        def recorded(*args, **kwargs):
            roots.append(brentq(*args, **kwargs))
            return roots[-1]

        monkeypatch.setattr(sct.paths, "brentq", recorded)
        q = q_theta_max(Theta)
        assert _pole_gap(roots[0], Theta) > 0.0
        assert _pole_gap(q, Theta) <= 0.0
        assert q == pytest.approx(roots[0], rel=3e-13)

    def test_still_past_the_pole_after_the_step_raises(self, monkeypatch):
        # a root at the octave's top: one step of the tolerance stays past it
        monkeypatch.setattr(sct.paths, "brentq", lambda f, a, b, **kwargs: b)
        with pytest.raises(ConvergenceError, match="past the pole"):
            q_theta_max(1.0)

    @pytest.mark.parametrize("Theta", [1e-155, 1e-160, 1e-300])
    def test_theta_where_q_t_squared_overflows(self, Theta):
        # the root ~3.7 / Theta: q_t^2 overflowed to a NaN modulus, and the
        # error named neither Theta nor the cause
        with pytest.raises(ConvergenceError,
                           match=f"Theta={Theta!r}.*q_t\\^2 overflows"):
            q_theta_max(Theta)

    def test_paths_below_are_pole_free(self):
        for Theta in (0.5, 2.0):
            q = q_theta_max(Theta)
            quartic_path_from_qt(0.999 * q, Theta)
            with pytest.raises(PoleError):
                quartic_path_from_qt(1.001 * q, Theta)


class TestInvertEndpoint:
    def test_zero(self):
        assert invert_endpoint(0.0, 1.0) == 0.0

    def test_round_trip(self):
        for Theta in (0.5, 1.0, 2.0):
            for qt in (0.1, 0.5, 1.0, 2.0, 3.0):
                try:
                    q0 = quartic_path_from_qt(qt, Theta).q0
                except PoleError:
                    continue
                assert invert_endpoint(q0, Theta) == pytest.approx(qt, rel=1e-9, abs=1e-12)

    def test_endpoint_residual(self):
        for q0 in (0.3, 1.0, 5.0, 40.0):
            qt = invert_endpoint(q0, 1.0)
            assert quartic_path_from_qt(qt, 1.0).q0 == pytest.approx(q0, abs=1e-10 * (1 + q0))

    @pytest.mark.parametrize("q0", [1e-20, 1e-100, 1e-140])
    def test_small_endpoint_to_full_precision(self, q0):
        # the bisection returned its first q_t within the absolute bound,
        # 8.3e-13 for every q0 below ~1e-12
        qt = invert_endpoint(q0, 1.0)
        assert quartic_path_from_qt(qt, 1.0).q0 == pytest.approx(q0, rel=1e-15, abs=0.0)

    def test_endpoint_below_the_resolved_paths(self):
        # the root lies where m1 = q_t^2 / 2 underflows; q_t = 0 meets the bound
        assert invert_endpoint(1e-300, 1.0) == 0.0

    def test_large_endpoint_approaches_cap(self):
        qt = invert_endpoint(100.0, 1.0)
        cap = q_theta_max(1.0)
        assert qt < cap
        assert qt > 0.95 * cap
        assert invert_endpoint(1000.0, 1.0) > qt

    def test_unreached_endpoint_raises(self):
        # past q0 ~ 1e4 at Theta = 1, one ulp of q_t moves q0 by more than
        # the 1e-12 (1 + q0) bound
        for q0 in (100.0, 1000.0):
            qt = invert_endpoint(q0, 1.0)
            assert abs(quartic_path_from_qt(qt, 1.0).q0 - q0) <= 1e-12 * (1.0 + q0)
        with pytest.raises(ConvergenceError, match="endpoint gap"):
            invert_endpoint(1e12, 1.0)

    def test_monotone_in_qt(self):
        q0s = [quartic_path_from_qt(qt, 1.0).q0 for qt in np.linspace(0.1, 2.0, 12)]
        assert all(b > a for a, b in zip(q0s, q0s[1:]))


class TestQuarticAction:
    def test_zero_path(self):
        assert quartic_action(quartic_path_from_qt(0.0, 1.0)) == 0.0

    def test_harmonic_limit(self):
        Theta = 2.0
        for qt in (1e-3, 1e-4):
            path = quartic_path_from_qt(qt, Theta)
            assert quartic_action(path) / (qt * qt) == pytest.approx(
                0.5 * math.sinh(Theta), rel=1e-5)

    @pytest.mark.parametrize("qt,Theta", QT_THETA_GRID + [(1.0, 1.0)])
    def test_matches_quadrature(self, qt, Theta):
        path = quartic_path_from_qt(qt, Theta)
        u_well = quartic_well()

        def integrand(t):
            q, v = path.position(t), path.velocity(t)
            return 0.5 * v * v + u_well.v(q)

        oracle, err = quad(integrand, 0.0, Theta, epsabs=1e-13, epsrel=1e-12, limit=300)
        assert quartic_action(path) == pytest.approx(oracle, rel=1e-8)


def operator_residual(pair: CanonicalPair, freq_sq, theta, h=1e-6):
    """|f'' - W f| for both members, f'' from the analytic first derivative."""
    out = []
    for f, fdot in ((pair.fa, pair.fa_dot), (pair.fb, pair.fb_dot)):
        second = (fdot(theta + h) - fdot(theta - h)) / (2 * h)
        w = freq_sq(theta)
        out.append(abs(second - w * f(theta)) / max(1.0, abs(w * f(theta))))
    return max(out)


class TestCanonicalPairs:
    def test_harmonic_pair(self):
        pair = harmonic_canonical_pair()
        assert pair.fb(0.0) == 0.0
        for t in np.linspace(-2, 2, 9):
            assert pair.wronskian(float(t)) == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("qt,Theta", [(0.5, 1.0), (1.0, 1.0), (1.0, 2.0), (2.0, 0.5)])
    def test_longitudinal_contract(self, qt, Theta):
        path = quartic_path_from_qt(qt, Theta)
        pair = canonical_longitudinal(path)
        assert pair.fb(0.0) == pytest.approx(0.0, abs=1e-12)
        for t in np.linspace(0.02 * Theta, 0.98 * Theta, 50):
            assert pair.wronskian(float(t)) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("qt,Theta", [(0.5, 1.0), (1.0, 1.0), (1.0, 2.0), (2.0, 0.5)])
    def test_longitudinal_solves_fluctuation_equation(self, qt, Theta):
        path = quartic_path_from_qt(qt, Theta)
        pair = canonical_longitudinal(path)
        u_well = quartic_well()
        freq = lambda t: u_well.d2v(path.position(t))
        for frac in (0.1, 0.33, 0.61, 0.9):
            assert operator_residual(pair, freq, frac * Theta) < 1e-8

    def test_longitudinal_fa_is_velocity(self):
        path = quartic_path_from_qt(1.0, 1.0)
        pair = canonical_longitudinal(path)
        h = 1e-6
        for t in (0.2, 0.5, 0.8):
            fd = (path.position(t + h) - path.position(t - h)) / (2 * h)
            assert pair.fa(t) == pytest.approx(fd, rel=1e-8)

    @pytest.mark.parametrize("qt,Theta", [(0.5, 1.0), (1.0, 1.0), (1.0, 2.0), (2.0, 0.5)])
    def test_transverse_contract(self, qt, Theta):
        path = quartic_path_from_qt(qt, Theta)
        pair = canonical_transverse(path)
        assert pair.fb(0.0) == pytest.approx(0.0, abs=1e-12)
        assert pair.fa(0.4 * Theta) == pytest.approx(path.position(0.4 * Theta), rel=1e-13)
        for t in np.linspace(0.02 * Theta, 0.98 * Theta, 50):
            assert pair.wronskian(float(t)) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("qt,Theta", [(0.5, 1.0), (1.0, 2.0), (2.0, 0.5)])
    def test_transverse_solves_fluctuation_equation(self, qt, Theta):
        path = quartic_path_from_qt(qt, Theta)
        pair = canonical_transverse(path)
        u_well = quartic_well()
        freq = lambda t: u_well.dv(path.position(t)) / path.position(t)
        for frac in (0.1, 0.33, 0.61, 0.9):
            assert operator_residual(pair, freq, frac * Theta) < 1e-8

    @pytest.mark.parametrize("Theta", [1.0, 300.0, 480.0, 700.0])
    @pytest.mark.parametrize("frac", [0.5, 1e-13])
    def test_longitudinal_fa_dot_is_the_force_at_the_ends(self, Theta, frac):
        # f_a' = d^2 q_c/dt^2 = U'(q0) at both ends; the form with nc^3
        # raised a bare OverflowError from Theta ~ 470
        path = quartic_path_from_qt(frac * q_theta_max(Theta), Theta)
        pair = canonical_longitudinal(path)
        q0 = path.q0
        for theta in (0.0, Theta):
            assert pair.fa_dot(theta) == pytest.approx(q0 + q0 ** 3, rel=1e-12)
            pair.wronskian(theta)  # f_b f_a' may overflow to inf, never raise

    def test_degenerate_at_zero_turning_value(self):
        path = quartic_path_from_qt(0.0, 1.0)
        with pytest.raises(DegenerateError):
            canonical_longitudinal(path)
        with pytest.raises(DegenerateError):
            canonical_transverse(path)

    def test_harmonic_degeneration(self):
        # q_t -> 0 limits of the canonical pairs, written with x = t - Theta/2:
        #   eta_a -> q_t sinh(x),  eta_b -> -(cosh x + sinh x coth(Th/2))/q_t
        #   phi_a -> q_t cosh(x),  phi_b -> (sinh x + cosh x tanh(Th/2))/q_t
        qt, Theta = 1e-4, 2.0
        path = quartic_path_from_qt(qt, Theta)
        lon = canonical_longitudinal(path)
        tra = canonical_transverse(path)
        for t in (0.3, 1.0, 1.6):
            x = t - 0.5 * Theta
            assert lon.fa(t) == pytest.approx(qt * math.sinh(x), rel=1e-6)
            assert lon.fb(t) == pytest.approx(
                -(math.cosh(x) + math.sinh(x) / math.tanh(0.5 * Theta)) / qt, rel=1e-6)
            assert tra.fa(t) == pytest.approx(qt * math.cosh(x), rel=1e-6)
            assert tra.fb(t) == pytest.approx(
                (math.sinh(x) + math.cosh(x) * math.tanh(0.5 * Theta)) / qt, rel=1e-6)


class TestShootingOracle:
    def test_harmonic_agreement(self):
        res = shoot_radial_path(harmonic_well(), 1.0, 2.0)
        assert res.residual <= 1e-9
        for t in np.linspace(0.0, 2.0, 17):
            assert res(float(t)) == pytest.approx(
                harmonic_trajectory(1.0, 2.0, float(t)), abs=1e-8)

    def test_quartic_agreement(self):
        qt = invert_endpoint(1.0, 1.0)
        path = quartic_path_from_qt(qt, 1.0)
        res = shoot_radial_path(quartic_well(), 1.0, 1.0)
        for t in np.linspace(0.0, 1.0, 17):
            assert res(float(t)) == pytest.approx(path.position(float(t)), abs=1e-7)

    def test_zero_start(self):
        res = shoot_radial_path(quartic_well(), 0.0, 1.0)
        assert np.all(res.r == 0.0)

    def test_initial_slope_matches_energy_conservation(self):
        # |v0| = sqrt(2 [U(q0) - U(q_t)])
        qt = invert_endpoint(1.0, 1.0)
        u_well = quartic_well()
        res = shoot_radial_path(quartic_well(), 1.0, 1.0)
        expected = -math.sqrt(2.0 * (u_well.v(1.0) - u_well.v(qt)))
        assert res.v0 == pytest.approx(expected, rel=1e-8)
