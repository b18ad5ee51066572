"""Tests for determinants, Green's functions, flow matrices and Wick moments."""

import math
import re
import types

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import sct.fluctuations
import sct.paths
from sct.errors import DegenerateError, DomainError, RouteMismatchError, SingularMatrixError
from sct.fluctuations import (
    FlowMatrices,
    RadialTrajectory,
    _det_longitudinal_closed,
    _det_transverse_closed,
    _dual_route_det,
    _guarded_inv,
    _omega,
    det_general,
    det_longitudinal,
    det_transverse,
    flow_matrices,
    green_central,
    green_general,
    green_table_central,
    green_table_general,
    jacobi_commutator,
    radial_trajectory,
    wick_moment,
)
from sct.paths import (
    CanonicalPair,
    RadialPotential,
    canonical_longitudinal,
    canonical_transverse,
    harmonic_canonical_pair,
    harmonic_well,
    q_theta_max,
    quartic_path_from_qt,
    quartic_well,
)

TWO_PI = 2.0 * math.pi

# all pole-free combinations of {0.5, 1, 2} x {0.5, 1, 2}
ADMISSIBLE = [(0.5, 0.5), (0.5, 1.0), (0.5, 2.0),
              (1.0, 0.5), (1.0, 1.0), (1.0, 2.0),
              (2.0, 0.5), (2.0, 1.0)]


class TestOmegaKernel:
    def test_diagonal_vanishes(self):
        pair = harmonic_canonical_pair()
        for t in (0.0, 0.7, 2.2):
            assert _omega(pair, t, t) == 0.0

    def test_harmonic_closed_form(self):
        pair = harmonic_canonical_pair()
        for t, tp in ((0.0, 1.0), (0.3, 2.0), (1.5, 0.2)):
            assert _omega(pair, t, tp) == pytest.approx(math.sinh(tp - t), rel=1e-13)

    def test_antisymmetry(self):
        path = quartic_path_from_qt(1.0, 1.0)
        pair = canonical_longitudinal(path)
        for t, tp in ((0.1, 0.8), (0.4, 0.9)):
            assert _omega(pair, t, tp) == pytest.approx(-_omega(pair, tp, t), rel=1e-10)

    def test_canonical_simplification(self):
        path = quartic_path_from_qt(1.0, 1.0)
        pair = canonical_longitudinal(path)
        assert _omega(pair, 0.0, 1.0) == pytest.approx(pair.fa(0.0) * pair.fb(1.0), rel=1e-11)

    def test_degenerate_pair(self):
        # a dependent "pair" gives Omega = 0 everywhere, so the Green's
        # function meets a zero mode; the kernel itself divides by nothing
        bad = CanonicalPair(math.cosh, lambda t: 2.0 * math.cosh(t),
                            math.sinh, lambda t: 2.0 * math.sinh(t))
        assert _omega(bad, 0.3, 0.9) == 0.0
        with pytest.raises(DegenerateError, match="zero mode"):
            green_central(bad, 1.0, 0.3, 0.9)

    def test_harmonic_pair_past_the_float_range(self):
        # cosh(t) sinh(t') is inf once t + t' passes ~710, and Omega was
        # inf - inf = NaN, as were the Green's function and 60 of the 64
        # table entries at Theta = 600, with no error
        pair = harmonic_canonical_pair()
        with pytest.raises(DomainError, match=r"^Omega overflows the float range "
                                              r"at theta=598\.0, theta'=599\.0$"):
            _omega(pair, 598.0, 599.0)
        with pytest.raises(DomainError, match="overflows the float range"):
            green_central(pair, 600.0, 598.0, 599.0)
        with pytest.raises(DomainError, match="overflows the float range"):
            green_table_central(pair, 600.0, 8)
        # below, Omega(t, t') = sinh(t' - t) stays finite
        assert _omega(pair, 0.0, 600.0) == math.sinh(600.0)
        assert green_central(pair, 600.0, 1.0, 2.0) == pytest.approx(
            math.sinh(1.0) * math.exp(-2.0), rel=1e-12)

    def test_non_finite_family_entry_is_named(self):
        # elementwise: the first non-finite entry and its times
        pair = CanonicalPair(lambda t: 1.0,
                             lambda t: np.array([1.0, math.inf, 10.0]) if np.ndim(t) else 0.0,
                             None, None)
        with pytest.raises(DomainError, match=r"^Omega overflows the float range "
                                              r"at theta=0\.0, theta'=3\.0$"):
            _omega(pair, 0.0, np.array([1.0, 3.0, 5.0]))

    def test_reads_only_the_pair_values(self):
        # unit Wronskian is the pair's contract: Omega computes no Wronskian
        # and never calls the derivative closures
        def refuse(theta):
            raise AssertionError("derivative closure called")

        path = quartic_path_from_qt(1.0, 1.0)
        for pair in (canonical_longitudinal(path), canonical_transverse(path)):
            bare = CanonicalPair(pair.fa, pair.fb, refuse, refuse)
            assert _omega(bare, 0.0, 1.0) == (
                pair.fa(0.0) * pair.fb(1.0) - pair.fa(1.0) * pair.fb(0.0))


class TestChannelDeterminants:
    def test_harmonic_value(self):
        # the closed forms carry the q_t = 0 limit, the harmonic oscillator,
        # and the dual route returns it; the canonical pairs degenerate there
        for Theta in (0.5, 1.0, 2.0, 3.0, 10.0):
            path = quartic_path_from_qt(0.0, Theta)
            for det in (_det_longitudinal_closed, _det_transverse_closed,
                        det_longitudinal, det_transverse):
                assert det(path) == TWO_PI * math.sinh(Theta)
            for builder in (canonical_longitudinal, canonical_transverse):
                with pytest.raises(DegenerateError):
                    builder(path)

    def test_harmonic_limit(self):
        path = quartic_path_from_qt(1e-4, 1.0)
        assert det_longitudinal(path) == pytest.approx(TWO_PI * math.sinh(1.0), rel=1e-6)
        assert det_transverse(path) == pytest.approx(TWO_PI * math.sinh(1.0), rel=1e-6)

    @pytest.mark.parametrize("qt,Theta", ADMISSIBLE)
    def test_dual_routes_agree(self, qt, Theta):
        # det_* raises RouteMismatchError internally if the closed form and
        # the canonical-pair evaluation split; also check explicitly.
        path = quartic_path_from_qt(qt, Theta)
        pair_l = canonical_longitudinal(path)
        pair_t = canonical_transverse(path)
        assert det_longitudinal(path) == pytest.approx(
            TWO_PI * pair_l.fa(0.0) * pair_l.fb(Theta), rel=1e-8)
        assert det_transverse(path) == pytest.approx(
            TWO_PI * pair_t.fa(0.0) * pair_t.fb(Theta), rel=1e-8)

    @pytest.mark.parametrize("Theta", [10.0, 20.0, 28.011])
    def test_pair_route_up_to_the_pole(self, Theta):
        # towards the nc pole at q_Theta the computed Wronskian of the
        # longitudinal pair drifts from 1 (2e-6 at 0.99 q_Theta, Theta = 10);
        # the determinant from the pair, divided by nothing, stays exact
        q_cap = q_theta_max(Theta)
        for frac in (0.3, 0.66, 0.86, 0.99, 0.999, 0.9999):
            path = quartic_path_from_qt(frac * q_cap, Theta)
            for closed, builder in ((_det_longitudinal_closed, canonical_longitudinal),
                                    (_det_transverse_closed, canonical_transverse)):
                via_pair = TWO_PI * _omega(builder(path), 0.0, Theta)
                assert via_pair == pytest.approx(closed(path), rel=1e-12)

    @pytest.mark.parametrize("qt,Theta", ADMISSIBLE)
    def test_positivity(self, qt, Theta):
        path = quartic_path_from_qt(qt, Theta)
        assert det_longitudinal(path) > 0.0
        assert det_transverse(path) > 0.0

    def test_anharmonicity_raises_determinants(self):
        base = TWO_PI * math.sinh(1.0)
        path = quartic_path_from_qt(1.0, 1.0)
        assert det_longitudinal(path) > base
        assert det_transverse(path) > base

    @pytest.mark.parametrize("inf", [math.inf, -math.inf])
    @pytest.mark.parametrize("shape", ["path", "family"])
    def test_route_check_refuses_an_infinite_closed_form(self, inf, shape):
        # |via_pair - inf| <= 1e-8 |inf| holds, so an inf closed form passed
        path = quartic_path_from_qt(0.7 if shape == "path" else np.array([0.5, 0.7, 0.9]), 1.3)
        closed = inf if shape == "path" else np.where(
            [False, True, False], inf, _det_transverse_closed(path))
        with pytest.raises(RouteMismatchError,
                           match=rf"closed form {inf!r} vs .* at q_t=0.7, Theta=1.3$"):
            _dual_route_det(path, closed, canonical_transverse, "det_transverse")

    @pytest.mark.parametrize("q_t", [1e140, np.array([1e140])])
    def test_pair_route_underflow_is_a_domain_error(self, q_t):
        # the longitudinal f_b(Theta) underflows to -0.0 while f_a(0) ~ 5e269,
        # so the pair route is 0.0 against a normal closed form: not a mismatch
        path = quartic_path_from_qt(q_t, 1e-150)
        with pytest.raises(DomainError, match=r"^det_longitudinal: the canonical-pair "
                           r"route underflows to 0\.0 against the closed form "
                           r"6\.28\d*e-150 at q_t=1e\+140, Theta=1e-150$"):
            det_longitudinal(path)
        assert det_transverse(path) == pytest.approx(TWO_PI * 1e-150, rel=1e-12)


class TestGreenCentral:
    def harmonic_green(self, t, tp, Theta):
        lo, hi = min(t, tp), max(t, tp)
        return math.sinh(lo) * math.sinh(Theta - hi) / math.sinh(Theta)

    @pytest.mark.parametrize("t,tp", [(-0.1, 0.5), (0.5, 2.5), (math.nan, 0.5)])
    def test_times_outside_the_window(self, t, tp):
        with pytest.raises(DomainError, match=r"times \(.*\) outside \[0, 2\.0\]"):
            green_central(harmonic_canonical_pair(), 2.0, t, tp)

    def test_harmonic_closed_form(self):
        Theta = 2.0
        pair = harmonic_canonical_pair()
        for t in (0.2, 0.9, 1.7):
            for tp in (0.5, 1.2):
                assert green_central(pair, Theta, t, tp) == pytest.approx(
                    self.harmonic_green(t, tp, Theta), rel=1e-12)

    def test_boundary_zeros(self):
        Theta = 1.0
        path = quartic_path_from_qt(1.0, Theta)
        for pair in (canonical_longitudinal(path), canonical_transverse(path),
                     harmonic_canonical_pair()):
            for tp in (0.2, 0.6):
                assert green_central(pair, Theta, 0.0, tp) == pytest.approx(0.0, abs=1e-12)
                assert green_central(pair, Theta, Theta, tp) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("qt,Theta", [(0.5, 1.0), (1.0, 2.0), (2.0, 0.5)])
    def test_symmetry(self, qt, Theta):
        path = quartic_path_from_qt(qt, Theta)
        for pair in (canonical_longitudinal(path), canonical_transverse(path)):
            for t in (0.15 * Theta, 0.4 * Theta, 0.8 * Theta):
                for tp in (0.3 * Theta, 0.7 * Theta):
                    assert green_central(pair, Theta, t, tp) == pytest.approx(
                        green_central(pair, Theta, tp, t), rel=1e-10)

    @pytest.mark.parametrize("qt,Theta", [(0.5, 1.0), (1.0, 2.0)])
    def test_derivative_jump(self, qt, Theta):
        path = quartic_path_from_qt(qt, Theta)
        h = 1e-4
        for pair in (canonical_longitudinal(path), canonical_transverse(path)):
            for tp in (0.3 * Theta, 0.6 * Theta):
                g = lambda t: green_central(pair, Theta, t, tp)
                right = (-3 * g(tp) + 4 * g(tp + h) - g(tp + 2 * h)) / (2 * h)
                left = (3 * g(tp) - 4 * g(tp - h) + g(tp - 2 * h)) / (2 * h)
                assert right - left == pytest.approx(-1.0, abs=1e-6)

    @pytest.mark.parametrize("qt,Theta", [(0.5, 1.0), (1.0, 2.0)])
    def test_operator_residual_off_diagonal(self, qt, Theta):
        path = quartic_path_from_qt(qt, Theta)
        u_well = quartic_well()
        cases = [
            (canonical_longitudinal(path), lambda t: u_well.d2v(path.position(t))),
            (canonical_transverse(path), lambda t: u_well.dv(path.position(t)) / path.position(t)),
        ]
        h = 1e-3
        for pair, freq in cases:
            for t, tp in ((0.25 * Theta, 0.75 * Theta), (0.6 * Theta, 0.2 * Theta)):
                g = lambda x: green_central(pair, Theta, x, tp)
                second = (-g(t - 2 * h) + 16 * g(t - h) - 30 * g(t)
                          + 16 * g(t + h) - g(t + 2 * h)) / (12 * h * h)
                resid = -second + freq(t) * g(t)
                assert resid == pytest.approx(0.0, abs=1e-6)


class TestFlowMatrices:
    def test_initial_conditions(self):
        flow = flow_matrices(harmonic_well(), radial_trajectory(lambda t: 1.0, 2), 1.0)
        a, adot, b, bdot = flow.at(0.0)
        np.testing.assert_allclose(a, np.eye(2), atol=1e-13)
        np.testing.assert_allclose(adot, np.zeros((2, 2)), atol=1e-13)
        np.testing.assert_allclose(b, np.zeros((2, 2)), atol=1e-13)
        np.testing.assert_allclose(bdot, np.eye(2), atol=1e-13)

    def test_free_particle(self):
        free = harmonic_well()
        free = free.__class__(lambda r: 0.0, lambda r: 0.0, lambda r: 0.0)
        flow = flow_matrices(free, radial_trajectory(lambda t: 0.3, 2), 1.5)
        for t in (0.4, 1.5):
            np.testing.assert_allclose(flow.at(t).A, np.eye(2), atol=1e-10)
            np.testing.assert_allclose(flow.at(t).B, t * np.eye(2), atol=1e-10)

    @pytest.mark.parametrize("D", [1, 2, 3])
    def test_harmonic_flow(self, D):
        traj = radial_trajectory(lambda t: harmonic_trajectory_ref(1.0, 2.0, t), D)
        flow = flow_matrices(harmonic_well(), traj, 2.0)
        for t in (0.5, 1.3, 2.0):
            np.testing.assert_allclose(flow.at(t).A, math.cosh(t) * np.eye(D), rtol=1e-9)
            np.testing.assert_allclose(flow.at(t).B, math.sinh(t) * np.eye(D), rtol=1e-9)

    def test_columns_solve_variational_equation(self, monkeypatch):
        # tight tolerances so the dense-output interpolant survives
        # second differencing at the 1e-7 residual level
        monkeypatch.setattr(sct.fluctuations, "_FLOW_TOL", 1e-12)
        Theta = 1.0
        path = quartic_path_from_qt(1.0, Theta)
        flow = flow_matrices(quartic_well(), radial_trajectory(path.position, 3), Theta)
        u_well = quartic_well()
        h = 1e-3
        for t in (0.3, 0.7):
            hess = u_well.hessian(np.array([path.position(t), 0.0, 0.0]))
            for block in (lambda s: flow.at(s).A, lambda s: flow.at(s).B):
                second = (-block(t - 2 * h) + 16 * block(t - h) - 30 * block(t)
                          + 16 * block(t + h) - block(t + 2 * h)) / (12 * h * h)
                rhs = hess @ block(t)
                resid = np.linalg.norm(second - rhs) / max(1.0, np.linalg.norm(rhs))
                assert resid < 1e-7

    def test_quartic_flow_block_diagonalizes(self):
        Theta = 1.0
        path = quartic_path_from_qt(1.0, Theta)
        flow = flow_matrices(quartic_well(), radial_trajectory(path.position, 3), Theta)
        for t in (0.4, 1.0):
            for mat in (flow.at(t).A, flow.at(t).B):
                off = mat - np.diag(np.diag(mat))
                np.testing.assert_allclose(off, np.zeros((3, 3)), atol=1e-9)
                # the two transverse channels are identical
                assert mat[1, 1] == pytest.approx(mat[2, 2], rel=1e-10)


    @pytest.mark.parametrize("D", [1, 2, 3, 5])
    @pytest.mark.parametrize("profile", ["quartic", "zero", "negative"])
    def test_row_scaling_equals_the_dense_hessian_flow(self, D, profile):
        # the production right-hand side against the dense Hess V(x) @ X,
        # integrated with the same settings: same steps, same bits
        Theta = 1.3
        path = quartic_path_from_qt(1.0, Theta)
        position = {"quartic": path.position,
                    "zero": lambda t: 0.0,
                    "negative": lambda t: -path.position(t)}[profile]
        well = quartic_well()
        traj = radial_trajectory(position, D)
        n = D * D

        def dense_rhs(t, y):
            hess = well.hessian(traj(t))
            a = y[0:n].reshape(D, D)
            b = y[2 * n:3 * n].reshape(D, D)
            return np.concatenate([y[n:2 * n], (hess @ a).ravel(),
                                   y[3 * n:4 * n], (hess @ b).ravel()])

        eye = np.eye(D).ravel()
        y0 = np.concatenate([eye, np.zeros(2 * n), eye])
        want = solve_ivp(dense_rhs, (0.0, Theta), y0, method="DOP853",
                         dense_output=True, rtol=1e-10, atol=1e-10)
        got = flow_matrices(well, traj, Theta)._sol
        assert got.nfev == want.nfev
        assert np.array_equal(got.t, want.t)
        assert np.array_equal(got.y, want.y)

    @pytest.mark.parametrize("Theta", [math.nan, math.inf, -1.0, 0.0])
    def test_theta_must_be_positive_and_finite(self, Theta, deadline):
        with pytest.raises(DomainError, match="Theta"):
            flow_matrices(quartic_well(), radial_trajectory(lambda t: 0.3, 2), Theta)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_trajectory_is_a_domain_error(self, bad, deadline):
        # a non-finite profile once fed NaN steps to solve_ivp, which kept
        # shrinking its step without end or gave up with ConvergenceError
        for profile in (lambda t: bad, lambda t: bad if t > 0.5 else 0.3):
            with pytest.raises(DomainError, match=r"not finite at t="):
                flow_matrices(quartic_well(), radial_trajectory(profile, 2), 1.0)

    @pytest.mark.parametrize("D", [1, 3])
    def test_quartic_flow_climbs_once_per_evaluation(self, D, monkeypatch):
        # position costs one scalar kernel climb per right-hand-side
        # evaluation, except those at t = 0.0 and at Theta's value (the
        # first, and those of the last step), which read the path's own values
        Theta = 1.3
        path = quartic_path_from_qt(1.0, Theta)
        climbs, times = [], []
        kernel = sct.paths._scalar_sn_cn_dn_eps_k
        monkeypatch.setattr(sct.paths, "_scalar_sn_cn_dn_eps_k",
                            lambda u, m1: climbs.append(u) or kernel(u, m1))
        traj = radial_trajectory(lambda t: times.append(t) or path.position(t), D)
        flow = flow_matrices(quartic_well(), traj, Theta)
        assert len(times) == flow._sol.nfev
        assert times[0] == 0.0 and Theta in times
        assert len(climbs) == sum(t != 0.0 and t != Theta for t in times)

    @pytest.mark.parametrize("D, Theta", [(3, 720.0), (1, 1000.0)])
    def test_harmonic_flow_past_the_float_range(self, D, Theta):
        # cosh(Theta) passes the float range from Theta ~ 710.5: scipy's
        # step overflowed (a RuntimeWarning, then ConvergenceError)
        traj = radial_trajectory(lambda t: 1.0, D)
        with pytest.raises(DomainError, match=rf"Theta={Theta!r}, D={D}: the "
                                              r"variational flow leaves the float range"):
            flow_matrices(harmonic_well(), traj, Theta)

    def test_quartic_flow_past_the_float_range(self):
        path = quartic_path_from_qt(1e-200, 720.0)
        with pytest.raises(DomainError, match=r"Theta=720.0, D=1: the variational flow"):
            flow_matrices(quartic_well(), radial_trajectory(path.position, 1), 720.0)

    @pytest.mark.parametrize("bad", [5.0, -1.0, math.nan, math.inf, -1e-300,
                                     math.nextafter(1.0, 2.0)])
    def test_at_refuses_a_time_outside_the_flow(self, bad):
        # the dense output extrapolates: at(5.0).A[0, 0] read 361756.9
        flow = flow_matrices(harmonic_well(), radial_trajectory(lambda t: 1.0, 2), 1.0)
        match = rf"time {re.escape(repr(bad))} outside \[0, 1.0\]"
        with pytest.raises(DomainError, match=match):
            flow.at(bad)
        with pytest.raises(DomainError, match=match):
            flow.at(np.array([0.0, 0.5, bad, 1.0]))
        with pytest.raises(DomainError, match=match):
            jacobi_commutator(flow, bad, 0.5)
        with pytest.raises(DomainError, match=match):
            jacobi_commutator(flow, 0.5, bad)
        for t, tp in ((bad, 0.5), (0.5, bad)):
            with pytest.raises(DomainError, match=match):
                green_general(flow, t, tp)
        grid = np.linspace(0.0, 1.0, 7)
        assert flow.at(grid).A.shape == (7, 2, 2)
        for t in (0.0, 1.0, *grid.tolist()):
            assert flow.at(t).A.shape == (2, 2)

    @pytest.mark.parametrize("D", [0, -1, 2.0, "2", None])
    def test_radial_trajectory_dimension(self, D):
        with pytest.raises(DomainError, match="dimension"):
            radial_trajectory(lambda t: 0.3, D)

    def test_radial_trajectory_is_r_e1(self):
        traj = radial_trajectory(lambda t: 2.0 * t, 3)
        assert isinstance(traj, RadialTrajectory) and traj.D == 3
        assert np.array_equal(traj(0.25), [0.5, 0.0, 0.0])

def synthetic_flow(D, Theta, seed):
    """FlowMatrices over polynomial blocks A = 1 + t M1 + t^2 M3 and
    B = t + t^2 M2 with random M_k: not a true variational flow, so the
    matrices a Green's table inverts are all independent."""
    m1, m2, m3 = np.random.default_rng(seed).standard_normal((3, D, D))
    eye = np.eye(D)

    def sol(t):
        t = np.asarray(t, dtype=float)
        sq = t * t
        y = np.stack([
            eye + np.multiply.outer(t, m1) + np.multiply.outer(sq, m3),
            m1 + np.multiply.outer(2.0 * t, m3),
            np.multiply.outer(t, eye) + np.multiply.outer(sq, m2),
            eye + np.multiply.outer(2.0 * t, m2),
        ], axis=-3)
        return np.moveaxis(y.reshape(t.shape + (4 * D * D,)), -1, 0)

    return FlowMatrices(D=D, Theta=Theta, _sol=types.SimpleNamespace(sol=sol))


def harmonic_trajectory_ref(r0, Theta, t):
    return r0 * math.cosh(t - 0.5 * Theta) / math.cosh(0.5 * Theta)


class TestJacobiCommutator:
    @pytest.fixture()
    def harmonic_flow(self):
        traj = radial_trajectory(lambda t: harmonic_trajectory_ref(1.0, 2.0, t), 2)
        return flow_matrices(harmonic_well(), traj, 2.0)

    def test_vanishes_at_coincidence(self, harmonic_flow):
        for tp in (0.4, 1.1):
            np.testing.assert_allclose(jacobi_commutator(harmonic_flow, tp, tp),
                                       np.zeros((2, 2)), atol=1e-10)

    def test_harmonic_closed_form(self, harmonic_flow):
        for t, tp in ((0.2, 0.9), (1.5, 0.4), (2.0, 1.0)):
            np.testing.assert_allclose(jacobi_commutator(harmonic_flow, t, tp),
                                       -math.sinh(t - tp) * np.eye(2), atol=1e-9)

    def test_zero_limit_form(self, harmonic_flow):
        np.testing.assert_allclose(jacobi_commutator(harmonic_flow, 1.3, 0.0),
                                   -math.sinh(1.3) * np.eye(2), atol=1e-9)

    def test_derivative_at_coincidence(self, harmonic_flow):
        h = 1e-5
        for tp in (0.5, 1.4):
            deriv = (jacobi_commutator(harmonic_flow, tp + h, tp)
                     - jacobi_commutator(harmonic_flow, tp - h, tp)) / (2 * h)
            np.testing.assert_allclose(deriv, -np.eye(2), atol=1e-7)

    def test_singular_gate(self):
        with pytest.raises(SingularMatrixError):
            _guarded_inv(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]), "test")


class TestGreenGeneral:
    def test_harmonic_reduces_to_sinh_product(self):
        Theta = 2.0
        traj = radial_trajectory(lambda t: harmonic_trajectory_ref(1.0, Theta, t), 1)
        flow = flow_matrices(harmonic_well(), traj, Theta)
        for t, tp in ((0.3, 1.2), (1.7, 0.6), (1.0, 1.0)):
            lo, hi = min(t, tp), max(t, tp)
            ref = math.sinh(lo) * math.sinh(Theta - hi) / math.sinh(Theta)
            got = green_general(flow, t, tp)
            assert got[0, 0] == pytest.approx(ref, abs=1e-8)

    def test_boundary_zeros(self):
        Theta = 1.0
        path = quartic_path_from_qt(1.0, Theta)
        flow = flow_matrices(quartic_well(), radial_trajectory(path.position, 2), Theta)
        for tp in (0.3, 0.8):
            np.testing.assert_allclose(green_general(flow, 0.0, tp),
                                       np.zeros((2, 2)), atol=1e-9)
            np.testing.assert_allclose(green_general(flow, Theta, tp),
                                       np.zeros((2, 2)), atol=1e-9)

    def test_matches_central_channels(self):
        Theta = 1.0
        path = quartic_path_from_qt(1.0, Theta)
        flow = flow_matrices(quartic_well(), radial_trajectory(path.position, 2), Theta)
        pair_l = canonical_longitudinal(path)
        pair_t = canonical_transverse(path)
        for t, tp in ((0.2, 0.7), (0.6, 0.35), (0.5, 0.5)):
            g = green_general(flow, t, tp)
            assert g[0, 0] == pytest.approx(green_central(pair_l, Theta, t, tp), abs=1e-6)
            assert g[1, 1] == pytest.approx(green_central(pair_t, Theta, t, tp), abs=1e-6)
            assert abs(g[0, 1]) < 1e-8 and abs(g[1, 0]) < 1e-8

    def test_continuity_and_jump_identities(self):
        # continuity at coincidence and unit derivative discontinuity
        Theta = 1.0
        path = quartic_path_from_qt(0.5, Theta)
        flow = flow_matrices(quartic_well(), radial_trajectory(path.position, 2), Theta)
        h = 1e-4
        for tp in (0.35, 0.6):
            above = green_general(flow, tp + 1e-9, tp)
            below = green_general(flow, tp - 1e-9, tp)
            np.testing.assert_allclose(above, below, atol=1e-7)
            right = (-3 * green_general(flow, tp, tp) + 4 * green_general(flow, tp + h, tp)
                     - green_general(flow, tp + 2 * h, tp)) / (2 * h)
            left = (3 * green_general(flow, tp, tp) - 4 * green_general(flow, tp - h, tp)
                    + green_general(flow, tp - 2 * h, tp)) / (2 * h)
            np.testing.assert_allclose(right - left, -np.eye(2), atol=1e-6)

    def test_commutator_reconstruction_identity(self):
        # J(t,0) M(0,Th) J(Th,t') + J(t,Th) M(Th,0) J(0,t') = -J(t,t')
        Theta = 1.0
        path = quartic_path_from_qt(1.0, Theta)
        flow = flow_matrices(quartic_well(), radial_trajectory(path.position, 2), Theta)
        m_0t = -np.linalg.inv(jacobi_commutator(flow, Theta, 0.0))
        m_t0 = -np.linalg.inv(jacobi_commutator(flow, 0.0, Theta))
        for t in (0.2, 0.55, 0.9):
            for tp in (0.3, 0.7):
                lhs = (jacobi_commutator(flow, t, 0.0) @ m_0t
                       @ jacobi_commutator(flow, Theta, tp)
                       + jacobi_commutator(flow, t, Theta) @ m_t0
                       @ jacobi_commutator(flow, 0.0, tp))
                np.testing.assert_allclose(lhs, -jacobi_commutator(flow, t, tp), atol=1e-7)


class TestDetGeneral:
    def test_harmonic_three_dimensions(self):
        Theta = 1.0
        traj = radial_trajectory(lambda t: harmonic_trajectory_ref(1.0, Theta, t), 3)
        flow = flow_matrices(harmonic_well(), traj, Theta)
        assert det_general(flow) == pytest.approx((TWO_PI * math.sinh(Theta)) ** 3, rel=1e-8)

    def test_reduces_to_longitudinal_in_one_dimension(self):
        Theta = 1.0
        path = quartic_path_from_qt(1.0, Theta)
        flow = flow_matrices(quartic_well(), radial_trajectory(path.position, 1), Theta)
        assert det_general(flow) == pytest.approx(det_longitudinal(path), rel=1e-6)

    def test_quartic_cross_route(self):
        Theta = 1.0
        path = quartic_path_from_qt(1.0, Theta)
        flow = flow_matrices(quartic_well(), radial_trajectory(path.position, 2), Theta)
        assert det_general(flow) == pytest.approx(
            det_longitudinal(path) * det_transverse(path), rel=1e-6)

    @pytest.mark.parametrize("D, Theta", [(3, 300.0), (2, 400.0)])
    def test_harmonic_determinant_past_the_float_range(self, D, Theta):
        # (2 pi sinh Theta)^D ~ 2e392 at (3, 300): np.linalg.det overflowed
        # with a RuntimeWarning and det_general returned inf
        traj = radial_trajectory(lambda t: 1.0, D)
        flow = flow_matrices(harmonic_well(), traj, Theta)
        with pytest.raises(DomainError, match=rf"Theta={Theta!r}, D={D}: the "
                                              r"determinant .* overflows the float range"):
            det_general(flow)

    def test_two_pi_to_the_d_past_the_float_range(self):
        # (2 pi)^400 ~ e^735 raised a bare OverflowError.  Synthetic blocks,
        # seed 1: det B(Theta) > 0 at both Theta, with (2 pi)^D det B
        # ~ e^633 at Theta = 0.25 and ~ e^775 at Theta = 0.3
        D = 400
        flow = synthetic_flow(D, 0.25, seed=1)
        det_b = np.linalg.det(flow.at(0.25).B)
        assert det_general(flow) == pytest.approx(
            TWO_PI ** (D // 2) * det_b * TWO_PI ** (D // 2), rel=1e-12)
        with pytest.raises(DomainError, match=r"Theta=0.3, D=400: the determinant"):
            det_general(synthetic_flow(D, 0.3, seed=1))

    def test_conjugate_point_is_a_singular_matrix_error(self):
        # the inverted well -r^2/2 along r = 0.3 at D = 1: B(Theta) = sin Theta,
        # negative at Theta = 4, so det[-J(Theta, 0)] = sin 4 < 0
        pot = RadialPotential(lambda r: -0.5 * r * r, lambda r: -r, lambda r: -1.0)
        flow = flow_matrices(pot, radial_trajectory(lambda t: 0.3, 1), 4.0)
        assert np.linalg.det(flow.at(4.0).B) == pytest.approx(math.sin(4.0), rel=1e-6)
        with pytest.raises(SingularMatrixError,
                           match=r"det\[-J\(Theta, 0\)\] = -0\.7568.* is not positive: "
                                 r"conjugate point"):
            det_general(flow)


class TestGeneralRoutePins:
    """det_general, the 4-leg Wick moment on an 8-node table and the
    flow's right-hand-side count at the benchmark's three gate cases: a
    change that moves the flow's bits or steps shows here."""

    @pytest.mark.parametrize("q_t, Theta, D, det, wick4, nfev", [
        (0.5, 1.0, 1, 8.346298887783266, 0.039279599016869664, 107),
        (1.0, 0.5, 2, 12.641472304953108, 0.0031336428273863828, 77),
        (2.0, 1.0, 3, 12344.886070979688, 0.0025471472839848014, 287),
    ])
    def test_gate_cases(self, q_t, Theta, D, det, wick4, nfev):
        path = quartic_path_from_qt(q_t, Theta)
        flow = flow_matrices(quartic_well(), radial_trajectory(path.position, D), Theta)
        assert flow._sol.nfev == nfev
        assert det_general(flow) == pytest.approx(det, rel=1e-14)
        table = green_table_general(flow, n=8)
        legs = [(c, float(table.grid[j]))
                for c, j in ((0, 2), (D - 1, 3), (0, 4), (D - 1, 5))]
        assert wick_moment(table, legs) == pytest.approx(wick4, rel=1e-14)


class TestWickMoments:
    @pytest.fixture()
    def table(self):
        return green_table_central(harmonic_canonical_pair(), 2.0, n=33)

    def test_odd_moments_vanish(self, table):
        assert wick_moment(table, [(0, 0.5)]) == 0.0
        assert wick_moment(table, [(0, 0.5), (0, 0.7), (0, 1.1)]) == 0.0

    @pytest.mark.parametrize("k", [1, 3])
    def test_odd_moments_validate_their_legs(self, table, k):
        # an odd number of legs returned 0.0 before any leg was checked
        with pytest.raises(DomainError, match="leg time 99.0"):
            wick_moment(table, [(0, 0.5)] * (k - 1) + [(0, 99.0)])
        path = quartic_path_from_qt(1.0, 1.0)
        flow = flow_matrices(quartic_well(), radial_trajectory(path.position, 2), 1.0)
        matrix = green_table_general(flow, n=4)
        t = float(matrix.grid[1])
        with pytest.raises(DomainError, match=r"leg channel=5 "):
            wick_moment(matrix, [(5, t)] * k)

    def test_each_pair_of_legs_reads_one_entry(self, table, monkeypatch):
        # 15 pairs of 6 legs, once each (the recursion read 35)
        calls = []
        read = type(table).eval
        monkeypatch.setattr(type(table), "eval",
                            lambda self, t, tp: calls.append((t, tp)) or read(self, t, tp))
        wick_moment(table, [(0, 0.8)] * 6)
        assert len(calls) == 15

    def test_two_point(self, table):
        got = wick_moment(table, [(0, 0.4), (0, 1.3)])
        ref = green_central(harmonic_canonical_pair(), 2.0, 0.4, 1.3)
        assert got == pytest.approx(ref, rel=1e-12)

    def test_four_point_equal_times(self, table):
        t = 0.8
        g = green_central(harmonic_canonical_pair(), 2.0, t, t)
        assert wick_moment(table, [(0, t)] * 4) == pytest.approx(3.0 * g * g, rel=1e-12)

    def test_six_point_equal_times_counts_pairings(self, table):
        t = 0.8
        g = green_central(harmonic_canonical_pair(), 2.0, t, t)
        assert wick_moment(table, [(0, t)] * 6) == pytest.approx(15.0 * g ** 3, rel=1e-12)

    def test_orthogonal_channels(self, table):
        # distinct channel indices on a scalar (diagonal) table do not pair
        assert wick_moment(table, [(0, 0.4), (1, 0.4)]) == 0.0

    def test_empty_moment(self, table):
        assert wick_moment(table, []) == 1.0

    def test_against_gaussian_quadrature_toy(self):
        # two coupled modes with action u^T M u / 2: moments from Wick over
        # G = M^-1 must match Gauss-Hermite quadrature of the raw integral
        m_mat = np.array([[2.0, 0.6], [0.6, 1.5]])
        g_mat = np.linalg.inv(m_mat)
        grid = np.array([0.0, 1.0])

        table = GreenTableToy(grid, g_mat)
        nodes, weights = np.polynomial.hermite_e.hermegauss(40)
        lam, vec = np.linalg.eigh(m_mat)
        # u = V diag(1/sqrt(lam)) w turns the weight into standard normals
        scale = vec @ np.diag(1.0 / np.sqrt(lam))

        def moment_quad(powers):
            total = 0.0
            norm = 0.0
            for i, wi in enumerate(weights):
                for j, wj in enumerate(weights):
                    u = scale @ np.array([nodes[i], nodes[j]])
                    w = wi * wj
                    norm += w
                    total += w * (u[0] ** powers[0]) * (u[1] ** powers[1])
            return total / norm

        legs22 = [(0, 0.0), (0, 0.0), (0, 1.0), (0, 1.0)]
        assert wick_moment(table, legs22) == pytest.approx(moment_quad((2, 2)), rel=1e-10)
        legs40 = [(0, 0.0)] * 4
        assert wick_moment(table, legs40) == pytest.approx(moment_quad((4, 0)), rel=1e-10)

    def test_time_domain_validation(self, table):
        with pytest.raises(DomainError):
            wick_moment(table, [(0, 0.4), (0, 2.5)])

    @pytest.mark.parametrize("channel", [-1, 2, 5, 0.5, True])
    def test_matrix_table_channel_validation(self, channel):
        # channel -1 once read channel D - 1, 5 raised a bare IndexError and
        # True a bare TypeError
        path = quartic_path_from_qt(1.0, 1.0)
        flow = flow_matrices(quartic_well(), radial_trajectory(path.position, 2), 1.0)
        table = green_table_general(flow, n=4)
        t1, t2 = float(table.grid[1]), float(table.grid[2])
        assert wick_moment(table, [(1, t1), (1, t2)]) == table.values[1, 2, 1, 1]
        with pytest.raises(DomainError, match="channel"):
            wick_moment(table, [(channel, t1), (channel, t2)])


class GreenTableToy:
    """Minimal GreenTable stand-in: two 'times' indexing a 2x2 covariance."""

    def __init__(self, grid, cov):
        self.Theta = float(grid[-1])
        self.grid = grid
        self.cov = cov
        self.values = cov  # G at the two nodes: a scalar table

    def eval(self, t, tp):
        i = int(round(t))
        j = int(round(tp))
        return self.cov[i, j]


class TestGreenTables:
    def test_negative_size_is_a_domain_error(self):
        path = quartic_path_from_qt(1.0, 1.0)
        flow = flow_matrices(quartic_well(), radial_trajectory(path.position, 2), 1.0)
        with pytest.raises(DomainError, match="n=-1"):
            green_table_central(harmonic_canonical_pair(), 1.0, n=-1)
        with pytest.raises(DomainError, match="n=-1"):
            green_table_general(flow, n=-1)

    @pytest.mark.parametrize("n", [2.5, "3", True, None])
    def test_size_must_be_an_integer(self, n):
        # 2.5 and "3" raised a bare TypeError, and True built a one-node table
        path = quartic_path_from_qt(1.0, 1.0)
        flow = flow_matrices(quartic_well(), radial_trajectory(path.position, 2), 1.0)
        with pytest.raises(DomainError, match=f"table size n={n!r}"):
            green_table_central(harmonic_canonical_pair(), 1.0, n=n)
        with pytest.raises(DomainError, match=f"table size n={n!r}"):
            green_table_general(flow, n=n)

    def test_central_table_grid_matches_evaluator(self):
        pair = harmonic_canonical_pair()
        table = green_table_central(pair, 2.0, n=17)
        for i in (0, 5, 12):
            for j in (3, 9):
                t, tp = float(table.grid[i]), float(table.grid[j])
                assert table.eval(t, tp) == pytest.approx(
                    green_central(pair, 2.0, t, tp), rel=1e-13)
        # off-grid queries fall through to the exact evaluator
        assert table.eval(0.111, 0.384) == pytest.approx(
            green_central(pair, 2.0, 0.111, 0.384), rel=1e-13)

    def test_general_table_shapes(self):
        Theta = 1.0
        path = quartic_path_from_qt(1.0, Theta)
        flow = flow_matrices(quartic_well(), radial_trajectory(path.position, 2), Theta)
        table = green_table_general(flow, n=9)
        assert table.values.shape == (9, 9, 2, 2)
        got = table.eval(float(table.grid[2]), float(table.grid[6]))
        np.testing.assert_allclose(
            got, green_general(flow, float(table.grid[2]), float(table.grid[6])),
            atol=1e-12)

    @pytest.mark.parametrize("D", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 9])
    def test_general_table_equals_pointwise(self, D, n):
        Theta = 1.3
        path = quartic_path_from_qt(1.0, Theta)
        flow = flow_matrices(quartic_well(), radial_trajectory(path.position, D), Theta)
        table = green_table_general(flow, n=n)
        assert table.values.shape == (n, n, D, D)
        grid = table.grid.tolist()
        for i, t in enumerate(grid):
            for j, tp in enumerate(grid):
                assert np.array_equal(table.values[i, j], green_general(flow, t, tp))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 9])
    def test_central_table_equals_pointwise(self, n):
        Theta = 1.3
        path = quartic_path_from_qt(1.0, Theta)
        for pair in (canonical_longitudinal(path), canonical_transverse(path),
                     harmonic_canonical_pair()):
            table = green_table_central(pair, Theta, n=n)
            assert table.values.shape == (n, n)
            grid = table.grid.tolist()
            for i, t in enumerate(grid):
                for j, tp in enumerate(grid):
                    assert table.values[i, j] == green_central(pair, Theta, t, tp)

    @staticmethod
    def pointwise_raises(flow, n):
        grid = np.linspace(0.0, flow.Theta, n).tolist()
        try:
            for t in grid:
                for tp in grid:
                    green_general(flow, t, tp)
        except SingularMatrixError:
            return True
        return False

    @staticmethod
    def table_raises(flow, n):
        try:
            green_table_general(flow, n=n)
        except SingularMatrixError:
            return True
        return False

    def test_general_table_raises_at_a_conjugate_point_node(self, monkeypatch):
        # longitudinal channel x'' = -4 x: A(t) = cos 2t is singular at
        # pi/4, the node t_2 of a 4-node grid on [0, 3 pi / 8]; B(Theta) and
        # so J(Theta, 0) are regular, and coarser grids miss the node
        monkeypatch.setattr(sct.fluctuations, "_FLOW_TOL", 1e-13)
        pot = RadialPotential(lambda r: 0.5 * r * r, lambda r: r, lambda r: -4.0)
        flow = flow_matrices(pot, radial_trajectory(lambda t: 1.0, 2), 0.375 * math.pi)
        for n, expected in ((1, False), (2, False), (4, True)):
            assert self.pointwise_raises(flow, n) is expected
            assert self.table_raises(flow, n) is expected
        with pytest.raises(SingularMatrixError, match=r"A\(theta'\)"):
            green_table_general(flow, n=4)

    @pytest.mark.parametrize("build", ["quartic", "synthetic"])
    def test_general_table_gates_the_pointwise_set(self, build, monkeypatch):
        # the gate set to each condition number that entries evaluated one
        # by one compute, and just below it: the table refuses exactly
        # where some entry would.  On a true flow J(0, Theta) = -J(Theta,
        # 0)^T; the synthetic blocks (seed 3) give J(0, Theta) a condition
        # number of 655, above every other matrix of the n = 2 table.
        if build == "quartic":
            path = quartic_path_from_qt(2.0, 1.0)
            flow = flow_matrices(quartic_well(),
                                 radial_trajectory(path.position, 3), 1.0)
        else:
            flow = synthetic_flow(3, 1.0, seed=3)
        seen = []
        cond = np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond",
                            lambda m: seen.append(float(cond(m))) or cond(m))
        for n in (1, 2, 5):
            assert not self.pointwise_raises(flow, n)
        monkeypatch.setattr(np.linalg, "cond", cond)
        outcomes = set()
        for c in sorted(set(seen)):
            for limit in (c, np.nextafter(c, 0.0)):
                monkeypatch.setattr(sct.fluctuations, "_COND_LIMIT", limit)
                for n in (1, 2, 5):
                    expected = self.pointwise_raises(flow, n)
                    assert self.table_raises(flow, n) is expected, (limit, n)
                    outcomes.add((n, expected))
        assert outcomes == {(n, x) for n in (1, 2, 5) for x in (True, False)}

    def test_central_table_raises_at_a_zero_mode(self):
        # (cos, sin) has Omega(0, pi) = sin(pi) ~ 1e-16: a zero mode
        pair = CanonicalPair(math.cos, math.sin,
                             lambda t: -math.sin(t), math.cos)
        for n in (1, 2, 5):
            with pytest.raises(DegenerateError):
                green_central(pair, math.pi, 0.0, 0.0)
            with pytest.raises(DegenerateError):
                green_table_central(pair, math.pi, n=n)
        assert green_table_central(pair, math.pi, n=0).values.shape == (0, 0)

    def test_general_table_makes_one_dense_evaluation(self, monkeypatch):
        Theta = 1.0
        path = quartic_path_from_qt(1.0, Theta)
        flow = flow_matrices(quartic_well(), radial_trajectory(path.position, 2), Theta)
        calls = []
        sol = flow._sol.sol

        def counted(t):
            calls.append(np.size(t))
            return sol(t)

        monkeypatch.setattr(flow._sol, "sol", counted)
        for n in (1, 2, 9, 64):
            calls.clear()
            green_table_general(flow, n=n)
            assert len(calls) == 1
            # the grid ends at Theta from n = 2; the lone node 0 needs it added
            assert calls[0] == (2 if n == 1 else n)
        # off the grid: one evaluation per distinct time (Theta, t, t' and,
        # below the diagonal, 0)
        calls.clear()
        green_general(flow, 0.2, 0.7)
        assert len(calls) == 3
        calls.clear()
        green_general(flow, 0.7, 0.2)
        assert len(calls) == 4

    def test_central_table_makes_2n_plus_1_kernel_evaluations(self, monkeypatch):
        path = quartic_path_from_qt(1.0, 1.0)
        pair = canonical_longitudinal(path)
        calls = []
        omega = CanonicalPair.omega

        def counted(self, theta, theta_p):
            calls.append((theta, theta_p))
            return omega(self, theta, theta_p)

        monkeypatch.setattr(CanonicalPair, "omega", counted)
        for n in (1, 2, 9, 64):
            calls.clear()
            green_table_central(pair, 1.0, n=n)
            assert len(calls) <= 2 * n + 1
