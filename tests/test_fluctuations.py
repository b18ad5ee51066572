"""Tests for determinants, Green's functions, flow matrices and Wick moments."""

import math

import numpy as np
import pytest

from sct.errors import DegenerateError, DomainError, SingularMatrixError
from sct.fluctuations import (
    _det_longitudinal_closed,
    _det_transverse_closed,
    _guarded_inv,
    det_general,
    det_longitudinal,
    det_transverse,
    flow_matrices,
    green_central,
    green_general,
    green_table_central,
    green_table_general,
    jacobi_commutator,
    omega_kernel,
    radial_trajectory,
    wick_moment,
)
from sct.paths import (
    CanonicalPair,
    canonical_longitudinal,
    canonical_transverse,
    harmonic_canonical_pair,
    harmonic_well,
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
        kern = omega_kernel(harmonic_canonical_pair())
        for t in (0.0, 0.7, 2.2):
            assert kern.eval(t, t) == 0.0

    def test_harmonic_closed_form(self):
        kern = omega_kernel(harmonic_canonical_pair())
        for t, tp in ((0.0, 1.0), (0.3, 2.0), (1.5, 0.2)):
            assert kern.eval(t, tp) == pytest.approx(math.sinh(tp - t), rel=1e-13)

    def test_antisymmetry(self):
        path = quartic_path_from_qt(1.0, 1.0)
        kern = omega_kernel(canonical_longitudinal(path))
        for t, tp in ((0.1, 0.8), (0.4, 0.9)):
            assert kern.eval(t, tp) == pytest.approx(-kern.eval(tp, t), rel=1e-10)

    def test_canonical_simplification(self):
        path = quartic_path_from_qt(1.0, 1.0)
        pair = canonical_longitudinal(path)
        kern = omega_kernel(pair)
        assert kern.eval(0.0, 1.0) == pytest.approx(pair.fa(0.0) * pair.fb(1.0), rel=1e-11)

    def test_degenerate_pair(self):
        bad = CanonicalPair(math.cosh, lambda t: 2.0 * math.cosh(t),
                            math.sinh, lambda t: 2.0 * math.sinh(t))
        with pytest.raises(DegenerateError):
            omega_kernel(bad).eval(0.3, 0.9)


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


class TestGreenCentral:
    def harmonic_green(self, t, tp, Theta):
        lo, hi = min(t, tp), max(t, tp)
        return math.sinh(lo) * math.sinh(Theta - hi) / math.sinh(Theta)

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
        np.testing.assert_allclose(flow.A(0.0), np.eye(2), atol=1e-13)
        np.testing.assert_allclose(flow.Adot(0.0), np.zeros((2, 2)), atol=1e-13)
        np.testing.assert_allclose(flow.B(0.0), np.zeros((2, 2)), atol=1e-13)
        np.testing.assert_allclose(flow.Bdot(0.0), np.eye(2), atol=1e-13)

    def test_free_particle(self):
        free = harmonic_well()
        free = free.__class__(lambda r: 0.0, lambda r: 0.0, lambda r: 0.0)
        flow = flow_matrices(free, radial_trajectory(lambda t: 0.3, 2), 1.5)
        for t in (0.4, 1.5):
            np.testing.assert_allclose(flow.A(t), np.eye(2), atol=1e-10)
            np.testing.assert_allclose(flow.B(t), t * np.eye(2), atol=1e-10)

    @pytest.mark.parametrize("D", [1, 2, 3])
    def test_harmonic_flow(self, D):
        traj = radial_trajectory(lambda t: harmonic_trajectory_ref(1.0, 2.0, t), D)
        flow = flow_matrices(harmonic_well(), traj, 2.0)
        for t in (0.5, 1.3, 2.0):
            np.testing.assert_allclose(flow.A(t), math.cosh(t) * np.eye(D), rtol=1e-9)
            np.testing.assert_allclose(flow.B(t), math.sinh(t) * np.eye(D), rtol=1e-9)

    def test_columns_solve_variational_equation(self):
        # tight tolerances so the dense-output interpolant survives
        # second differencing at the 1e-7 residual level
        Theta = 1.0
        path = quartic_path_from_qt(1.0, Theta)
        flow = flow_matrices(quartic_well(), radial_trajectory(path.position, 3), Theta,
                             rtol=1e-12, atol=1e-12)
        u_well = quartic_well()
        h = 1e-3
        for t in (0.3, 0.7):
            hess = u_well.hessian(np.array([path.position(t), 0.0, 0.0]))
            for block in (flow.A, flow.B):
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
            for mat in (flow.A(t), flow.B(t)):
                off = mat - np.diag(np.diag(mat))
                np.testing.assert_allclose(off, np.zeros((3, 3)), atol=1e-9)
                # the two transverse channels are identical
                assert mat[1, 1] == pytest.approx(mat[2, 2], rel=1e-10)


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


class TestWickMoments:
    @pytest.fixture()
    def table(self):
        return green_table_central(harmonic_canonical_pair(), 2.0, n=33)

    def test_odd_moments_vanish(self, table):
        assert wick_moment(table, [(0, 0.5)]) == 0.0
        assert wick_moment(table, [(0, 0.5), (0, 0.7), (0, 1.1)]) == 0.0

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


class GreenTableToy:
    """Minimal GreenTable stand-in: two 'times' indexing a 2x2 covariance."""

    def __init__(self, grid, cov):
        self.Theta = float(grid[-1])
        self.grid = grid
        self.cov = cov

    def eval(self, t, tp):
        i = int(round(t))
        j = int(round(tp))
        return self.cov[i, j]


class TestGreenTables:
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
