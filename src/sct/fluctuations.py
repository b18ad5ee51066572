"""Fluctuation determinants, Green's functions and Gaussian moments.

Two independent constructions are implemented and cross-checked:

* the central-potential route: for a radial trajectory the fluctuation
  operator splits into one longitudinal channel with frequency V''(r_c)
  and D-1 transverse channels with frequency V'(r_c)/r_c.  With canonical
  solution pairs the determinant of a channel is 2 pi f_a(0) f_b(Theta)
  and its Green's function is Omega(0, t_<) Omega(t_>, Theta) /
  Omega(0, Theta), where Omega(t, t') = f_a(t) f_b(t') - f_a(t') f_b(t)
  is the antisymmetric kernel of the pair (its unit Wronskian is a
  contract of the construction, never a computed divisor).  Every Omega
  is CanonicalPair.omega read through paths._finite, the one overflow
  check of path and pair quantities, naming the path or the two times.
  For the quartic well the determinants also have explicit elliptic
  closed forms: det_longitudinal and det_transverse return them once
  both routes agree to 1e-8, and the one-loop quadrature sums those
  values.  Both take one path or, elementwise, a family (array fields).

* the general-D route: integrate the D x D variational flow A(t), B(t)
  of the equation of motion (columns solve the linearized equation, with
  A(0) = 1, Adot(0) = 0, B(0) = 0, Bdot(0) = 1) along the radial
  trajectory r(t) e_1, where the Hessian is diag(V''(r), V'(r)/r, ...) in
  the fixed frame and acts as a row scaling; build the Jacobi
  commutator

      J(t, t') = -[A(t) A(t')^-1 - B(t) B(t')^-1]
                  [Adot(t') A(t')^-1 - Bdot(t') B(t')^-1]^-1,

  whose t' -> 0 limit is J(t, 0) = -B(t), and from it the matrix Green's
  function and the determinant (2 pi)^D det[-J(Theta, 0)].  The flow's
  right-hand side is a gather of the 4 D^2 state and one product with
  a factor vector (ones on the copied blocks, the Hessian's row factors on
  A and B), bit for bit the copy and row scaling, and so the dense
  Hessian product.  A flow or determinant that leaves the float range
  raises DomainError naming Theta and D, and the flow refuses times
  outside [0, Theta].

Both Green's functions are separable: G(t, t') is a factor in
min(t, t') times a factor in max(t, t').  The tables on a time grid are
built from per-node factors: Omega(0, t_i) and Omega(t_i, Theta) for a
channel, and for the flow one dense-output evaluation at every node,
the inverses of A, B and Adot A^-1 - Bdot B^-1 at each node t_j != 0,
and J(t_i, 0), J(Theta, t_j), J(t_i, Theta), J(0, t_j) from them.  The
pointwise green_central and green_general stay the exact evaluators
between nodes and give the same value at every node.

Wick's theorem for moments of the Gaussian fluctuation measure is
provided as an exact pairing enumeration over tabulated Green's
functions, one entry per pair of legs; the Delta^{-1/2} normalization
stays with the caller.

Matrix inversions go through pivoted elimination with an explicit
condition-number gate at 1e12: crossing it raises SingularMatrixError
(a conjugate point) instead of returning garbage.  A table gates the
same matrices as its entries evaluated one by one would: A, B and
Adot A^-1 - Bdot B^-1 at each node t_j != 0, J(Theta, 0) and, once the
table has entries below the diagonal, J(0, Theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.integrate import solve_ivp

from .elliptic import jacobi_sn_cn_dn  # noqa: F401  (kept for perfbench's tracer test)
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
    _check_integer,
    _check_theta,
    _finite,
    _path_at,
    canonical_longitudinal,
    canonical_transverse,
)

_COND_LIMIT = 1e12
# relative and absolute tolerance of flow_matrices' DOP853 integration
_FLOW_TOL = 1e-10
_TWO_PI = 2.0 * math.pi


def _guarded_inv(mat: np.ndarray, what: str) -> np.ndarray:
    """Inverse of a matrix, or of each matrix of a (..., D, D) stack;
    refuses the lot if any condition number is not finite or above 1e12."""
    cond = np.linalg.cond(mat)
    if not np.all(cond <= _COND_LIMIT):
        raise SingularMatrixError(
            f"{what}: condition number {np.max(cond):.3e} above "
            f"{_COND_LIMIT:.0e} (conjugate-point crossing?)")
    return np.linalg.inv(mat)


# ---------------------------------------------------------------------------
# Central-potential route.
# ---------------------------------------------------------------------------

def _omega(pair: CanonicalPair, theta, theta_p):
    """pair.omega(theta, theta_p), or DomainError naming the two times
    (elementwise: the first element's) where it is not finite: a product
    of canonical solutions overflows (for the harmonic pair cosh(t) sinh(t')
    is inf - inf once t + t' passes ~710) or a solution itself does."""
    def times(i):
        return "theta={!r}, theta'={!r}".format(
            *(float(np.ravel(t)[i] if np.ndim(t) else t) for t in (theta, theta_p)))
    return _finite(times, "Omega", lambda: pair.omega(theta, theta_p))


def _harmonic_det(path: QuarticPath) -> float:
    # the q_t = 0 path rests at the origin, where both channels are
    # harmonic; the k = 1 elliptic forms do not reach that limit
    return _finite(path, "the harmonic determinant 2 pi sinh(Theta)",
                   lambda: _TWO_PI * math.sinh(path.Theta))


def _det_longitudinal_closed(path: QuarticPath) -> float:
    if path.at_rest:
        return _harmonic_det(path)
    u = path.u_T
    k2 = path.k * path.k
    m1 = path.m1
    sn, cn, dn, eps = path.sn_T, path.cn_T, path.dn_T, path.eps_T
    bracket = ((m1 * u + (1.0 - 2.0 * m1) * eps) / k2
               + cn * dn / sn + m1 * sn * cn / dn)
    return (2.0 * _TWO_PI / path.s) * (sn * dn / (cn * cn)) ** 2 * bracket


def _det_transverse_closed(path: QuarticPath) -> float:
    if path.at_rest:
        return _harmonic_det(path)
    u = path.u_T
    k2 = path.k * path.k
    m1 = path.m1
    cn, eps = path.cn_T, path.eps_T
    return (2.0 * _TWO_PI / (k2 * path.s)) * (eps - m1 * u) / (cn * cn)


def _dual_route_det(path: QuarticPath, closed, pair_builder, label: str):
    if path.at_rest:
        # the canonical pairs degenerate here; the closed form is exact
        return closed
    via_pair = _finite(path, f"{label}: the canonical-pair route",
                       lambda: _TWO_PI * pair_builder(path).omega(0.0, path.Theta))
    # a closed form that fails to a non-finite value counts as a mismatch;
    # not `~`, which maps a scalar path's Python bool to -1 or -2, both truthy
    off = np.logical_not((abs(via_pair - closed) <= 1e-8 * abs(closed))
                         & np.isfinite(closed))
    if np.any(off):
        # the longitudinal pair's f_b(Theta) ~ q_t^-3 underflows from
        # q_t ~ 1e103, which ln_z2_quartic reaches below Theta ~ 1e-103
        tiny = np.finfo(float).tiny
        lost = np.flatnonzero((abs(via_pair) < tiny) & (abs(closed) >= tiny))
        if lost.size:
            i = lost[0]
            raise DomainError(
                f"{label}: the canonical-pair route underflows to "
                f"{float(np.ravel(via_pair)[i])!r} against the closed form "
                f"{float(np.ravel(closed)[i])!r} at {_path_at(path, i)}")
        i = np.flatnonzero(off)[0]
        raise RouteMismatchError(
            f"{label}: closed form {float(np.ravel(closed)[i])!r} vs "
            f"canonical-pair route {float(np.ravel(via_pair)[i])!r} disagree "
            f"beyond 1e-8 at {_path_at(path, i)}")
    return closed


def det_longitudinal(path: QuarticPath):
    """Longitudinal fluctuation determinant of a quartic path, evaluated
    from the elliptic closed form and re-derived from the canonical pair
    as 2 pi Omega(0, Theta); both must agree to 1e-8 (elementwise for a
    path family).  At q_t = 0 both determinants are the harmonic
    2 pi sinh(Theta).  Raises DomainError where a route overflows."""
    closed = _finite(path, "det_longitudinal: the closed form",
                     lambda: _det_longitudinal_closed(path))
    return _dual_route_det(path, closed, canonical_longitudinal, "det_longitudinal")


def det_transverse(path: QuarticPath):
    """Transverse fluctuation determinant of a quartic path (dual-route,
    as det_longitudinal)."""
    closed = _finite(path, "det_transverse: the closed form",
                     lambda: _det_transverse_closed(path))
    return _dual_route_det(path, closed, canonical_transverse, "det_transverse")


def green_central(pair: CanonicalPair, Theta: float,
                  theta: float, theta_p: float) -> float:
    """Scalar Green's function of one fluctuation channel,
    G(t, t') = Omega(0, t_<) Omega(t_>, Theta) / Omega(0, Theta),
    vanishing at both ends with slope discontinuity -1 at coincidence."""
    if not (0.0 <= theta <= Theta and 0.0 <= theta_p <= Theta):
        raise DomainError(f"times ({theta}, {theta_p}) outside [0, {Theta}]")
    denom = _green_denominator(pair, Theta)
    t_lo, t_hi = min(theta, theta_p), max(theta, theta_p)
    return _omega(pair, 0.0, t_lo) * _omega(pair, t_hi, Theta) / denom


def _green_denominator(pair: CanonicalPair, Theta: float) -> float:
    denom = _omega(pair, 0.0, Theta)
    if abs(denom) < 1e-14:
        raise DegenerateError(f"Omega(0, Theta)={denom!r}: zero mode")
    return denom


# ---------------------------------------------------------------------------
# General-D route (variational flow and Jacobi commutator).
# ---------------------------------------------------------------------------

class FlowBlocks(NamedTuple):
    """A, Adot, B and Bdot at one time, each D x D, or at n times, each
    stacked to (n, D, D)."""

    A: np.ndarray
    Adot: np.ndarray
    B: np.ndarray
    Bdot: np.ndarray


@dataclass(frozen=True)
class FlowMatrices:
    """Variational flow of the equation of motion along a trajectory:
    A(t), B(t) and their time derivatives, with A(0) = 1, Adot(0) = 0,
    B(0) = 0, Bdot(0) = 1.  Columns solve the linearized (fluctuation)
    equation."""

    D: int
    Theta: float
    _sol: object = field(repr=False)

    def at(self, theta) -> FlowBlocks:
        """All four blocks at a time, or at a 1-D array of times, from one
        dense-output evaluation.  Raises DomainError for a time outside
        [0, Theta] (NaN included), where the dense output would
        extrapolate."""
        inside = np.greater_equal(theta, 0.0) & np.less_equal(theta, self.Theta)
        if not inside.all():
            bad = np.ravel(theta)[np.argmin(inside)]  # the first time outside
            raise DomainError(f"time {float(bad)!r} outside [0, {self.Theta}]")
        y = self._sol.sol(theta)  # (4 D^2,) or (4 D^2, n)
        # contiguous D x D blocks multiply through the same BLAS kernel,
        # so a stacked product equals the product of one pair bit for bit
        y = np.ascontiguousarray(y.T).reshape(np.shape(theta) + (4, self.D, self.D))
        return FlowBlocks(*np.swapaxes(y, 0, -3))


@dataclass(frozen=True)
class RadialTrajectory:
    """The D-vector trajectory r(t) e_1 of a radial profile r(t).  On it
    the Hessian of a central potential is diagonal in the fixed frame,
    diag(V''(|r|), V'(|r|)/|r|, ..., V'(|r|)/|r|), which is what
    flow_matrices applies; calling it returns the vector itself."""

    position: Callable[[float], float]
    D: int

    def __post_init__(self):
        _check_integer("dimension D", self.D, 1)

    def __call__(self, theta: float) -> np.ndarray:
        x = np.zeros(self.D)
        x[0] = self.position(theta)
        return x


def radial_trajectory(position: Callable[[float], float], D: int) -> RadialTrajectory:
    """Embed a radial profile r(t) as the D-vector trajectory r(t) e_1,
    whose Hessian is diagonal in the fixed frame (see RadialTrajectory)."""
    return RadialTrajectory(position, D)


def flow_matrices(potential: RadialPotential, trajectory: RadialTrajectory,
                  Theta: float) -> FlowMatrices:
    """Integrate the matrix variational equation X'' = Hess V(x_c(t)) X
    along a radial trajectory, for both canonical initial-condition
    slices.

    On r(t) e_1 the Hessian is diag(V''(r), V'(r)/r, ..., V'(r)/r) with
    r = |r(t)| (every entry V''(0) below r = 1e-14), so it acts on A and B
    as a row scaling.  Row 0's factor is written radial + (V'' - radial),
    the rounding of the dense Hessian radial 1 + (V'' - radial) n n^T, so
    the flow equals the one driven by the dense matrix bit for bit.  The
    right-hand side is one gather of the state in the block order (Adot,
    A, Bdot, B) times a factor vector, one on the copied blocks and the
    row factors on A and B: a product by 1.0 is exact, so every
    derivative has the bits of the copy and the row scaling it stands for.
    Raises DomainError for a Theta that is not positive and finite, where
    r(t) is not finite, or where the flow leaves the float range (naming
    Theta and D)."""
    _check_theta(Theta)
    position, D = trajectory.position, trajectory.D
    dv, d2v = potential.dv, potential.d2v
    # (A, Adot, B, Bdot)' = (Adot, Hess A, Bdot, Hess B): y gathered in
    # the order (Adot, A, Bdot, B), times the factor
    block = np.arange(4 * D * D).reshape(4, D * D)
    perm = block[[1, 0, 3, 2]].ravel()
    factor = np.ones(4 * D * D)
    row0, rest = block[1::2, :D].ravel(), block[1::2, D:].ravel()

    def rhs(t, y):
        # scipy passes np.float64 times; a float halves the cost of the
        # time check and the kernel climb in position, with the same bits
        t = float(t)
        r = abs(position(t))
        if not r < math.inf:
            raise DomainError(f"trajectory r(t)={r!r} is not finite at t={t!r}")
        if r < 1e-14:
            factor[row0] = factor[rest] = d2v(0.0)
        else:
            radial = dv(r) / r
            factor[rest] = radial
            factor[row0] = radial + (d2v(r) - radial)
        return y[perm] * factor

    eye = np.eye(D).ravel()
    zero = np.zeros(D * D)
    y0 = np.concatenate([eye, zero, zero, eye])
    try:
        with np.errstate(over="raise"):
            sol = solve_ivp(rhs, (0.0, Theta), y0, method="DOP853",
                            dense_output=True, rtol=_FLOW_TOL, atol=_FLOW_TOL)
    except FloatingPointError as exc:
        raise DomainError(f"Theta={Theta!r}, D={D}: the variational flow "
                          f"leaves the float range ({exc})") from exc
    if not sol.success:
        raise ConvergenceError(
            f"variational flow integration failed: {sol.message}")
    return FlowMatrices(D=D, Theta=Theta, _sol=sol)


def _inverses(a: np.ndarray, adot: np.ndarray, b: np.ndarray,
              bdot: np.ndarray) -> tuple:
    """Guarded A^-1, B^-1 and [Adot A^-1 - Bdot B^-1]^-1 at t' != 0, for
    one time or a stack of times."""
    a_inv = _guarded_inv(a, "A(theta')")
    b_inv = _guarded_inv(b, "B(theta')")
    x2 = adot @ a_inv - bdot @ b_inv
    return a_inv, b_inv, _guarded_inv(x2, "Adot A^-1 - Bdot B^-1")


def _commutator(a: np.ndarray, b: np.ndarray, inverses: tuple) -> np.ndarray:
    """J(t, t') from A(t), B(t) and the inverses at t' (stacks broadcast)."""
    a_inv, b_inv, x2_inv = inverses
    return -(a @ a_inv - b @ b_inv) @ x2_inv


def _jacobi(at_t: FlowBlocks, at_p: FlowBlocks, theta_p: float) -> np.ndarray:
    if theta_p == 0.0:
        return -at_t.B
    return _commutator(at_t.A, at_t.B, _inverses(*at_p))


def jacobi_commutator(flow: FlowMatrices, theta: float, theta_p: float) -> np.ndarray:
    """Matrix solution J(t, t') of the fluctuation equation with
    J(t', t') = 0 and dJ/dt = -1 at coincidence.  The t' = 0 limit is the
    analytic J(t, 0) = -B(t); elsewhere the A/B combination is used."""
    return _jacobi(flow.at(theta), flow.at(theta_p), theta_p)


def green_general(flow: FlowMatrices, theta: float, theta_p: float) -> np.ndarray:
    """Matrix Green's function from the Jacobi commutator,

        G(t, t') = J(t, 0) M(0, Th) J(Th, t')        for t <= t'
                 = -J(t, Th) M(Th, 0) J(0, t')       for t > t',

    with M(t, t') = -J(t', t)^-1.  A time outside [0, Theta] raises
    DomainError (from FlowMatrices.at)."""
    Th = flow.Theta
    at_t, at_p, at_T = flow.at(theta), flow.at(theta_p), flow.at(Th)
    if theta <= theta_p:
        m_0T = -_guarded_inv(-at_T.B, "J(Theta, 0)")
        return -at_t.B @ m_0T @ _jacobi(at_T, at_p, theta_p)
    at_0 = flow.at(0.0)
    m_T0 = -_guarded_inv(_jacobi(at_0, at_T, Th), "J(0, Theta)")
    return -_jacobi(at_t, at_T, Th) @ m_T0 @ _jacobi(at_0, at_p, theta_p)


def det_general(flow: FlowMatrices) -> float:
    """Fluctuation determinant (2 pi)^D det[-J(Theta, 0)] from the flow;
    equals det_longitudinal * det_transverse^(D-1) on central paths."""
    Th, D = flow.Theta, flow.D
    with np.errstate(over="ignore"):  # an inf is refused below, naming Theta and D
        det = float(np.linalg.det(flow.at(Th).B))  # -J(Theta, 0) = B(Theta)
    if det <= 0.0:
        raise SingularMatrixError(
            f"det[-J(Theta, 0)] = {det!r} is not positive: conjugate point")
    try:
        value = _TWO_PI ** D * det
    except OverflowError:
        # (2 pi)^D alone leaves the float range from D = 387, while the
        # product need not; exp overflows from ln(max float) = 709.7827...
        ln_value = D * math.log(_TWO_PI) + math.log(det)
        value = math.exp(ln_value) if ln_value < 709.78 else math.inf
    if not value < math.inf:
        raise DomainError(f"Theta={Th!r}, D={D}: the determinant (2 pi)^D "
                          f"det[-J(Theta, 0)] overflows the float range")
    return value


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


def _table_grid(Theta: float, n: int) -> np.ndarray:
    _check_theta(Theta)
    _check_integer("table size n", n, 0)
    return np.linspace(0.0, Theta, n)


def green_table_central(pair: CanonicalPair, Theta: float, n: int = 64) -> GreenTable:
    """green_central on an n-node grid, from the 2n + 1 values
    Omega(0, t_i), Omega(t_i, Theta) and Omega(0, Theta)."""
    grid = _table_grid(Theta, n)
    evaluator = lambda t, tp: green_central(pair, Theta, t, tp)
    if n == 0:
        return GreenTable(Theta, grid, np.empty((0, 0)), evaluator)
    denom = _green_denominator(pair, Theta)
    nodes = grid.tolist()
    upper = np.outer([_omega(pair, 0.0, t) for t in nodes],
                     [_omega(pair, t, Theta) for t in nodes]) / denom
    idx = np.arange(n)
    values = np.where(idx[:, None] <= idx[None, :], upper, upper.T)
    return GreenTable(Theta, grid, values, evaluator)


def green_table_general(flow: FlowMatrices, n: int = 64) -> GreenTable:
    """green_general on an n-node grid, from per-node factors: one
    dense-output evaluation, the guarded inverses at every node t_j != 0,
    and one batched product per triangle."""
    Th, D = flow.Theta, flow.D
    grid = _table_grid(Th, n)
    evaluator = lambda t, tp: green_general(flow, t, tp)
    values = np.empty((n, n, D, D))
    if n == 0:
        return GreenTable(Th, grid, values, evaluator)
    # the grid, and Theta after it unless the grid ends there (n = 1)
    a, adot, b, bdot = flow.at(grid if grid[-1] == Th else np.append(grid, Th))
    a_T, b_T = a[-1], b[-1]
    m_0T = -_guarded_inv(-b_T, "J(Theta, 0)")
    # A^-1, B^-1, X2^-1 at t_1 .. t_(n-1); J(t, 0) = -B(t) needs none
    inv = _inverses(a[1:n], adot[1:n], b[1:n], bdot[1:n])

    # i <= j: J(t_i, 0) M(0, Th) J(Th, t_j)
    left = -b[:n] @ m_0T
    right = np.concatenate([-b_T[None], _commutator(a_T, b_T, inv)])
    i, j = np.triu_indices(n)
    values[i, j] = left[i] @ right[j]
    if n > 1:
        # i > j: -J(t_i, Th) M(Th, 0) J(0, t_j), with t_(n-1) = Th
        inv_T = tuple(x[-1] for x in inv)
        m_T0 = -_guarded_inv(_commutator(a[0], b[0], inv_T), "J(0, Theta)")
        left = -_commutator(a[:n], b[:n], inv_T) @ m_T0
        right = np.concatenate([-b[:1], _commutator(a[0], b[0], inv)])
        i, j = np.tril_indices(n, -1)
        values[i, j] = left[i] @ right[j]
    return GreenTable(Th, grid, values, evaluator)


def wick_moment(green: GreenTable, legs) -> float:
    """Gaussian moment of fluctuation fields by Wick pairing:
    sum over the (k-1)!! pairings of the product of Green's functions,
    zero for odd k and one for k = 0.  ``legs`` is a sequence of
    (channel index, time) pairs; the Delta^{-1/2} prefactor is NOT
    included here (in reduced units the hbar^{k/2} factor is one).  Every
    leg is validated, whatever k: its time must lie in [0, Theta] and, on
    a matrix table, its channel be an integer in [0, D).  Each pair of
    legs reads its table entry once."""
    legs = list(legs)
    D = np.shape(green.values)[-1] if np.ndim(green.values) == 4 else None
    for c, t in legs:
        if not (0.0 <= t <= green.Theta):
            raise DomainError(f"leg time {t!r} outside [0, {green.Theta}]")
        if D is not None:
            _check_integer("leg channel", c, 0, D)

    def entry(a: int, b: int) -> float:
        (i, t), (j, tp) = legs[a], legs[b]
        val = green.eval(t, tp)
        if D is None:
            return float(val) if i == j else 0.0
        return float(val[i, j])

    k = len(legs)
    table = {(a, b): entry(a, b) for a in range(k) for b in range(a + 1, k)}

    def pairings(items) -> float:
        if not items:
            return 1.0
        head, rest = items[0], items[1:]
        total = 0.0
        for pos, partner in enumerate(rest):
            total += table[head, partner] * pairings(rest[:pos] + rest[pos + 1:])
        return total

    return pairings(tuple(range(k)))
