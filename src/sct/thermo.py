"""Partition functions and specific heat in reduced units.

Assembles the pieces of the quadratic (one-loop) approximation

    Z2 = (2 pi^{D/2} / Gamma(D/2)) int dq0 q0^{D-1} e^{-S} Delta^{-1/2},

together with the exact harmonic result, the classical phase-space
integral and a Bohr-Sommerfeld reference spectrum, all as functions of
the dimensionless inverse temperature Theta.

For the quartic well the q0 integral is transformed to the turning value
q_t on [0, q_Theta), with the Jacobian identity

    dq0/dq_t = U'(q_t) Delta_l / (4 pi sqrt(2 [U(q0) - U(q_t)]))

evaluated in a factored form whose q_t -> 0 limit is cosh(Theta/2)
exactly.  The integrand is carried as its logarithm, -I/g + ln J +
(D-1) ln q0 - (ln Delta_l + (D-1) ln Delta_t)/2, over an array of q_t
nodes at a time from one family of paths (one array-kernel call): on a
120-node scan, then once per round of a batched adaptive Gauss-Kronrod
21 rule, every node of which gets the dual-route determinant check.  The
scan gives the peak, factored out of the quadrature, and the cut where
the integrand has dropped ~40 e-folds below it (it vanishes at q_Theta);
the remainder is controlled by an analytic tail bound read from the
scan's values at the cut, reported and never silently added.

Specific heat is C = Theta^2 d^2(ln Z)/dTheta^2, computed from ln Z with
a five-point stencil plus one Richardson step; the error estimate rides
along with the value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import (
    ConvergenceError,
    DomainError,
    QuadratureError,
    TruncationError,
)
from .fluctuations import (
    _det_longitudinal_closed,
    _det_transverse_closed,
    det_longitudinal,
    det_transverse,
    omega_kernel,
)
from .paths import (
    QuarticPath,
    ReducedParams,
    _check_dimension,
    _check_theta,
    harmonic_action,
    harmonic_canonical_pair,
    q_theta_max,
    quartic_action,
    quartic_path_from_qt,
)
# bound here only so that perfbench's tracer test finds an import site to
# patch; jacobian_dq0_dqt reads the path's half-period values
from .elliptic import jacobi_sn_cn_dn  # noqa: F401

_TWO_PI = 2.0 * math.pi
_LN2 = math.log(2.0)
_LN_TINY = math.log(np.finfo(float).tiny)
_LN_HUGE = math.log(np.finfo(float).max)


def _angular_prefactor(D: int) -> float:
    # surface of the unit (D-1)-sphere
    return 2.0 * math.pi ** (0.5 * D) / math.gamma(0.5 * D)


def ln_z_harmonic(D: int, Theta: float) -> float:
    """ln of the harmonic partition function, -D ln(2 sinh(Theta/2)), in log
    space so large Theta cannot overflow; ln(1 - e^-Theta) is ln(-expm1(-Theta))
    up to Theta = ln 2, where log1p(-e^-Theta) loses digits (Maechler 2012)."""
    _check_theta(Theta)
    _check_dimension(D)
    log1mexp = (math.log1p(-math.exp(-Theta)) if Theta > _LN2
                else math.log(-math.expm1(-Theta)))
    return -D * (0.5 * Theta + log1mexp)


def z_harmonic(D: int, Theta: float) -> float:
    """Harmonic partition function [2 sinh(Theta/2)]^-D."""
    return math.exp(ln_z_harmonic(D, Theta))


def z2_harmonic_integral(D: int, Theta: float, tol: float = 1e-10) -> float:
    """End-to-end pipeline check: the radial one-loop integral with the
    harmonic action and determinant must reproduce z_harmonic exactly
    (the quadratic approximation is exact for a quadratic well)."""
    _check_theta(Theta)
    det_l = _TWO_PI * omega_kernel(harmonic_canonical_pair()).eval(0.0, Theta)

    def integrand(r):
        return r ** (D - 1) * math.exp(-harmonic_action(r, Theta))

    val, err = quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=tol, limit=200)
    if err > 10.0 * tol * abs(val):
        raise QuadratureError(
            f"harmonic radial integral: error estimate {err:.3e} above tolerance")
    return _angular_prefactor(D) * val * det_l ** (-0.5 * D)


def jacobian_dq0_dqt(path: QuarticPath):
    """dq0/dq_t at fixed Theta from the determinant identity (elementwise
    for a path family).  The factored form divides out U'(q_t) ~ q_t
    against sqrt(U(q0) - U(q_t)), so q_t = 0 returns the harmonic limit
    cosh(Theta/2) exactly."""
    qt = path.q_t
    det_l = _det_longitudinal_closed(path)
    sn, cn = path.sn_T, path.cn_T
    nc2 = 1.0 / (cn * cn)
    # sqrt(2 [U(q0)-U(q_t)]) = q_t (sn/cn) sqrt(1 + q_t^2 (nc^2 + 1) / 2)
    # and U'(q_t) = q_t (1 + q_t^2); one q_t cancels.
    slope_factor = (sn / cn) * np.sqrt(1.0 + 0.5 * qt * qt * (nc2 + 1.0))
    return (1.0 + qt * qt) * det_l / (2.0 * _TWO_PI * slope_factor)


def _log_integrand(params: ReducedParams, qt: np.ndarray, check_routes: bool):
    """ln f = ln J + (D-1) ln q0 + front of the one-loop q_t integrand f
    over an array of turning values q_t > 0, from one path family, where
    front = -I/g - (ln Delta_l + (D-1) ln Delta_t)/2 is the integrand's
    q0-form factor.  Returns (family, ln f, front).  A non-finite ln f
    (the closed forms overflow at Theta ~ 680) is reported as such before
    check_routes re-derives every node's determinants from the canonical
    pairs, so an overflow is never read as a route mismatch."""
    g, D, Theta = params.g, params.D, params.Theta
    path = quartic_path_from_qt(qt, Theta)
    with np.errstate(all="ignore"):
        det_l = _det_longitudinal_closed(path)
        det_t = _det_transverse_closed(path)
        front = -quartic_action(path) / g - 0.5 * (np.log(det_l)
                                                   + (D - 1) * np.log(det_t))
        log_f = np.log(jacobian_dq0_dqt(path)) + (D - 1) * np.log(path.q0) + front
    bad = ~np.isfinite(log_f)
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise QuadratureError(
            f"one-loop integrand overflows at q_t={float(path.q_t[i])!r} for "
            f"D={D}, Theta={Theta!r} (Delta_l {float(det_l[i])!r}, "
            f"Delta_t {float(det_t[i])!r}, ln integrand {float(log_f[i])!r})")
    if check_routes:
        det_longitudinal(path)
        det_transverse(path)
    return path, log_f, front


# Gauss-Kronrod 21-point rule on [-1, 1] (QUADPACK's qk21; Piessens et
# al. 1983): nodes x_0 > ... > x_10 = 0 of the Kronrod rule, their
# weights, and the weights of the embedded 10-point Gauss rule, whose
# nodes are x_1, x_3, ..., x_9.
_GK_X = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_GK_WK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980529082, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_GK_WG = np.zeros(11)
_GK_WG[1:10:2] = [
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338]
# all 21 nodes and weights, in increasing node order
_GK_NODES = np.concatenate([-_GK_X, _GK_X[-2::-1]])
_GK_KRONROD = np.concatenate([_GK_WK, _GK_WK[-2::-1]])
_GK_GAUSS = np.concatenate([_GK_WG, _GK_WG[-2::-1]])
_EPS = np.finfo(float).eps
# as many panels as scipy's quad was allowed subintervals
_GK_PANEL_LIMIT = 200


def _gk21_panels(f, lo: np.ndarray, hi: np.ndarray):
    """Kronrod estimates and QUADPACK error estimates on panels
    [lo_i, hi_i], from one call of f on all their nodes."""
    center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fx = f((center[:, None] + half[:, None] * _GK_NODES).ravel()).reshape(lo.size, -1)
    kronrod = fx @ _GK_KRONROD
    err = half * np.abs(kronrod - fx @ _GK_GAUSS)
    res_abs = half * (np.abs(fx) @ _GK_KRONROD)
    res_asc = half * (np.abs(fx - 0.5 * kronrod[:, None]) @ _GK_KRONROD)
    # QUADPACK scales the raw Kronrod - Gauss difference by the integrand's
    # variation over the panel and floors it at the rounding level
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = res_asc * np.minimum(1.0, (200.0 * err / res_asc) ** 1.5)
    err = np.where((res_asc != 0.0) & (err != 0.0), scaled, err)
    return half * kronrod, np.maximum(err, 50.0 * _EPS * res_abs)


def _gauss_kronrod(f, edges, rtol: float):
    """(integral, error estimate) of f over [edges[0], edges[-1]], split at
    the inner edges, by globally adaptive Gauss-Kronrod 21.  Each round
    evaluates f once, on the nodes of every open panel, and bisects only
    the panels whose error estimate exceeds their share of rtol |integral|
    (in proportion to width); it stops when the total error is within
    rtol |integral|, or would need more than _GK_PANEL_LIMIT panels."""
    lo, hi = np.asarray(edges[:-1], dtype=float), np.asarray(edges[1:], dtype=float)
    span = hi[-1] - lo[0]
    n_panels = lo.size
    closed_val = closed_err = 0.0
    while True:
        val, err = _gk21_panels(f, lo, hi)
        total = closed_val + val.sum()
        total_err = closed_err + err.sum()
        split = err > rtol * abs(total) * (hi - lo) / span
        n_panels += int(split.sum())
        if (total_err <= rtol * abs(total) or not split.any()
                or n_panels > _GK_PANEL_LIMIT):
            return float(total), float(total_err)
        closed_val += val[~split].sum()
        closed_err += err[~split].sum()
        mid = 0.5 * (lo[split] + hi[split])
        lo, hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])


def _ln_tail_bound(params: ReducedParams, q0: float, q_cut: float,
                   front: float) -> float:
    """ln of a bound on the neglected [q_cut, q_Theta) piece, written as a
    q0 integral, from q0 and the q0-form front at the cut.  Along the
    fixed-Theta family U(q0) - U(q_t) never decreases (dq_t/dq0 < 1 and
    U' is increasing), so dI/dq0 >= 2 sqrt(2 [U(q0(q_cut)) - U(q_cut)])
    on the whole tail, and the determinants only grow; the integrand is
    dominated by a decaying exponential with polynomial prefactor (closed
    form below)."""
    g, D = params.g, params.D
    gap = 0.5 * (q0 * q0 - q_cut * q_cut) + 0.25 * (q0 ** 4 - q_cut ** 4)
    if gap <= 0.0:
        return math.inf
    decay = 2.0 * math.sqrt(2.0 * gap) / g
    poly = sum(math.comb(D - 1, j) * q0 ** (D - 1 - j) * math.factorial(j)
               / decay ** (j + 1) for j in range(D))
    return front + math.log(poly)


def _check_tol(tol: float) -> None:
    # a NaN or infinite tol would pass every `err > tol * val` check
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol={tol!r} must be finite and positive")


def z2_quartic(params: ReducedParams, tol: float = 1e-7) -> float:
    """One-loop partition function of the quartic well: the q_t integral
    of jacobian * q0^(D-1) * exp(-I/g) * (Delta_l Delta_t^(D-1))^(-1/2)
    over [0, q_Theta), times the angular and coupling prefactors.  Raises
    QuadratureError, naming ln Z2, where Z2 leaves the normal float range
    (at D = 8, g = 0.5 from Theta ~ 177, where Z2 ~ e^(-D Theta/2)).

    The one-loop Z carries an O(g) error and is not promised to make ln Z
    convex in Theta, so the C(T) derived from it may dip below zero at
    T << 1, where the true C is itself far below that error (at g = 0.5,
    D = 1, T = 0.1 the one-loop C is about -4e-3 and the exact C about
    +6e-4)."""
    if params.g <= 0.0:
        raise DomainError(f"g={params.g!r} must be positive (use z_harmonic at g=0)")
    _check_tol(tol)
    g, D, Theta = params.g, params.D, params.Theta

    # locate the peak and the ~40 e-fold cutoff on a scan grid that covers
    # both the weak-coupling scale sqrt(g/sinh Theta) and the full window
    sigma = (math.sqrt(g / math.sinh(Theta)) if Theta < 700.0
             else math.sqrt(2.0 * g) * math.exp(-0.5 * Theta))
    if 1e-3 * sigma == 0.0:
        raise QuadratureError(
            f"scan grid start underflows to 0 at Theta={Theta!r} (weak-coupling "
            f"scale {sigma!r})")
    q_cap = q_theta_max(Theta)
    start = min(1e-3 * sigma, 1e-4 * q_cap)
    scan = np.unique(np.concatenate([
        np.geomspace(start, min(20.0 * sigma, 0.999 * q_cap), 40),
        np.linspace(1e-4 * q_cap, 0.9995 * q_cap, 80),
    ]))
    family, logs, front = _log_integrand(params, scan, check_routes=False)
    i_peak = int(np.argmax(logs))
    log_peak = float(logs[i_peak])
    q_peak = float(scan[i_peak])
    # the last scan node is 0.9995 q_cap, where the cut falls if the
    # integrand never drops 40 e-folds past the peak
    above = np.flatnonzero((scan > q_peak) & (logs < log_peak - 40.0))
    i_cut = int(above[0]) if above.size else scan.size - 1
    q_cut = float(scan[i_cut])

    inner = [q for q in (q_peak, 0.5 * q_cut, 2.0 * sigma) if 0.0 < q < q_cut]
    val, err = _gauss_kronrod(
        lambda q: np.exp(_log_integrand(params, q, check_routes=True)[1] - log_peak),
        [0.0] + sorted(set(inner)) + [q_cut], 0.5 * tol)
    if not val > 0.0 or err > tol * val:
        raise QuadratureError(
            f"quartic q_t quadrature achieved {err:.3e} on value {val:.6e} "
            f"(peak scaled to 1), requested relative {tol:.1e}")
    ln_val = math.log(val) + log_peak
    ln_tail = _ln_tail_bound(params, float(family.q0[i_cut]), q_cut,
                             float(front[i_cut]))
    if ln_tail > math.log(tol) + ln_val:
        raise QuadratureError(
            f"tail bound e^{ln_tail:.6g} beyond q_t={q_cut:.6g} exceeds "
            f"tolerance {tol:.1e} on value e^{ln_val:.6g}")
    ln_z2 = math.log(_angular_prefactor(D)) - 0.5 * D * math.log(g) + ln_val
    if not _LN_TINY <= ln_z2 <= _LN_HUGE:
        raise QuadratureError(
            f"Z2 leaves the normal float range at D={D}, Theta={Theta!r}: "
            f"ln Z2 = {ln_z2!r}")
    return math.exp(ln_z2)


def z_classical(params: ReducedParams, tol: float = 1e-10) -> float:
    """Classical partition function (2 pi Theta)^(-D/2) int d^D x e^(-Theta V),
    radial form; V(r) = r^2/2 + g r^4/4 in reduced units."""
    _check_tol(tol)
    g, D, Theta = params.g, params.D, params.Theta

    def integrand(r):
        return r ** (D - 1) * math.exp(-Theta * (0.5 * r * r + 0.25 * g * r ** 4))

    val, err = quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=tol, limit=200)
    if err > 10.0 * tol * abs(val):
        raise QuadratureError(
            f"classical integral: error estimate {err:.3e} above tolerance")
    return (_TWO_PI * Theta) ** (-0.5 * D) * _angular_prefactor(D) * val


def ln_z_classical(params: ReducedParams, tol: float = 1e-10) -> float:
    return math.log(z_classical(params, tol))


# ---------------------------------------------------------------------------
# Bohr-Sommerfeld reference spectrum (one dimension).
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(96)
# mapped once onto [0, pi/2]
_GL_PHI = 0.25 * math.pi * (_GL_NODES + 1.0)
_GL_W = 0.25 * math.pi * _GL_WEIGHTS
_GL_COS2 = np.cos(_GL_PHI) ** 2
_GL_1PSIN2 = 1.0 + np.sin(_GL_PHI) ** 2


def _phase_integral(energy: float, g: float) -> float:
    """Closed-orbit phase integral of p = sqrt(2 [E - V(x)]) for
    V = x^2/2 + g x^4/4.  The substitution x = x_+ sin(phi) removes the
    turning-point singularity: the integrand becomes
    4 x_+^2 cos^2(phi) sqrt(1 + g x_+^2 (1 + sin^2 phi)/2), analytic on
    [0, pi/2], so fixed Gauss-Legendre converges spectrally."""
    if energy <= 0.0:
        return 0.0
    # x_+^2 = (sqrt(1+4gE)-1)/g without small-g cancellation
    xp2 = 4.0 * energy / (1.0 + math.sqrt(1.0 + 4.0 * g * energy))
    vals = _GL_COS2 * np.sqrt(1.0 + 0.5 * g * xp2 * _GL_1PSIN2)
    return 4.0 * xp2 * float(np.dot(_GL_W, vals))


@dataclass(frozen=True)
class WkbSpectrum:
    """Bohr-Sommerfeld levels E_0..E_{n_max} of the one-dimensional
    quartic well, each solving  (phase integral)(E_n) = 2 pi (n + 1/2)."""

    levels: tuple
    g: float
    n_max: int

    def __post_init__(self):
        if len(self.levels) != self.n_max + 1:
            raise DomainError("level count does not match n_max")
        if self.levels[0] <= 0.0:
            raise DomainError("ground state must be positive")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise DomainError("levels must be strictly increasing")


def wkb_levels(g: float, n_max: int) -> WkbSpectrum:
    """Solve the Bohr-Sommerfeld condition for levels 0..n_max (D = 1).

    This is the lowest-order rule: it quantizes the classical energy
    E(I) = I + (3g/8) I^2 - (17g^2/64) I^3 + ... at action I = n + 1/2,
    so at small g the ground state is E_0 ~ 1/2 + 3g/32, not the quantum
    first-order 1/2 + 3g/16 (that shift needs higher-order WKB terms)."""
    if g < 0.0:
        raise DomainError(f"g={g!r} must be >= 0")
    if n_max < 0:
        raise DomainError(f"n_max={n_max!r} must be >= 0")
    levels = []
    lo = 1e-12
    for n in range(n_max + 1):
        target = _TWO_PI * (n + 0.5)
        hi = max(2.0 * (n + 1.0), lo * 2.0)
        for _ in range(200):
            if _phase_integral(hi, g) > target:
                break
            hi *= 2.0
        else:
            raise ConvergenceError(
                f"level {n}: no bracket; phase integral is "
                f"{_phase_integral(lo, g):.6e} at E={lo:.3e} and "
                f"{_phase_integral(hi, g):.6e} at E={hi:.3e}")
        energy = brentq(lambda e: _phase_integral(e, g) - target, lo, hi,
                        xtol=1e-13, rtol=8.9e-16)
        resid = abs(_phase_integral(energy, g) - target)
        if resid > 1e-9:
            raise ConvergenceError(
                f"level {n}: quantization residual {resid:.3e} above 1e-9")
        levels.append(energy)
        lo = energy
    return WkbSpectrum(tuple(levels), g, n_max)


def z_wkb(spectrum: WkbSpectrum, Theta: float) -> float:
    """Partition sum over the Bohr-Sommerfeld spectrum.  Raises
    TruncationError unless the first omitted level (bounded below by
    linear extrapolation; level spacing never decreases for this well)
    would contribute less than 1e-16 of the partial sum."""
    _check_theta(Theta)
    energies = np.asarray(spectrum.levels)
    e0 = energies[0]
    partial = float(np.exp(-Theta * (energies - e0)).sum())
    e_next = (2.0 * energies[-1] - energies[-2] if len(energies) >= 2
              else energies[-1] + 1.0)
    if math.exp(-Theta * (e_next - e0)) >= 1e-16 * partial:
        raise TruncationError(
            f"spectrum truncated at n_max={spectrum.n_max} is too short at "
            f"Theta={Theta}: next level ~{e_next:.4g} still contributes")
    return math.exp(-Theta * e0) * partial


# ---------------------------------------------------------------------------
# Specific heat and temperature curves.
# ---------------------------------------------------------------------------

def specific_heat(lnz, Theta: float, target_err: float | None = None):
    """C = Theta^2 d^2(ln Z)/dTheta^2 by five-point stencils at steps h
    and h/2, h = max(1e-3 Theta, 1e-4), Richardson-extrapolated once.
    The two stencils share Theta and Theta +- h, so ln Z is evaluated at
    seven distinct Theta, each once, Theta itself first.
    Returns (C, error_estimate); raises ConvergenceError if a requested
    target error cannot be met (noisy ln Z / collapsed step)."""
    _check_theta(Theta)
    h = min(max(1e-3 * Theta, 1e-4), 0.249 * Theta)
    f0 = lnz(Theta)
    # keyed by offset; 2 (h/2) is h exactly, so both stencils find it
    below = {d: lnz(Theta - d) for d in (0.5 * h, h, 2 * h)}
    above = {d: lnz(Theta + d) for d in (0.5 * h, h, 2 * h)}

    def stencil(hh: float) -> float:
        return (-below[2 * hh] + 16.0 * below[hh] - 30.0 * f0
                + 16.0 * above[hh] - above[2 * hh]) / (12.0 * hh * hh)

    d_h = stencil(h)
    d_h2 = stencil(0.5 * h)
    richardson = (16.0 * d_h2 - d_h) / 15.0
    noise_floor = 1e-14 * max(1.0, abs(f0)) / (0.25 * h * h)
    err = Theta * Theta * (abs(richardson - d_h2) + noise_floor)
    value = Theta * Theta * richardson
    if target_err is not None and err > target_err:
        raise ConvergenceError(
            f"specific heat error estimate {err:.3e} exceeds requested "
            f"{target_err:.3e} at Theta={Theta} (ln Z too noisy for step {h:.1e})")
    return value, err


@dataclass(frozen=True)
class ThermoCurve:
    """Temperature grid with ln Z, specific heat and its error estimate."""

    T_grid: tuple
    lnZ: tuple
    C: tuple
    C_err: tuple

    def __post_init__(self):
        n = len(self.T_grid)
        if any(len(x) != n for x in (self.lnZ, self.C, self.C_err)):
            raise DomainError("curve columns must have equal length")
        if any(b <= a for a, b in zip(self.T_grid, self.T_grid[1:])):
            raise DomainError("temperature grid must be strictly increasing")


def thermo_curve(lnz, T_grid) -> ThermoCurve:
    """Evaluate ln Z and C on a caller-supplied temperature grid
    (the library never invents grids)."""
    ts, lnzs, cs, errs = [], [], [], []
    for T in T_grid:
        if not T > 0.0:
            raise DomainError(f"temperature {T!r} must be positive")
        Theta = 1.0 / T
        c, c_err = specific_heat(lnz, Theta)
        ts.append(float(T))
        lnzs.append(lnz(Theta))
        cs.append(c)
        errs.append(c_err)
    return ThermoCurve(tuple(ts), tuple(lnzs), tuple(cs), tuple(errs))
