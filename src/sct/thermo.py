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
nodes at a time from one family of paths (one array-kernel call).
ln_z2_quartic takes a set of Theta (the seven of a specific-heat
stencil, say) in one pass.  Their scans are one (n_Theta, 120) array,
row i the 40 geometric and 80 linear q_t nodes of Theta i, sorted, and
one family with a Theta per node; so is each round of a batched adaptive
Gauss-Kronrod 21 rule over all their integrals, every node of which gets
the dual-route determinant check.  Each row gives its peak, factored out
of its quadrature, and the cut where the integrand has dropped ~40
e-folds below it (it vanishes at q_Theta); the remainder is controlled
by an analytic tail bound read from the scan's values at the cut,
reported and never silently added.  Where that bound exceeds tol of the
scan's peak times q_cut (its prefactor sums D terms: D ~ 1000), the cut
steps out node by node.  Only the set-up (q_Theta), the ragged panel
edges and the ordered checks run per Theta.  ln Z2 is the primary
quantity; z2_quartic is its exp at one Theta.

The classical Z is carried as its log too.  The radius is scaled by
s = min(Theta^(-1/2), (4/(g Theta))^(1/4)), so that the integrand
x^(D-1) exp(-(a + b x^2) x^2) has a <= 1/2 and b <= 1, one of them at its
bound.  A composite Gauss-Kronrod 21 rule on [0, U(D)], built once per D,
sums exp(ln f - max ln f) in one array pass; a bound on QUADPACK's error
estimate plus an analytic Gaussian bound on the tail beyond U must meet
tol, else the adaptive rule refines the panels, with edges added at the
peak.  ln_z_classical_batch takes a set of Theta in one pass of the fixed
rule, and only the Theta that fail it go to the adaptive rule.

The Bohr-Sommerfeld levels solve J(E_n) = 2 pi (n + 1/2), a slice of
levels at a time, as one array Newton iteration on the phase integral J
and its derivative, the period, both on one Gauss-Legendre rule.
ln_z_wkb_batch sums the spectrum's Boltzmann weights at a set of Theta as
one (n_Theta, n_levels) array.  Each batch's values are its one-Theta
calls' bit for bit (ln_z_classical, ln_z_wkb), and it raises for its first
failing Theta in the order given.

Specific heat is C = Theta^2 d^2(ln Z)/dTheta^2, computed from ln Z with
a five-point stencil plus one Richardson step (at the seven
stencil_thetas); the error estimate rides along with the value.  All of
this is at one Theta; the C(T) row loop over a temperature grid is sct.cli's.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

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
    _check_coupling,
    _check_dimension,
    _check_theta,
    _finite,
    _quartic_action,
    harmonic_action,
    harmonic_canonical_pair,
    q_theta_max,
    quartic_path_from_qt,
)
from .elliptic import jacobi_sn_cn_dn  # noqa: F401  (kept for perfbench's tracer test)

_TWO_PI = 2.0 * math.pi
_LN2 = math.log(2.0)
_LN_TINY = math.log(np.finfo(float).tiny)
_LN_HUGE = math.log(np.finfo(float).max)


def _ln_sphere_surface(D: int) -> float:
    """ln of the surface 2 pi^(D/2) / Gamma(D/2) of the unit (D-1)-sphere,
    from lgamma, so no D overflows."""
    return _LN2 + 0.5 * D * math.log(math.pi) - math.lgamma(0.5 * D)


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
    (the quadratic approximation is exact for a quadratic well).  The
    determinant 2 pi Omega(0, Theta) is taken in logs: it leaves the float
    range from Theta ~ 708.6, Omega itself from ~710.5 (DomainError)."""
    _check_theta(Theta)
    ln_det_l = math.log(_TWO_PI) + math.log(
        omega_kernel(harmonic_canonical_pair()).eval(0.0, Theta))

    def integrand(r):
        return r ** (D - 1) * math.exp(-harmonic_action(r, Theta))

    val, err = quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=tol, limit=200)
    if err > 10.0 * tol * abs(val):
        raise QuadratureError(
            f"harmonic radial integral: error estimate {err:.3e} above tolerance")
    return math.exp(_ln_sphere_surface(D) + math.log(val) - 0.5 * D * ln_det_l)


def jacobian_dq0_dqt(path: QuarticPath):
    """dq0/dq_t at fixed Theta from the determinant identity (elementwise
    for a path family).  The factored form divides out U'(q_t) ~ q_t
    against sqrt(U(q0) - U(q_t)), so q_t = 0 returns the harmonic limit
    cosh(Theta/2) exactly.  Raises DomainError where it overflows."""
    return _finite(path, "dq0/dq_t",
                   lambda: _jacobian(path, _det_longitudinal_closed(path)))


def _jacobian(path: QuarticPath, det_l):
    # jacobian_dq0_dqt from the path's closed-form Delta_l
    qt = path.q_t
    sn, cn = path.sn_T, path.cn_T
    nc2 = 1.0 / (cn * cn)
    # sqrt(2 [U(q0)-U(q_t)]) = q_t (sn/cn) sqrt(1 + q_t^2 (nc^2 + 1) / 2)
    # and U'(q_t) = q_t (1 + q_t^2); one q_t cancels.
    slope_factor = (sn / cn) * np.sqrt(1.0 + 0.5 * qt * qt * (nc2 + 1.0))
    return (1.0 + qt * qt) * det_l / (2.0 * _TWO_PI * slope_factor)


def _log_integrand(g: float, D: int, qt: np.ndarray, Theta, check_routes: bool):
    """ln f = ln J + (D-1) ln q0 + front of the one-loop q_t integrand f
    over an array of turning values q_t > 0 at Theta (one value, or one
    per node), from one path family, where
    front = -I/g - (ln Delta_l + (D-1) ln Delta_t)/2 is the integrand's
    q0-form factor; the Jacobian takes the closed-form Delta_l computed
    for front.  Returns (family, ln f, front).  A non-finite ln f
    (the closed forms overflow at Theta ~ 680) is reported as such before
    check_routes re-derives every node's determinants from the canonical
    pairs, so an overflow is never read as a route mismatch."""
    path = quartic_path_from_qt(qt, Theta)
    with np.errstate(all="ignore"):
        det_l = _det_longitudinal_closed(path)
        det_t = _det_transverse_closed(path)
        front = -_quartic_action(path) / g - 0.5 * (np.log(det_l)
                                                    + (D - 1) * np.log(det_t))
        log_f = np.log(_jacobian(path, det_l)) + (D - 1) * np.log(path.q0) + front
    bad = ~np.isfinite(log_f)
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise QuadratureError(
            f"one-loop integrand overflows at q_t={float(path.q_t[i])!r} for "
            f"D={D}, Theta={float(np.broadcast_to(Theta, qt.shape)[i])!r} "
            f"(Delta_l {float(det_l[i])!r}, "
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
    """(integrals, error estimates), as arrays, of f over
    [edges[j][0], edges[j][-1]] for each integral j, split at its inner
    edges, by globally adaptive Gauss-Kronrod 21.  f(x, j) takes nodes x
    and, per node, the integral j it belongs to.  Each round evaluates f
    once, on the nodes of every open panel of every open integral.  Per
    integral, a round bisects only the panels whose error estimate exceeds
    their share of rtol |integral| (in proportion to width), and the
    integral closes when its total error is within rtol |integral|, or
    would need more than _GK_PANEL_LIMIT panels.  An integral's panels and
    sums are the ones it has when integrated alone."""
    total, total_err = [0.0] * len(edges), [0.0] * len(edges)
    # per open integral: its index, its open panels [lo, hi], its span,
    # the value and error of its closed panels, and its panel count
    still_open = [(j, np.asarray(e[:-1], dtype=float), np.asarray(e[1:], dtype=float),
                   float(e[-1]) - float(e[0]), 0.0, 0.0, len(e) - 1)
                  for j, e in enumerate(edges)]
    while still_open:
        runs, still_open = still_open, []
        sizes = [run[1].size for run in runs]
        which = np.repeat([run[0] for run in runs], _GK_NODES.size * np.array(sizes))
        val, err = _gk21_panels(lambda x: f(x, which), *(
            np.concatenate([run[k] for run in runs]) for k in (1, 2)))
        for (j, lo, hi, span, closed_val, closed_err, n_panels), stop in zip(
                runs, itertools.accumulate(sizes)):
            v, e = val[stop - lo.size:stop], err[stop - lo.size:stop]
            total[j] = closed_val + v.sum()
            total_err[j] = closed_err + e.sum()
            split = e > rtol * abs(total[j]) * (hi - lo) / span
            n_panels += int(split.sum())
            if (total_err[j] <= rtol * abs(total[j]) or not split.any()
                    or n_panels > _GK_PANEL_LIMIT):
                continue
            mid = 0.5 * (lo[split] + hi[split])
            still_open.append((j, np.concatenate([lo[split], mid]),
                               np.concatenate([mid, hi[split]]), span,
                               closed_val + v[~split].sum(),
                               closed_err + e[~split].sum(), n_panels))
    return np.array(total), np.array(total_err)


def _ln_tail_bound(g: float, D: int, q0: float, q_cut: float,
                   front: float) -> float:
    """ln of a bound on the neglected [q_cut, q_Theta) piece, written as a
    q0 integral, from q0 and the q0-form front at the cut.  Along the
    fixed-Theta family U(q0) - U(q_t) never decreases (dq_t/dq0 < 1 and
    U' is increasing), so dI/dq0 >= 2 sqrt(2 [U(q0(q_cut)) - U(q_cut)])
    on the whole tail, and the determinants only grow; the integrand is
    dominated by a decaying exponential with polynomial prefactor (closed
    form below)."""
    gap = 0.5 * (q0 * q0 - q_cut * q_cut) + 0.25 * (q0 ** 4 - q_cut ** 4)
    if gap <= 0.0:
        return math.inf
    ln_decay = math.log(2.0 * math.sqrt(2.0 * gap) / g)
    # term j is (D-1)!/(D-1-j)! q0^(D-1-j) / decay^(j+1), summed as logs
    lgamma_d, ln_q0 = math.lgamma(D), math.log(q0)
    ln_terms = [lgamma_d - math.lgamma(D - j) + (D - 1 - j) * ln_q0
                - (j + 1) * ln_decay for j in range(D)]
    top = max(ln_terms)
    return front + top + math.log(sum(math.exp(t - top) for t in ln_terms))


def _check_tol(tol: float) -> None:
    # a NaN or infinite tol would pass every `err > tol * val` check
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol={tol!r} must be finite and positive")


def ln_z2_quartic(g: float, D: int, Thetas, tol: float = 1e-7) -> list:
    """ln Z2 of the quartic well (see z2_quartic) at each Theta of Thetas:
    per Theta, in the order given, its checks and q_Theta; one
    (n_Theta, 120) array of scans, row i the sorted q_t nodes of Theta i,
    evaluated as one path family, whose row-wise argmaxes give the peaks
    and cuts; per Theta its (ragged) panel edges; one adaptive
    Gauss-Kronrod loop over all the integrals, each round one family whose
    every node gets the dual-route check; then per Theta, in the order
    given, the accuracy check and the tail bound.  ln Z2 has no float range
    to leave: a Theta where Z2 would (D = 8, g = 0.5, Theta > 177) has one."""
    if not 0.0 < g < math.inf:
        raise DomainError(f"g={g!r} must be positive and finite (use z_harmonic at g=0)")
    _check_dimension(D)
    _check_tol(tol)
    thetas = np.array(Thetas, dtype=float).ravel()
    if not thetas.size:
        return []
    scales = []
    for Theta in thetas.tolist():
        _check_theta(Theta)
        # the scan grid covers both the weak-coupling scale
        # sqrt(g / sinh Theta) and the full window [0, q_Theta)
        sigma = (math.sqrt(g / math.sinh(Theta)) if Theta < 700.0
                 else math.sqrt(2.0 * g) * math.exp(-0.5 * Theta))
        if 1e-3 * sigma == 0.0:
            raise QuadratureError(
                f"scan grid start underflows to 0 at Theta={Theta!r} (weak-coupling "
                f"scale {sigma!r})")
        scales.append((sigma, q_theta_max(Theta)))
    sigma, q_cap = np.array(scales).T
    # a start node the two grids share is in its row twice, moving no peak or cut
    scan = np.sort(np.concatenate([
        np.geomspace(np.minimum(1e-3 * sigma, 1e-4 * q_cap),
                     np.minimum(20.0 * sigma, 0.999 * q_cap), 40, axis=1),
        np.linspace(1e-4 * q_cap, 0.9995 * q_cap, 80, axis=1)], axis=1), axis=1)
    n = scan.shape[1]
    family, logs, front = _log_integrand(g, D, scan.ravel(), np.repeat(thetas, n),
                                         check_routes=False)
    logs = logs.reshape(scan.shape)
    i_peak = np.argmax(logs, axis=1)
    log_peak = logs[np.arange(thetas.size), i_peak]
    # the cut is the first node past the peak 40 e-folds below it, else the
    # last node, 0.9995 q_cap
    above = (np.arange(n) > i_peak[:, None]) & (logs < log_peak[:, None] - 40.0)
    i_cuts = np.where(above.any(axis=1), np.argmax(above, axis=1), n - 1)
    edges, tails = [], []
    for row, (Theta, s, i, log_pk) in enumerate(zip(
            thetas.tolist(), sigma.tolist(), i_cuts.tolist(), log_peak.tolist())):
        # the cut steps out while the tail bound (its prefactor sums D terms)
        # exceeds tol of the scan's upper estimate of the value, peak x q_cut
        for j in range(row * n + i, (row + 1) * n):
            q_c = float(family.q_t[j])
            ln_tail = _ln_tail_bound(g, D, float(family.q0[j]), q_c, float(front[j]))
            if ln_tail <= math.log(tol) + log_pk + math.log(q_c):
                break
        inner = {q for q in (float(scan[row, i_peak[row]]), 0.5 * q_c, 2.0 * s)
                 if 0.0 < q < q_c}
        edges.append([0.0] + sorted(inner) + [q_c])
        tails.append((Theta, log_pk, q_c, ln_tail))

    vals, errs = _gauss_kronrod(
        lambda q, j: np.exp(_log_integrand(g, D, q, thetas[j], check_routes=True)[1]
                            - log_peak[j]),
        edges, 0.5 * tol)
    ln_z2 = []
    for (Theta, log_pk, q_cut, ln_tail), val, err in zip(tails, vals.tolist(), errs.tolist()):
        if not val > 0.0 or err > tol * val:
            raise QuadratureError(
                f"quartic q_t quadrature achieved {err:.3e} on value {val:.6e} "
                f"(peak scaled to 1), requested relative {tol:.1e} at "
                f"Theta={Theta!r}")
        ln_val = math.log(val) + log_pk
        if ln_tail > math.log(tol) + ln_val:
            raise QuadratureError(
                f"tail bound e^{ln_tail:.6g} beyond q_t={q_cut:.6g} exceeds "
                f"tolerance {tol:.1e} on value e^{ln_val:.6g} at Theta={Theta!r}")
        ln_z2.append(_ln_sphere_surface(D) - 0.5 * D * math.log(g) + ln_val)
    return ln_z2


def z2_quartic(params: ReducedParams, tol: float = 1e-7) -> float:
    """One-loop partition function of the quartic well: the q_t integral
    of jacobian * q0^(D-1) * exp(-I/g) * (Delta_l Delta_t^(D-1))^(-1/2)
    over [0, q_Theta), times the angular and coupling prefactors; the exp
    of ln_z2_quartic at one Theta.  Raises QuadratureError, naming ln Z2,
    where Z2 leaves the normal float range (at D = 8, g = 0.5 from
    Theta ~ 177, where Z2 ~ e^(-D Theta/2)).

    The one-loop Z carries an O(g) error and is not promised to make ln Z
    convex in Theta, so the C(T) derived from it may dip below zero at
    T << 1, where the true C is itself far below that error (at g = 0.5,
    D = 1, T = 0.1 the one-loop C is about -4e-3 and the exact C about
    +6e-4)."""
    g, D, Theta = params.g, params.D, params.Theta
    (ln_z2,) = ln_z2_quartic(g, D, [Theta], tol)
    if not _LN_TINY <= ln_z2 <= _LN_HUGE:
        raise QuadratureError(
            f"Z2 leaves the normal float range at D={D}, Theta={Theta!r}: "
            f"ln Z2 = {ln_z2!r}")
    return math.exp(ln_z2)


# the classical radial rule: _CL_PANELS equal Gauss-Kronrod 21 panels on
# [0, 1] (their edges and nodes t), scaled onto [0, U(D)]
_CL_PANELS = 32
_CL_EDGES = np.linspace(0.0, 1.0, _CL_PANELS + 1)
_CL_T = (0.5 * (_CL_EDGES[:-1] + _CL_EDGES[1:])[:, None]
         + (0.5 / _CL_PANELS) * _GK_NODES).ravel()
_LN4 = math.log(4.0)
# the tail beyond U is bounded e^-40 below the least scaled integral
_CL_TAIL_EFOLDS = 40.0
# extra edges for the adaptive rule, in widths of the peak from its centre
_CL_PEAK_EDGES = (-8.0, -2.0, 0.0, 2.0, 8.0)


@functools.lru_cache(maxsize=64)
def _classical_rule(D: int):
    """The classical radial rule for dimension D: its end U, ln of a bound
    T on the integral beyond U, and the columns (D-1) ln x, -x^2, -x^4, -1
    at its nodes x = U t, so that ln f - c = columns @ (1, a, b, c).

    For x >= U >= 1/sqrt(2) the integrand x^(D-1) exp(-(a + b x^2) x^2)
    is at most x^(D-1) e^(-x^2/2) (a = 1/2, or b = 1 and x^4 >= x^2/2),
    whose integral over [U, inf) is
    2^(D/2-1) Gamma(D/2, U^2/2) <= U^(D-2) e^(-U^2/2) / (1 - (D-2)/U^2)
    (the last factor for D >= 3 only, U^2 > D - 2).  U is the first point
    of a 2 % ladder from sqrt(D) + 1 where T lies _CL_TAIL_EFOLDS below the
    least the integral can be: from x^2/2 <= (1 + x^4)/4 it is at least
    e^(-1/4) Gamma(D/4) (5/4)^(-D/4) / 4."""
    ln_floor = -0.25 - _LN4 - 0.25 * D * math.log(1.25) + math.lgamma(0.25 * D)
    U = math.sqrt(D) + 1.0
    while True:
        ln_tail = ((D - 2) * math.log(U) - 0.5 * U * U
                   - math.log1p(-max(D - 2, 0) / (U * U)))
        if ln_tail <= ln_floor - _CL_TAIL_EFOLDS:
            break
        U *= 1.02
    x = U * _CL_T
    columns = np.stack([(D - 1) * np.log(x), -x ** 2, -x ** 4, -np.ones_like(x)],
                       axis=1)
    columns.flags.writeable = False  # shared by every call at this D
    return U, ln_tail, columns


def _radial_peak(D: int, a: float, b: float):
    """(ln f_max, its x, its width 1/sqrt(-(ln f)'')) of the scaled radial
    integrand f = x^(D-1) exp(-(a + b x^2) x^2).  ln f is largest at
    x^2 = y, the positive root of 4b y^2 + 2a y = D-1 (at x = 0, where
    ln f = 0, for D = 1, with width ~1: e^(-x^4) for a -> 0)."""
    if D == 1:
        return 0.0, 0.0, 1.0
    y = 2.0 * (D - 1) / (2.0 * a + math.sqrt(4.0 * a * a + 16.0 * b * (D - 1)))
    return (0.5 * (D - 1) * math.log(y) - (a + b * y) * y, math.sqrt(y),
            1.0 / math.sqrt((D - 1) / y + 2.0 * a + 12.0 * b * y))


def _scaled_radial_integral(D: int, a, b, tol: float, Thetas):
    """(ln I, relative error estimate), as lists, of I = int_0^inf
    x^(D-1) exp(-(a_i + b_i x^2) x^2) dx for each pair of the sequences a
    and b, a_i <= 1/2, b_i <= 1, one of them at its bound; Thetas name the
    pairs in errors.

    The integrand is taken as exp(ln f - ln f_max), ln f_max in closed
    form.  The precomputed equal panels on [0, U(D)] give every integral
    in one pass, one matrix-vector product per integral (so its bits are
    those it has alone).  An integral is done if a bound on QUADPACK's
    error estimate there, plus the tail bound beyond U, is within tol of
    I: a panel's estimate is at most 200 times its Kronrod - Gauss
    difference d (the largest min(r, (200 d)^1.5 / sqrt(r)) over r is
    200 d) plus the 50 eps rounding floor.  Otherwise, in the order given,
    the adaptive rule, which starts from QUADPACK's own estimate, refines
    its panels with edges added at the peak and around it, and must meet
    tol, else QuadratureError.  That is the case where the peak, which
    narrows as D grows, falls between the nodes: their values then
    underflow to 0, or the few left are far from smooth and d is of the
    order of the value (neighbouring nodes alternate between the Gauss
    and the Kronrod-only sets)."""
    U, ln_tail, columns = _classical_rule(D)
    peaks = [_radial_peak(D, a_i, b_i) for a_i, b_i in zip(a, b)]
    coefs = np.array([(1.0, a_i, b_i, peak) for a_i, b_i, (peak, _, _) in zip(a, b, peaks)])
    fx = np.exp(columns @ coefs[:, :, None]).reshape(len(a), _CL_PANELS, -1)
    kronrod = fx @ _GK_KRONROD
    half = 0.5 * U / _CL_PANELS
    vals = half * kronrod.sum(axis=1)
    errs = (200.0 * half * np.abs(kronrod - fx @ _GK_GAUSS).sum(axis=1)
            + 50.0 * _EPS * vals)

    def rel_error(val, err, peak):
        if not val > 0.0:
            return math.inf
        return err / val + math.exp(ln_tail - peak - math.log(val))

    ln_i, rels = [], []
    for Theta, a_i, b_i, (peak, x_peak, width), val, err in zip(
            Thetas, a, b, peaks, vals.tolist(), errs.tolist()):
        rel = rel_error(val, err, peak)
        if rel > tol:
            near = [x_peak + k * width for k in _CL_PEAK_EDGES]
            (val,), (err,) = _gauss_kronrod(
                lambda x, _: np.exp((D - 1) * np.log(x) - (a_i + b_i * x * x) * x * x
                                    - peak),
                [np.union1d(U * _CL_EDGES, [x for x in near if 0.0 < x < U])],
                0.5 * tol)
            rel = rel_error(val, err, peak)
            if rel > tol:
                raise QuadratureError(
                    f"classical radial integral at D={D}, Theta={Theta!r} "
                    f"(a={a_i!r}, b={b_i!r}): relative error estimate "
                    f"{rel:.3e} above tolerance {tol:.1e}")
        ln_i.append(math.log(val) + peak)
        rels.append(rel)
    return ln_i, rels


def ln_z_classical_batch(g: float, D: int, Thetas, tol: float = 1e-10) -> list:
    """ln_z_classical at each Theta of Thetas, as one pass of the fixed
    rule (see _scaled_radial_integral); each value is bit for bit its
    one-Theta call's, and a failure raises for the first failing Theta in
    the order given."""
    _check_coupling(g)
    _check_dimension(D)
    _check_tol(tol)
    thetas = np.array(Thetas, dtype=float).ravel().tolist()
    if not thetas:
        return []
    scalings = []
    for Theta in thetas:
        _check_theta(Theta)
        if g <= 4.0 * Theta:
            scalings.append((-0.5 * math.log(Theta), 0.5, 0.25 * g / Theta))
        else:
            scalings.append((0.25 * (_LN4 - math.log(g) - math.log(Theta)),
                             math.sqrt(Theta / g), 1.0))
    ln_s, a, b = zip(*scalings)
    ln_i, _ = _scaled_radial_integral(D, a, b, tol, thetas)
    ln_surface = _ln_sphere_surface(D)
    return [-0.5 * D * math.log(_TWO_PI * Theta) + ln_surface + D * ln_s_i + ln_i_i
            for Theta, ln_s_i, ln_i_i in zip(thetas, ln_s, ln_i)]


def ln_z_classical(params: ReducedParams, tol: float = 1e-10) -> float:
    """ln of the classical partition function (2 pi Theta)^(-D/2) int d^D x
    e^(-Theta V), V(r) = r^2/2 + g r^4/4 in reduced units.  With r = s x,
    s = min(Theta^(-1/2), (4/(g Theta))^(1/4)), it is
    -(D/2) ln(2 pi Theta) + ln S_D + D ln s + ln I, where I is the scaled
    radial integral (_scaled_radial_integral), so no Theta overflows; the
    one-Theta call of ln_z_classical_batch."""
    return ln_z_classical_batch(params.g, params.D, [params.Theta], tol)[0]


def z_classical(params: ReducedParams, tol: float = 1e-10) -> float:
    """Classical partition function, exp of ln_z_classical: the radius
    scaled to the potential's own width, a precomputed composite
    Gauss-Kronrod rule, log-space assembly and an analytic tail bound."""
    return math.exp(ln_z_classical(params, tol))


# ---------------------------------------------------------------------------
# Bohr-Sommerfeld reference spectrum (one dimension).
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(96)
# mapped once onto [0, pi/2]
_GL_PHI = 0.25 * math.pi * (_GL_NODES + 1.0)
_GL_W = 0.25 * math.pi * _GL_WEIGHTS
_GL_W_COS2 = _GL_W * np.cos(_GL_PHI) ** 2
_GL_1PSIN2 = 1.0 + np.sin(_GL_PHI) ** 2
# a level's Newton solve stops once its step is within 1e-13 + 16 eps E:
# near the root the step is rounding noise of up to ~4 eps J / period, and
# J <= (4/3) E period (harmonic 1, quartic 4/3)
_BS_XTOL, _BS_RTOL = 1e-13, 16.0 * np.finfo(float).eps
_BS_MAX_STEPS = 100


def _phase_and_period(energy: np.ndarray, g: float):
    """Closed-orbit phase integral J(E) of p = sqrt(2 [E - V(x)]) for
    V = x^2/2 + g x^4/4, and its derivative dJ/dE, the period,
    elementwise over energies E > 0.  The substitution x = x_+ sin(phi)
    removes the turning-point singularity: with
    s = sqrt(1 + g x_+^2 (1 + sin^2 phi)/2) the integrands
    4 x_+^2 cos^2(phi) s and 4 / s are analytic on [0, pi/2], so fixed
    Gauss-Legendre converges spectrally.  Each energy's sums run over its
    own row (numpy's pairwise sum, not a BLAS product), so its bits do not
    depend on the other energies in the array."""
    # x_+^2 = (sqrt(1+4gE)-1)/g without small-g cancellation, and its
    # limit 2 sqrt(E/g) where 4gE overflows (g > 0 there)
    four_ge = 4.0 * g * energy
    xp2 = 4.0 * energy / (1.0 + np.sqrt(1.0 + four_ge))
    huge = np.isinf(four_ge)
    if huge.any():
        xp2 = np.where(huge, 2.0 * np.sqrt(energy / g), xp2)
    s = np.sqrt(1.0 + 0.5 * g * xp2[..., None] * _GL_1PSIN2)
    return 4.0 * xp2 * (_GL_W_COS2 * s).sum(axis=-1), 4.0 * (_GL_W / s).sum(axis=-1)


def _phase_integral(energy, g: float):
    """J(E), elementwise (see _phase_and_period)."""
    return _phase_and_period(np.asarray(energy, dtype=float), g)[0]


def _bohr_sommerfeld_levels(g: float, first: int, last: int) -> np.ndarray:
    """Levels E_first..E_last solving J(E_n) = 2 pi (n + 1/2), as one array
    Newton iteration.  Each starts at n + 1/2, a lower bound as
    J(E) <= 2 pi E for g >= 0; J increases and is concave (the period falls
    with E), so each level's iterates climb to its root without a bracket.
    A level stops on its own step (within 1e-13 + 16 eps E), so its bits do
    not depend on the levels solved with it.  Raises ConvergenceError for
    the first level that has not stopped after _BS_MAX_STEPS steps or
    misses its phase by over 1e-9 (where 4gE overflows, J reads 0)."""
    n = np.arange(first, last + 1, dtype=float)
    target = _TWO_PI * (n + 0.5)
    energy = n + 0.5
    todo = np.arange(n.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_BS_MAX_STEPS):
            phase, period = _phase_and_period(energy[todo], g)
            step = (target[todo] - phase) / period
            energy[todo] += step
            todo = todo[~(np.abs(step) <= _BS_XTOL + _BS_RTOL * energy[todo])]
            if not todo.size:
                break
        resid = np.abs(_phase_integral(energy, g) - target)
    failed = ~(resid <= 1e-9)
    failed[todo] = True
    if failed.any():
        i = int(np.flatnonzero(failed)[0])
        raise ConvergenceError(
            f"level {first + i}: quantization residual {resid[i]:.3e} above 1e-9 "
            f"at g={g!r}, E={float(energy[i])!r}, after at most {_BS_MAX_STEPS} Newton "
            f"steps")
    return energy


@dataclass(frozen=True)
class WkbSpectrum:
    """Bohr-Sommerfeld levels E_0..E_{n_max} of the one-dimensional
    quartic well, each solving  (phase integral)(E_n) = 2 pi (n + 1/2).
    The levels are also kept as an array, built once, for the sums."""

    levels: tuple
    g: float
    _energies: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        energies = np.asarray(self.levels, dtype=float)
        if not energies.size or not np.isfinite(energies).all():
            raise DomainError("levels must be finite, and at least one")
        if energies[0] <= 0.0:
            raise DomainError("ground state must be positive")
        if np.any(energies[1:] <= energies[:-1]):
            raise DomainError("levels must be strictly increasing")
        object.__setattr__(self, "_energies", energies)

    @property
    def n_max(self) -> int:
        return len(self.levels) - 1


def wkb_levels(g: float, n_max: int) -> WkbSpectrum:
    """Solve the Bohr-Sommerfeld condition for levels 0..n_max (D = 1).

    This is the lowest-order rule: it quantizes the classical energy
    E(I) = I + (3g/8) I^2 - (17g^2/64) I^3 + ... at action I = n + 1/2,
    so at small g the ground state is E_0 ~ 1/2 + 3g/32, not the quantum
    first-order 1/2 + 3g/16 (that shift needs higher-order WKB terms)."""
    _check_coupling(g)
    if isinstance(n_max, bool) or not isinstance(n_max, numbers.Integral) or n_max < 0:
        raise DomainError(f"n_max={n_max!r} must be an integer >= 0")
    return WkbSpectrum(tuple(_bohr_sommerfeld_levels(g, 0, n_max).tolist()), g)


def ln_z_wkb_batch(spectrum: WkbSpectrum, Thetas) -> list:
    """ln_z_wkb at each Theta of Thetas, as one (n_Theta, n_max + 1)
    exp-sum; each value is bit for bit its one-Theta call's, and a
    truncation raises for the first truncated Theta in the order given."""
    thetas = np.array(Thetas, dtype=float).ravel()
    for Theta in thetas.tolist():
        _check_theta(Theta)
    energies = spectrum._energies
    e0 = float(energies[0])
    e_next = (2.0 * float(energies[-1]) - float(energies[-2]) if len(energies) >= 2
              else float(energies[-1]) + 1.0)
    partials = np.exp(-thetas[:, None] * (energies - e0)).sum(axis=1)
    ln_z = []
    for Theta, partial in zip(thetas.tolist(), partials.tolist()):
        if math.exp(-Theta * (e_next - e0)) >= 1e-16 * partial:
            raise TruncationError(
                f"spectrum truncated at n_max={spectrum.n_max} is too short at "
                f"Theta={Theta}: next level ~{e_next:.4g} still contributes")
        ln_z.append(-Theta * e0 + math.log(partial))
    return ln_z


def ln_z_wkb(spectrum: WkbSpectrum, Theta: float) -> float:
    """ln of the partition sum over the Bohr-Sommerfeld spectrum,
    -Theta E_0 + ln sum_n e^(-Theta (E_n - E_0)), in log space so large
    Theta cannot underflow; the one-Theta call of ln_z_wkb_batch.  Raises
    TruncationError unless the first omitted level (bounded below by
    linear extrapolation; level spacing never decreases for this well)
    would contribute less than 1e-16 of the partial sum."""
    return ln_z_wkb_batch(spectrum, [Theta])[0]


def z_wkb(spectrum: WkbSpectrum, Theta: float) -> float:
    """Partition sum over the Bohr-Sommerfeld spectrum, exp of ln_z_wkb."""
    return math.exp(ln_z_wkb(spectrum, Theta))


def wkb_spectrum(g: float, Theta_min: float) -> WkbSpectrum:
    """The Bohr-Sommerfeld spectrum whose partition sum is not truncated
    at Theta_min, nor at any larger Theta: n_max doubles from 32 (to at
    most 8192, else TruncationError), and each doubling passes the levels
    it adds to one Newton solve, so the result is wkb_levels(g, n_max)."""
    _check_coupling(g)
    _check_theta(Theta_min)
    energies = np.empty(0)
    n_max = 32
    while True:
        energies = np.concatenate(
            [energies, _bohr_sommerfeld_levels(g, energies.size, n_max)])
        spectrum = WkbSpectrum(tuple(energies.tolist()), g)
        try:
            ln_z_wkb(spectrum, Theta_min)
            return spectrum
        except TruncationError:
            if n_max >= 8192:
                raise
            n_max *= 2


# ---------------------------------------------------------------------------
# Specific heat.
# ---------------------------------------------------------------------------

def _stencil(Theta: float):
    # the step h and the seven Theta of specific_heat's stencils
    _check_theta(Theta)
    h = min(max(1e-3 * Theta, 1e-4), 0.249 * Theta)
    if 0.25 * h * h == 0.0:
        raise _stencil_error(Theta, h)
    half, double = 0.5 * h, 2 * h
    return h, (Theta, Theta - half, Theta - h, Theta - double,
               Theta + half, Theta + h, Theta + double)


def stencil_thetas(Theta: float) -> tuple:
    """The seven Theta at which specific_heat evaluates ln Z, in its order:
    Theta, Theta - h/2, Theta - h, Theta - 2h, Theta + h/2, Theta + h,
    Theta + 2h, bit for bit.  Raises ConvergenceError where the step
    collapses, (h/2)^2 underflowing to 0 (Theta below ~1e-162)."""
    return _stencil(Theta)[1]


def specific_heat(lnz, Theta: float):
    """C = Theta^2 d^2(ln Z)/dTheta^2 by five-point stencils at steps h
    and h/2, h = max(1e-3 Theta, 1e-4), Richardson-extrapolated once.
    The two stencils share Theta and Theta +- h, so ln Z is evaluated at
    the seven distinct stencil_thetas(Theta), each once, Theta itself
    first.
    Returns (C, error_estimate); raises ConvergenceError if C or its
    error is not finite, as where (h/2)^2 or Theta^2 leaves the normal
    float range (Theta below ~1e-154 or above ~1e154)."""
    h, thetas = _stencil(Theta)
    # ln Z at Theta, then below and above it at offsets h/2, h and 2h
    f0, b1, b2, b4, a1, a2, a4 = [lnz(theta) for theta in thetas]

    def stencil(hh: float, below_1, below_2, above_1, above_2) -> float:
        return (-below_2 + 16.0 * below_1 - 30.0 * f0
                + 16.0 * above_1 - above_2) / (12.0 * hh * hh)

    d_h = stencil(h, b2, b4, a2, a4)
    d_h2 = stencil(0.5 * h, b1, b2, a1, a2)
    richardson = (16.0 * d_h2 - d_h) / 15.0
    noise_floor = 1e-14 * max(1.0, abs(f0)) / (0.25 * h * h)
    err = Theta * Theta * (abs(richardson - d_h2) + noise_floor)
    value = Theta * Theta * richardson
    if not (math.isfinite(value) and math.isfinite(err)):
        raise _stencil_error(Theta, h)
    return value, err


def _stencil_error(Theta: float, h: float) -> ConvergenceError:
    return ConvergenceError(
        f"specific heat at Theta={Theta!r} is not finite: the stencil "
        f"divides by (h/2)^2 = {0.25 * h * h!r}")


@dataclass(frozen=True)
class ThermoCurve:
    """Temperature grid with ln Z, specific heat and its error estimate,
    as sct.cli.thermo_curve evaluates them."""

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
