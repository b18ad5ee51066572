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
stencil, say) in one pass: each round of a batched adaptive
Gauss-Kronrod 21 rule over all their integrals is one family with a
Theta per node, and sums the determinants that passed the dual-route
check.  The first round's panels come from scales smooth in Theta: the
weak-coupling width sqrt(g / sinh Theta), for D > 1 the weak-coupling
radial peak, and fractions of q_Theta, up to 0.9995 q_Theta.  Each
integral is scaled by the largest integrand on its first round's nodes
(it vanishes at q_Theta), and the remainder up to q_Theta is controlled
by an analytic tail bound read at its largest first-round node,
reported and never silently added.  Only the set-up (q_Theta, the
panel edges) and the ordered checks run per Theta.  ln Z2 is the
primary quantity; z2_quartic is its exp at one Theta.

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

Specific heat is C = Theta^2 d^2(ln Z)/dTheta^2.  For the one-loop Z2 it
comes from one Theta: ln_z2_quartic's moment route integrates the
Theta-derivatives X, Y of ln f at fixed q_t against f on the same panels
(d^2 ln Z2/dTheta^2 = <(X - <X>)^2 + Y>) and returns an LnZ record, a
float carrying both derivatives and their errors.  For a plain ln Z it
comes from a five-point stencil plus one Richardson step (at the seven
stencil_thetas).  The error estimate rides along with the value.  All of
this is at one Theta; the C(T) row loop over a temperature grid is sct.cli's.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    QuadratureError,
    TruncationError,
)
from .fluctuations import (
    _det_longitudinal_closed,
    _omega,
    det_longitudinal,
    det_transverse,
)
from .paths import (
    QuarticPath,
    ReducedParams,
    _check_integer,
    _check_nonnegative,
    _check_positive,
    _check_theta,
    _finite,
    _quartic_action,
    harmonic_action,
    harmonic_canonical_pair,
    q_theta_max,
    quartic_path_from_qt,
)
from .elliptic import _M1_SWITCH
from .elliptic import jacobi_sn_cn_dn  # noqa: F401  (kept for perfbench's tracer test)

_TWO_PI = 2.0 * math.pi
_LN2 = math.log(2.0)
_LN_TINY = math.log(np.finfo(float).tiny)
_LN_HUGE = math.log(np.finfo(float).max)
_LN4 = math.log(4.0)
_SQRT2 = math.sqrt(2.0)


def _ln_sphere_surface(D: int) -> float:
    """ln of the surface 2 pi^(D/2) / Gamma(D/2) of the unit (D-1)-sphere,
    from lgamma, so no D overflows."""
    return _LN2 + 0.5 * D * math.log(math.pi) - math.lgamma(0.5 * D)


def ln_z_harmonic(D: int, Theta: float) -> float:
    """ln of the harmonic partition function, -D ln(2 sinh(Theta/2)), in log
    space so large Theta cannot overflow; ln(1 - e^-Theta) is ln(-expm1(-Theta))
    up to Theta = ln 2, where log1p(-e^-Theta) loses digits (Maechler 2012)."""
    _check_theta(Theta)
    _check_integer("dimension D", D, 1)
    log1mexp = (math.log1p(-math.exp(-Theta)) if Theta > _LN2
                else math.log(-math.expm1(-Theta)))
    return -D * (0.5 * Theta + log1mexp)


def z_harmonic(D: int, Theta: float) -> float:
    """Harmonic partition function [2 sinh(Theta/2)]^-D; DomainError if it overflows."""
    ln_z = ln_z_harmonic(D, Theta)
    return _finite(lambda i: f"D={D}, Theta={Theta!r}", "Z", lambda: math.exp(ln_z))


def z2_harmonic_integral(D: int, Theta: float) -> float:
    """End-to-end pipeline check: the radial one-loop integral with the
    harmonic action and determinant must reproduce z_harmonic exactly
    (the quadratic approximation is exact for a quadratic well).  For the
    action I(1) r^2, r = x / sqrt(2 I(1)) gives _scaled_radial_integral's
    x^(D-1) e^(-x^2/2), to 1e-10; all is taken in logs, so the determinant
    2 pi Omega(0, Theta) may leave the float range (from Theta ~ 708.6;
    Omega from ~710.5 raises DomainError), and Z raises where z_harmonic's
    overflows."""
    _check_theta(Theta)
    _check_integer("dimension D", D, 1)
    ln_det_l = math.log(_TWO_PI) + math.log(
        _omega(harmonic_canonical_pair(), 0.0, Theta))
    (ln_i,), _ = _scaled_radial_integral(D, [0.5], [0.0], 1e-10, [Theta])
    # 0.5 / I(1) is inf, or divides by 0, where Theta is subnormal
    return _finite(lambda i: f"D={D}, Theta={Theta!r}", "Z", lambda: math.exp(
        _ln_sphere_surface(D) + ln_i
        + 0.5 * D * (math.log(0.5 / harmonic_action(1.0, Theta)) - ln_det_l)))


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


def _log_integrand(g: float, D: int, path: QuarticPath, det_l, det_t):
    """ln f = ln J + (D-1) ln q0 + front of the one-loop q_t integrand f
    over a family of paths (one Theta, or one per node), from the
    determinants Delta_l, Delta_t that the caller hands in, where
    front = -I/g - (ln Delta_l + (D-1) ln Delta_t)/2 is the integrand's
    q0-form factor; the Jacobian takes the same Delta_l.  Returns
    (ln f, front).  A non-finite ln f (the closed forms overflow at
    Theta ~ 680) raises QuadratureError naming the node."""
    with np.errstate(all="ignore"):
        front = -_quartic_action(path) / g - 0.5 * (np.log(det_l)
                                                    + (D - 1) * np.log(det_t))
        log_f = np.log(_jacobian(path, det_l)) + (D - 1) * np.log(path.q0) + front
    bad = ~np.isfinite(log_f)
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise QuadratureError(
            f"one-loop integrand overflows at q_t={float(path.q_t[i])!r} for "
            f"D={D}, Theta={float(np.broadcast_to(path.Theta, path.q_t.shape)[i])!r} "
            f"(Delta_l {float(det_l[i])!r}, "
            f"Delta_t {float(det_t[i])!r}, ln integrand {float(log_f[i])!r})")
    return log_f, front


def _sharpened(path: QuarticPath) -> QuarticPath:
    """The family with cn, dn and q0 at u_T re-derived where the ladder's
    lose digits.  The ladder's cn and dn (m1 >= 1e-12) share a relative
    error ~eps / cn near the half period, cn = cos(phi) at phi ~ pi/2,
    which cancels in their ratio: where m1 sn^2 nc^2 = (dn/cn)^2 - 1
    exceeds cn, nc^2 is taken from it.  ln f moves by that error (~1e-11
    at Theta = 20), and its Theta-derivatives, whose variance cancels to
    ~1e-8 of its terms there, need it gone."""
    sn, cn, dn, m1 = path.sn_T, path.cn_T, path.dn_T, path.m1
    with np.errstate(all="ignore"):
        ratio = dn / cn
        excess = ratio * ratio - 1.0
        better = (m1 >= _M1_SWITCH) & (excess > cn)
        cn = np.where(better, np.sqrt(m1) * sn / np.sqrt(excess), cn)
    return dataclasses.replace(path, cn_T=cn, dn_T=np.where(better, ratio * cn, dn),
                               q0=path.q_t / cn)


def _theta_derivatives(g: float, D: int, path: QuarticPath, det_l, det_t):
    """((X, Y, noise), (lam, tw, p0)): X = d ln f / dTheta and
    Y = d^2 ln f / dTheta^2 at fixed q_t over a family of paths, from its
    half-period values and the determinants handed in; a bound on the
    rounding error of ln f, 4 eps times the sum of the magnitudes of the
    action's terms over g (they cancel to O(q_t^2) at small q_t, so
    I/g carries ~eps/g); and the three terms that bound the moments' tail
    (_ln_moment_tail_bounds).  At fixed q_t only u = s Theta/2
    moves, d/dTheta = (s/2) d/du, with sn' = cn dn, cn' = -sn dn,
    dn' = -k^2 sn cn (DLMF 22.13.1-3) and epsilon' = dn^2.  Up to
    constants ln f = ln Delta_l / 2 - ln(sn/cn) - ln R / 2 + (D-1) ln q0
    - (D-1) ln Delta_t / 2 - I/g, R = 1 + q_t^2 (1 + nc^2) / 2, whose
    u-derivative collects to X_u = e1 - (lam + r + (D-1) tw) / 2 with
    a = sn dn/cn = (ln q0)', e1 = a - k^2 sn cn/dn = m1 sn/(cn dn),
    r = q0^2 a / R, and lam = 4 pi / (s Delta_l), tw = 4 pi / (s Delta_t)
    the log-derivatives of the brackets of the closed forms.  The action is
    not differentiated: by Hamilton-Jacobi dI/dTheta = U(q_t) + p0^2 and
    d^2 I/dTheta^2 = U'(q0) p0, p0 = s a q0 the endpoint speed, sums of
    positive terms."""
    q_t, s, k2, m1, q0 = path.q_t, path.s, path.k * path.k, path.m1, path.q0
    sn, cn, dn, u = path.sn_T, path.cn_T, path.dn_T, path.u_T
    with np.errstate(all="ignore"):
        nc2 = 1.0 / (cn * cn)
        u_t = q_t * q_t * (0.5 + 0.25 * q_t * q_t)
        # the magnitudes of _quartic_action's terms
        boundary = sn * (1.0 + 0.5 * q_t * q_t * nc2) * np.sqrt(
            1.0 + 0.5 * q_t * q_t * (1.0 + nc2))
        noise = (4.0 * _EPS / g) * (path.Theta * u_t + (4.0 / 3.0) * (
            s * (np.abs(path.eps_T) + 0.5 * q_t * q_t * u) + np.abs(boundary)))
        a = sn * dn / cn
        c1 = cn * dn / sn
        c2 = k2 * sn * cn / dn
        e1 = m1 * sn / (cn * dn)
        z = q0 * q0
        big_r = 1.0 + 0.5 * (q_t * q_t + z)
        r = z * a / big_r
        # a' = dn^2 nc^2 - k^2 sn^2, written without cancellation
        a_prime = cn * cn + m1 * sn * sn * (1.0 + nc2)
        lam = 2.0 * _TWO_PI / (s * det_l)
        tw = 2.0 * _TWO_PI / (s * det_t)
        x_u = e1 - 0.5 * (lam + r + (D - 1) * tw)
        y_u = (e1 * (c1 + a + c2) + lam * (2.0 * a + c1 - c2) - 0.5 * lam * lam
               - 0.5 * ((2.0 * a * a + a_prime) * z / big_r - r * r)
               + (D - 1) * tw * (a + 0.5 * tw))
        p0 = s * a * q0
        half_s = 0.5 * s
        x = half_s * x_u - (u_t + p0 * p0) / g
        y = half_s * half_s * y_u - q0 * (1.0 + z) * p0 / g
    return (x, y, noise), (lam, tw, p0)


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


def _gk21_panels(fx: np.ndarray, half: np.ndarray):
    """Kronrod estimates and QUADPACK error estimates on panels of
    half-widths half, from the integrand's 21 values on each (a row)."""
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


def _gk21_moments(w, dx, y, noise, half):
    """Per panel of half-width half, from f, X - c, Y and ln f's rounding
    bound on its 21 nodes (rows), an array of shape (3, 3, panels): the
    (value, error estimate, absolute size) of M1 = int f (X - c) and of
    M2 = int f ((X - c)^2 + Y), the sizes being the integrals of
    f |X - c| and f ((X - c)^2 + |Y|), and the Kronrod sums of f noise
    times 1, |X - c| and (X - c)^2 + |Y|: the rounding's share of the
    error of int f, M1 and M2."""
    w_dx = w * dx
    w_dx2, w_y = w_dx * dx, w * y
    sizes = np.stack([np.abs(w_dx), w_dx2 + np.abs(w_y)])
    halves = np.concatenate([half, half])
    val, err = _gk21_panels(np.concatenate([w_dx, w_dx2 + w_y]), halves)
    size = sizes @ _GK_KRONROD * half
    rounding = np.stack([w, *sizes]) * noise @ _GK_KRONROD * half
    return np.concatenate([np.stack([val.reshape(2, -1), err.reshape(2, -1), size],
                                    axis=1), rounding[None]])


def _gauss_kronrod(log_f, edges, rtol: float, moments: bool = False):
    """(integrals, error estimates, scales), as arrays, of exp(log_f -
    scale_j) over [edges[j][0], edges[j][-1]] for each integral j, split
    at its inner edges, by globally adaptive Gauss-Kronrod 21; scale_j is
    the largest log_f on its first round's nodes.  log_f(x, j) takes
    nodes x and, per node, the integral j it belongs to.  Each round
    evaluates log_f once, on the nodes of every open panel of every open
    integral, integral by integral (the first round every integral's, in
    increasing order).  Per integral, a round bisects only the panels
    whose error estimate exceeds their share of rtol |integral| (in
    proportion to width), and the integral closes when its total error is
    within rtol |integral|, or would need more than _GK_PANEL_LIMIT
    panels.  An integral's panels and sums are the ones it has when
    integrated alone.

    With moments, log_f returns (ln f, X, Y, noise) on the nodes, and each
    integral j also carries the Theta-moments M1 = int f (X - c_j) and
    M2 = int f ((X - c_j)^2 + Y) on the same panels, centred at c_j, the
    mean of X under f on its first round (the Kronrod sums' ratio), so the
    variance M2 / I - (M1 / I)^2 loses no digits to <X>^2.  Their panels
    are bisected and their integrals closed by the same rule, with rtol
    taken of the integrals of f |X - c_j| and f ((X - c_j)^2 + |Y|).
    Returns then also (centres, sums): sums[j] is _gk21_moments' (3, 3)
    array summed over the integral's final panels, in the scaled units.
    X, Y and noise where f underflows to 0 (they may overflow there) count
    as 0."""
    total, total_err = [0.0] * len(edges), [0.0] * len(edges)
    scales = centres = None
    sums = [None] * len(edges)
    no_moments = np.zeros((3, 3)) if moments else None
    # per open integral: its index, its open panels [lo, hi], its span,
    # the value and error of its closed panels, its panel count and, with
    # moments, the (value, error, size) of its closed panels' moments
    still_open = [(j, np.asarray(e[:-1], dtype=float), np.asarray(e[1:], dtype=float),
                   float(e[-1]) - float(e[0]), 0.0, 0.0, len(e) - 1, no_moments)
                  for j, e in enumerate(edges)]
    while still_open:
        runs, still_open = still_open, []
        sizes = [run[1].size for run in runs]
        which = [run[0] for run in runs]
        all_lo, all_hi = (np.concatenate([run[k] for run in runs]) for k in (1, 2))
        center, half = 0.5 * (all_lo + all_hi), 0.5 * (all_hi - all_lo)
        out = log_f((center[:, None] + half[:, None] * _GK_NODES).ravel(),
                    np.repeat(which, _GK_NODES.size * np.array(sizes)))
        logs, *xy = out if moments else (out,)
        logs = logs.reshape(half.size, -1)
        if scales is None:  # the first round holds every integral, in order
            starts = np.cumsum([0] + sizes[:-1])
            scales = np.maximum.reduceat(logs.max(axis=1), starts)
        w = np.exp(logs - np.repeat(scales[which], sizes)[:, None])
        val, err = _gk21_panels(w, half)
        if moments:
            live = w > 0.0
            x, y, noise = (np.where(live, v.reshape(half.size, -1), 0.0) for v in xy)
            with np.errstate(all="ignore"):
                if centres is None:
                    centres = (np.add.reduceat((w * x) @ _GK_KRONROD * half, starts)
                               / np.add.reduceat(val, starts))
                moment = _gk21_moments(w, x - np.repeat(centres[which], sizes)[:, None],
                                       y, noise, half)
        for (j, lo, hi, span, closed_val, closed_err, n_panels, closed_m), stop in zip(
                runs, itertools.accumulate(sizes)):
            v, e = val[stop - lo.size:stop], err[stop - lo.size:stop]
            total[j] = closed_val + v.sum()
            total_err[j] = closed_err + e.sum()
            split = e > rtol * abs(total[j]) * (hi - lo) / span
            done = total_err[j] <= rtol * abs(total[j])
            if moments:
                m = moment[:, :, stop - lo.size:stop]
                sums[j] = closed_m + m.sum(axis=2)
                split |= (m[:2, 1] > rtol * sums[j][:2, 2:] * (hi - lo) / span).any(axis=0)
                done &= bool((sums[j][:2, 1] <= rtol * sums[j][:2, 2]).all())
            n_panels += int(split.sum())
            if done or not split.any() or n_panels > _GK_PANEL_LIMIT:
                continue
            mid = 0.5 * (lo[split] + hi[split])
            still_open.append((j, np.concatenate([lo[split], mid]),
                               np.concatenate([mid, hi[split]]), span,
                               closed_val + v[~split].sum(),
                               closed_err + e[~split].sum(), n_panels,
                               closed_m + m[:, :, ~split].sum(axis=2) if moments
                               else None))
    if moments:
        return np.array(total), np.array(total_err), scales, (centres, sums)
    return np.array(total), np.array(total_err), scales


def _ln_tail_bound(g: float, D: int, q0: float, q_cut: float,
                   front: float, powers: int = 1):
    """ln of a bound on the neglected [q_cut, q_Theta) piece of the
    integral of f, written as a q0 integral, from q0 and the q0-form front
    at the cut; with powers > 1, the list of the bounds on the integrals of
    f q0^n, n = 0..powers-1.  Along the fixed-Theta family U(q0) - U(q_t)
    never decreases (dq_t/dq0 < 1 and U' is increasing), so
    dI/dq0 >= decay g = 2 sqrt(2 [U(q0(q_cut)) - U(q_cut)]) on the whole
    tail, and the determinants only grow; the integrand is dominated by
    q0^(D-1+n) e^(front - decay (x - q0)), whose integral from q0 is I_N,
    N = D - 1 + n, with I_0 = 1/decay and I_N = (q0^N + N I_(N-1)) / decay,
    summed as logs.  The gap U(q0) - U(q_cut) is taken as a log of three
    factors, so no power of q0 overflows."""
    if not q0 > q_cut:
        return math.inf if powers == 1 else [math.inf] * powers
    # U(q0) - U(q_cut) = (q0 - q_cut)(q0 + q_cut)(2 + q0^2 + q_cut^2) / 4
    ln_gap = (math.log(q0 - q_cut) + math.log(q0 + q_cut)
              + 2.0 * math.log(math.hypot(q0, q_cut, _SQRT2)) - _LN4)
    ln_decay = _LN2 + 0.5 * (_LN2 + ln_gap) - math.log(g)
    ln_q0 = math.log(q0)
    ln_i = [-ln_decay]
    for n in range(1, D + powers - 1):
        power, carried = n * ln_q0, math.log(n) + ln_i[-1]
        top = max(power, carried)
        ln_i.append(top + math.log1p(math.exp(min(power, carried) - top)) - ln_decay)
    bounds = [front + ln for ln in ln_i[D - 1:]]
    return bounds[0] if powers == 1 else bounds


def _ln_moment_tail_bounds(g: float, D: int, q0: float, q_cut: float,
                           front: float, q_cap: float, centre: float,
                           lam: float, tw: float, p0: float):
    """ln of bounds on the neglected [q_cut, q_Theta) pieces of the
    integrals of f |X - centre| and f ((X - centre)^2 + |Y|) (see
    _theta_derivatives), from the cut's q0, front, lam, tw and p0.  On the
    tail s <= sqrt(1 + q_Theta^2) = 2 S; lam = 4 pi / (s Delta_l) and
    tw = 4 pi / (s Delta_t) only fall and p0 only grows (the premises of
    _ln_tail_bound), so rho = q_t s / p0 <= q_Theta 2 S / p0; and with
    sqrt(m1) <= q_t / sqrt(2), dn^2 >= m1 and nc = q0 / q_t the elementary
    terms obey e1 <= q0 / sqrt(2), a, r/2 <= 1 + q0 / sqrt(2),
    a' <= 3/2 + q0^2 / 2 and lam c1 <= rho^2.  So |X - centre| and
    (X - centre)^2 + |Y| are at most polynomials in q0 with the
    coefficients below, and each power of q0 is bounded by _ln_tail_bound."""
    big_s = 0.5 * math.sqrt(1.0 + q_cap * q_cap)
    rho2 = (2.0 * big_s * q_cap / p0) ** 2
    # |X - centre| <= |centre| + S |X_u| + 2 U(q0) / g
    p1 = np.array([abs(centre) + big_s * (1.0 + 0.5 * (lam + (D - 1) * tw)),
                   big_s * _SQRT2, 1.0 / g, 0.0, 0.5 / g])
    # |Y| <= S^2 |Y_u| + U'(q0) sqrt(2 U(q0)) / g, with
    # U'(q0) sqrt(2 U(q0)) <= (q0^2 + q0^4)(1 + q0 / sqrt(2))
    y_u = [11.0 + 3.0 * lam + rho2 + 0.5 * lam * lam + (D - 1) * tw * (1.0 + 0.5 * tw),
           _SQRT2 * lam + (D - 1) * tw / _SQRT2, 5.0]
    p2 = np.convolve(p1, p1)
    p2[:3] += big_s * big_s * np.array(y_u)
    p2[2:6] += np.array([1.0, 1.0 / _SQRT2, 1.0, 1.0 / _SQRT2]) / g
    ln_powers = _ln_tail_bound(g, D, q0, q_cut, front, p2.size)
    bounds = []
    for poly in (p1, p2):
        with np.errstate(divide="ignore"):
            ln_terms = np.log(poly) + ln_powers[:poly.size]
        top = float(ln_terms.max())
        bounds.append(top + math.log(float(np.exp(ln_terms - top).sum()))
                      if math.isfinite(top) else top)
    return bounds


# the first round's edges (_first_round_edges): multiples of the
# integrand's width, offsets in widths from the radial peak (D > 1), and
# fractions of q_Theta (none above 0.9995 / 1.05 = 0.952, which the 5 % rule
# drops on every call)
_WIDTH_EDGES = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
# with moments one more, 3 sigma: f (X - c)^2 and f Y reach further past the
# peak than f, and without it a third of the one-loop curve's rows (g = 0.5,
# T in [0.1, 5]) took a second round for them
_MOMENT_WIDTH_EDGES = _WIDTH_EDGES + (3.0,)
_PEAK_EDGES = (-6.0, -3.0, -1.5, 0.0, 1.5, 3.0, 6.0)
_Q_THETA_EDGES = (0.25, 0.5, 0.75, 0.9)
_WINDOW_END = 0.9995


def _first_round_edges(g: float, D: int, Theta: float, q_cap: float,
                       moments: bool = False) -> list:
    """The first round's panel edges on [0, _WINDOW_END q_Theta], from
    scales smooth in Theta: the integrand's width sigma, sqrt(x) at weak
    coupling and (4 x)^(1/4) where the quartic term sets it (x > 4), for
    x = g / sinh Theta (with moments, one more multiple of it); for D > 1
    the weak-coupling radial peak sigma sqrt(D - 1) and steps of sigma
    about it; and fractions of q_Theta.  An edge within 5 % of the next
    one above it is dropped."""
    x = g / math.sinh(Theta) if Theta < 700.0 else 2.0 * g * math.exp(-Theta)
    sigma = min(math.sqrt(x), math.sqrt(2.0 * math.sqrt(x)))
    widths = _MOMENT_WIDTH_EDGES if moments else _WIDTH_EDGES
    inner = [c * sigma for c in widths] + [c * q_cap for c in _Q_THETA_EDGES]
    if D > 1:
        inner += [sigma * (math.sqrt(D - 1) + c) for c in _PEAK_EDGES]
    edges = [_WINDOW_END * q_cap]
    for q in sorted(inner, reverse=True):
        if 0.0 < q < edges[-1] / 1.05:
            edges.append(q)
    return [0.0] + edges[::-1]


class LnZ(float):
    """ln Z at one Theta, a float that also carries its error bound err,
    d1 = d ln Z/dTheta and d2 = d^2 ln Z/dTheta^2 with their error bounds
    d1_err and d2_err.  Arithmetic on it gives plain floats; specific_heat
    takes C = Theta^2 d2 from it.  The derivatives travel in the value, so
    a wrapper that only returns what ln Z returns keeps them."""

    __slots__ = ("err", "d1", "d1_err", "d2", "d2_err")

    def __new__(cls, value: float, err: float, d1: float, d1_err: float,
                d2: float, d2_err: float):
        record = super().__new__(cls, value)
        record.err, record.d1, record.d1_err = err, d1, d1_err
        record.d2, record.d2_err = d2, d2_err
        return record


def ln_z2_quartic(g: float, D: int, Thetas, tol: float = 1e-7,
                  moments: bool = False) -> list:
    """ln Z2 of the quartic well (see z2_quartic) at each Theta of Thetas:
    per Theta, in the order given, its checks, q_Theta and the first
    round's panel edges (_first_round_edges); one adaptive Gauss-Kronrod
    loop over all the integrals on [0, 0.9995 q_Theta), each round one
    family whose route-checked determinants it sums, each integral scaled
    by the largest integrand on its first round; then per Theta, in the
    order given, the accuracy check and the tail bound, read at its
    largest first-round node.  ln Z2 has no float range to leave: a Theta
    where Z2 would (D = 8, g = 0.5, Theta > 177) has one.

    With moments, each value is an LnZ record (_moment_record) with the
    Theta-derivatives as moments of X = d ln f/dTheta and
    Y = d^2 ln f/dTheta^2 at fixed q_t (_theta_derivatives) under the
    weight f, on the same panels:  d ln Z2/dTheta = <X> and
    d^2 ln Z2/dTheta^2 = <(X - <X>)^2 + Y> (f vanishes at q_Theta, so
    d/dTheta passes under the integral).  Each family is _sharpened first,
    the first round has one more panel edge (_first_round_edges), the loop
    also closes on the moments' error estimates (_gauss_kronrod), and
    their tail is bounded at the same node (_ln_moment_tail_bounds); ln Z2
    itself may then differ from the plain route's within the record's err.
    Without moments no derivative is evaluated and nothing is sharpened."""
    if not 0.0 < g < math.inf:
        raise DomainError(f"g={g!r} must be positive and finite (use z_harmonic at g=0)")
    _check_integer("dimension D", D, 1)
    _check_positive("tol", tol)
    thetas = np.array(Thetas, dtype=float).ravel()
    if not thetas.size:
        return []
    # q_theta_max checks each Theta first, in the order given
    q_caps = [q_theta_max(Theta) for Theta in thetas.tolist()]
    edges = [_first_round_edges(g, D, Theta, q_cap, moments)
             for Theta, q_cap in zip(thetas.tolist(), q_caps)]
    # per Theta, its largest first-round node's q_t, q0 and q0-form front
    # (with moments, and its lam, tw and p0)
    tail_nodes = []

    def log_integrand(q, j):
        nodes = quartic_path_from_qt(q, thetas[j])
        if moments:
            nodes = _sharpened(nodes)
        try:
            det_l, det_t = det_longitudinal(nodes), det_transverse(nodes)
        except DomainError as exc:
            # the closed forms overflow near q_Theta from Theta ~ 680, and the
            # longitudinal pair route underflows below Theta ~ 1e-103
            raise QuadratureError(f"one-loop integrand overflows: {exc}") from exc
        log_f, front = _log_integrand(g, D, nodes, det_l, det_t)
        at_cut = [q, nodes.q0, front]
        if moments:
            (x, y, noise), bounds = _theta_derivatives(g, D, nodes, det_l, det_t)
            at_cut += bounds
        if not tail_nodes:
            last = np.flatnonzero(np.append(j[1:] != j[:-1], True))
            tail_nodes.extend(zip(*(v[last].tolist() for v in at_cut)))
        return (log_f, x, y, noise) if moments else log_f

    vals, errs, scales, *moment_sums = _gauss_kronrod(
        log_integrand, edges, 0.5 * tol, moments)
    ln_z2 = []
    for i, (Theta, (q_last, q0, front, *bounds), val, err, scale) in enumerate(zip(
            thetas.tolist(), tail_nodes, vals.tolist(), errs.tolist(), scales.tolist())):
        if not val > 0.0 or err > tol * val:
            raise QuadratureError(
                f"quartic q_t quadrature achieved {err:.3e} on value {val:.6e} "
                f"(peak scaled to 1), requested relative {tol:.1e} at "
                f"Theta={Theta!r}")
        ln_val = math.log(val) + scale
        ln_tail = _ln_tail_bound(g, D, q0, q_last, front)
        if ln_tail > math.log(tol) + ln_val:
            raise QuadratureError(
                f"tail bound e^{ln_tail:.6g} beyond q_t={q_last:.6g} exceeds "
                f"tolerance {tol:.1e} on value e^{ln_val:.6g} at Theta={Theta!r}")
        value = _ln_sphere_surface(D) - 0.5 * D * math.log(g) + ln_val
        if moments:
            (centres, sums), = moment_sums
            centre = float(centres[i])
            ln_tails = _ln_moment_tail_bounds(g, D, q0, q_last, front, q_caps[i],
                                              centre, *bounds)
            value = _moment_record(value, val, err, centre, sums[i],
                                   [t - scale for t in [ln_tail, *ln_tails]], Theta)
        ln_z2.append(value)
    return ln_z2


def _moment_record(value: float, val: float, err: float, centre: float, sums,
                   ln_tails, Theta: float) -> LnZ:
    """The LnZ record of ln Z2 = value from the scaled integral val of f
    and its error estimate err, the centre c, the moments' sums (see
    _gk21_moments), and the logs of the three tail bounds in the same
    scaled units (f, f |X - c|, f ((X - c)^2 + |Y|)).  Each tail and the
    rounding of ln f are added to their integral's error, and the errors
    are propagated to first order through ln Z2 = value,
    d1 = c + M1/I and d2 = M2/I - (M1/I)^2.  QuadratureError where a
    derivative or its error is not finite (a moment overflows)."""
    (m1, m1_err, _), (m2, m2_err, _), roundings = sums.tolist()
    e0, e1, e2 = (e + rounding + (math.exp(t) if t < _LN_HUGE else math.inf)
                  for e, rounding, t in zip((err, m1_err, m2_err), roundings, ln_tails))
    mean, second = m1 / val, m2 / val
    d1_err = (e1 + abs(mean) * e0) / val
    d2_err = (e2 + abs(second) * e0) / val + 2.0 * abs(mean) * d1_err
    derivatives = (centre + mean, d1_err, second - mean * mean, d2_err)
    if not all(map(math.isfinite, derivatives)):
        raise QuadratureError(
            f"Theta-moments of the one-loop integrand are not finite at "
            f"Theta={Theta!r}: d ln Z2/dTheta {derivatives[0]!r} +- "
            f"{derivatives[1]!r}, d^2 ln Z2/dTheta^2 {derivatives[2]!r} +- "
            f"{derivatives[3]!r}")
    return LnZ(value, e0 / val, *derivatives)


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

    def rel_error(val, err, scale):
        if not val > 0.0:
            return math.inf
        return err / val + math.exp(ln_tail - scale - math.log(val))

    ln_i, rels = [], []
    for Theta, a_i, b_i, (scale, x_peak, width), val, err in zip(
            Thetas, a, b, peaks, vals.tolist(), errs.tolist()):
        rel = rel_error(val, err, scale)
        if rel > tol:
            near = [x_peak + k * width for k in _CL_PEAK_EDGES]
            (val,), (err,), (scale,) = _gauss_kronrod(
                lambda x, _: (D - 1) * np.log(x) - (a_i + b_i * x * x) * x * x,
                [np.union1d(U * _CL_EDGES, [x for x in near if 0.0 < x < U])],
                0.5 * tol)
            rel = rel_error(val, err, scale)
            if rel > tol:
                raise QuadratureError(
                    f"classical radial integral at D={D}, Theta={Theta!r} "
                    f"(a={a_i!r}, b={b_i!r}): relative error estimate "
                    f"{rel:.3e} above tolerance {tol:.1e}")
        ln_i.append(math.log(val) + scale)
        rels.append(rel)
    return ln_i, rels


def ln_z_classical_batch(g: float, D: int, Thetas, tol: float = 1e-10) -> list:
    """ln_z_classical at each Theta of Thetas, as one pass of the fixed
    rule (see _scaled_radial_integral); each value is bit for bit its
    one-Theta call's, and a failure raises for the first failing Theta in
    the order given."""
    _check_nonnegative("coupling g", g)
    _check_integer("dimension D", D, 1)
    _check_positive("tol", tol)
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
    """Classical partition function, exp of ln_z_classical (the radius scaled
    to the potential's width, a precomputed Gauss-Kronrod rule, log-space
    assembly, an analytic tail bound); DomainError where it overflows."""
    ln_z, D, Theta = ln_z_classical(params, tol), params.D, params.Theta
    return _finite(lambda i: f"D={D}, Theta={Theta!r}", "Z", lambda: math.exp(ln_z))


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
    _check_nonnegative("coupling g", g)
    _check_integer("n_max", n_max, 0)
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
    _check_nonnegative("coupling g", g)
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
    """C = Theta^2 d^2(ln Z)/dTheta^2, with ln Z at Theta asked for first.
    Where that value is an LnZ record (the one-loop mode's, from
    ln_z2_quartic's Theta-moments), C and its error are Theta^2 times its
    d2 and d2_err, and lnz is called once.  Otherwise C comes from
    five-point stencils at steps h and h/2, h = max(1e-3 Theta, 1e-4),
    Richardson-extrapolated once; the two stencils share Theta and
    Theta +- h, so ln Z is evaluated at the seven distinct
    stencil_thetas(Theta), each once, Theta itself first.
    Returns (C, error_estimate); raises ConvergenceError if C or its
    error is not finite, as where (h/2)^2 or Theta^2 leaves the normal
    float range (Theta below ~1e-154 or above ~1e154)."""
    _check_theta(Theta)
    f0 = lnz(Theta)
    if isinstance(f0, LnZ):
        value, err = Theta * Theta * f0.d2, Theta * Theta * f0.d2_err
        if not (math.isfinite(value) and math.isfinite(err)):
            raise ConvergenceError(
                f"specific heat at Theta={Theta!r} is not finite: Theta^2 "
                f"times d^2 ln Z/dTheta^2 = {f0.d2!r} +- {f0.d2_err!r}")
        return value, err
    h, thetas = _stencil(Theta)
    # ln Z below and above Theta at offsets h/2, h and 2h
    b1, b2, b4, a1, a2, a4 = [lnz(theta) for theta in thetas[1:]]

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
