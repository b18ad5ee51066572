"""Jacobi elliptic functions and the Jacobi epsilon function on the real line.

Two kernels.  The scalar routines (jacobi_sn_cn_dn, complete_K,
jacobi_epsilon) serve scalar callers such as the variational flow's
right-hand side, where a numpy call per step would cost more than the
work; jacobi_sn_cn_dn memoizes its AGM ladder on m1 = 1 - k^2, since the
flow evaluates one modulus at every step of its path.
sn_cn_dn_eps_array evaluates sn, cn, dn and epsilon elementwise over
arrays, with the same branches per element; the one-loop quadrature
builds its paths with it.

* ``sn, cn, dn``: descending Landen / AGM ladder (DLMF 22.20(ii)), for
  any real u.  For 1 - k^2 < 1e-12 the ladder stalls and the hyperbolic
  expansion around k = 1 (A&S 16.15), where the quartic well's physics
  clusters, takes over; it is first order in 1 - k^2 and holds only on
  the half period |u| < K(k), past which both kernels raise DomainError.
* ``K(k)``: AGM, K = pi / (2 agm(1, k')), on the same ladder.
* ``epsilon(u, k) = E(am(u, k), k)`` (DLMF 22.16(ii)) on the first half
  period |u| < K(k) only (any u at k = 1), with am = arcsin(sn) and E by
  Carlson's R_F, R_D duplication (Carlson 1995); both kernels raise
  DomainError past it.  The closed orbits need u in [-u_T, u_T], u_T < K.

Forming 1 - k^2 from k loses precision as k -> 1.  Callers that know
1 - k^2 exactly (the quartic path does) can pass it as the ``m1`` keyword;
the array kernel takes it as a required argument.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError

# Below this value of m1 = 1 - k^2 the AGM ladder no longer separates k
# from 1 and the hyperbolic branch is used instead.
_M1_SWITCH = 1e-12

_LADDER_MAX = 40
# The ladder stops once c_n = (a_(n-1) - b_(n-1))/2 is at the rounding
# level of a_n.  a and b can settle one or two ulps apart, so a threshold
# below ~2 ulps (1e-17 was used once) is never met and the ladder runs
# all _LADDER_MAX steps.
_AGM_TOL = 2.3e-16


def _m1_of(k: float, m1: float | None) -> float:
    # checks the modulus k, and returns m1 = 1 - k^2 unless the caller gave it
    if not (0.0 <= k <= 1.0):
        raise DomainError(f"modulus k={k!r} outside [0, 1]")
    if m1 is not None:
        if not 0.0 <= m1 < math.inf:
            raise DomainError(f"m1={m1!r} must be finite and nonnegative")
        return m1
    return (1.0 - k) * (1.0 + k)


def _agm_ladder(m1: float) -> tuple[tuple, tuple]:
    """Descending ladder from (a, b) = (1, sqrt(m1)), m1 > 0: a_j and
    c_j = (a_(j-1) - b_(j-1))/2 for j = 0..n (c_0 is unused), stopping
    once c_n is at the rounding level of a_n; a_n is then agm(1, k')."""
    a, b = 1.0, math.sqrt(m1)
    a_seq = [a]
    c_seq = [0.0]
    for _ in range(_LADDER_MAX):
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        a_seq.append(a)
        c_seq.append(c)
        if abs(c) <= _AGM_TOL * a:
            break
    return tuple(a_seq), tuple(c_seq)


# jacobi_sn_cn_dn meets one modulus at many u (the variational flow calls
# it at every step of one path), so its ladders are memoized on m1, which
# _m1_of has checked finite.  complete_K keeps the plain ladder: its
# callers, q_theta_max's bisection above all, rarely repeat a modulus,
# and a cache miss costs more than the ladder saves.
_memo_agm_ladder = functools.lru_cache(maxsize=256)(_agm_ladder)


def jacobi_sn_cn_dn(u: float, k: float, m1: float | None = None) -> tuple[float, float, float]:
    """All three Jacobi elliptic functions at real argument u, modulus k.

    Returns (sn, cn, dn).  Relative accuracy ~1e-13 away from the zeros
    of cn; sn^2 + cn^2 = 1 holds exactly by construction.  Raises
    DomainError for 0 < 1 - k^2 < 1e-12 and |u| >= K(k), and past |u| ~ 1e305."""
    m1 = _m1_of(k, m1)
    if not math.isfinite(u):
        raise DomainError(f"argument u={u!r} is not finite")

    if m1 < _M1_SWITCH:
        return _sn_cn_dn_near_one(u, m1)

    a_seq, c_seq = _memo_agm_ladder(m1)
    n = len(a_seq) - 1

    # Backward amplitude recursion; c_j / a_j < 1, so no clamp is needed.
    phi = (2.0 ** n) * a_seq[n] * u
    if not math.isfinite(phi):
        raise DomainError(f"argument u={u!r} overflows the ladder's phase 2^n a_n u")
    for j in range(n, 0, -1):
        phi_prev = phi
        phi = 0.5 * (phi + math.asin(c_seq[j] / a_seq[j] * math.sin(phi)))
    sn = math.sin(phi)
    cn = math.cos(phi)
    dn = cn / math.cos(phi_prev - phi)
    return sn, cn, dn


def _k_of_m1(m1: float) -> float:
    # K(k) = pi / (2 agm(1, k')), from m1 = k'^2 > 0
    return math.pi / (2.0 * _agm_ladder(m1)[0][-1])


def _past_half_period(u: float, m1: float, big_k: float) -> DomainError:
    return DomainError(f"u={u!r} with m1={m1!r}: outside the half period "
                       f"|u| < K={big_k:.6g}")


def _sn_cn_dn_near_one(u: float, m1: float) -> tuple[float, float, float]:
    # A&S 16.15, first order in m1 = 1 - k^2.  (sinh u cosh u - u) sech^2 u
    # is written as tanh u - u sech^2 u to stay bounded for large |u|.
    # Past the half period the O(m1) terms grow like m1 e^(2|u|) and the
    # expansion breaks down (at m1 = 1e-13, u = 40 it gives cn = -2942);
    # K(k) < 373 whenever m1 > 0, so this also covers the overflow of
    # cosh and sinh past |u| ~ 710.5.
    if m1 > 0.0 and abs(u) >= (big_k := _k_of_m1(m1)):
        raise _past_half_period(u, m1, big_k)
    t = math.tanh(u)
    if abs(u) >= 710.0:
        # k = 1: sech u = 2 e^-|u| where cosh overflows
        s = 2.0 * math.exp(-abs(u))
        return t, s, s
    s = 1.0 / math.cosh(u)
    if m1 == 0.0:
        return t, s, s
    w = 0.25 * m1
    sn = t + w * (t - u * s * s)
    cn = s - w * (math.sinh(u) - u * s) * t
    dn = s + w * (math.sinh(u) + u * s) * t
    return sn, cn, dn


def complete_K(k: float, m1: float | None = None) -> float:
    """Complete elliptic integral of the first kind, K(k) = F(pi/2, k)."""
    m1 = _m1_of(k, m1)
    if m1 == 0.0:
        raise DomainError("K(k) diverges at k = 1")
    return _k_of_m1(m1)


# Carlson duplication-algorithm error controls; truncation errors scale as
# ERRTOL^6 (R_F) and ERRTOL^6 (R_D), both below 1e-16 with these values.
_RF_ERRTOL = 0.0025
_RD_ERRTOL = 0.0015


def _carlson_e(s, c, k):
    """E(phi, k) = s R_F(c^2, y, 1) - k^2 s^3 R_D(c^2, y, 1) / 3 with
    y = 1 - k^2 s^2, for phi in [0, pi/2] and k in [0, 1), from
    s = sin(phi) and c = cos(phi); floats, or arrays elementwise.

    R_F and R_D have the same arguments, so they share one duplication
    loop; it runs until both have met their tolerances at every element,
    and further steps change an element that met them earlier only at
    rounding level."""
    xyz = np.stack([c * c, (1.0 - k * s) * (1.0 + k * s), np.ones_like(s)])
    total = 0.0
    fac = 1.0
    while True:
        sq = np.sqrt(xyz)
        lam = sq[0] * (sq[1] + sq[2]) + sq[1] * sq[2]
        total += fac / (sq[2] * (xyz[2] + lam))
        fac *= 0.25
        xyz = 0.25 * (xyz + lam)
        mu_f = (xyz[0] + xyz[1] + xyz[2]) / 3.0
        mu_d = (xyz[0] + xyz[1] + 3.0 * xyz[2]) / 5.0
        d_f, d_d = 1.0 - xyz / mu_f, 1.0 - xyz / mu_d
        if np.abs(d_f).max() < _RF_ERRTOL and np.abs(d_d).max() < _RD_ERRTOL:
            break
    dx, dy, dz = d_f
    e2 = dx * dy - dz * dz
    e3 = dx * dy * dz
    r_f = (1.0 + (e2 / 24.0 - 0.1 - 3.0 * e3 / 44.0) * e2 + e3 / 14.0) / np.sqrt(mu_f)
    dx, dy, dz = d_d
    ea = dx * dy
    eb = dz * dz
    ec = ea - eb
    ed = ea - 6.0 * eb
    ee = ed + ec + ec
    s1 = ed * (-3.0 / 14.0 + 9.0 / 88.0 * ed - 4.5 / 26.0 * dz * ee)
    s2 = dz * (ee / 6.0 + dz * (-9.0 / 22.0 * ec + 3.0 / 26.0 * dz * ea))
    r_d = 3.0 * total + fac * (1.0 + s1 + s2) / (mu_d * np.sqrt(mu_d))
    return s * (r_f - (k * k) * s * s * r_d / 3.0)


def jacobi_epsilon(u: float, k: float, m1: float | None = None) -> float:
    """Jacobi epsilon function, int_0^u dn^2(t, k) dt = E(am(u, k), k), on
    the first half period |u| < K(k) (every u at k = 1), where
    am = arcsin(sn) and E is Carlson's; elsewhere it raises DomainError,
    as the array kernel does.

    Odd in u; this is the antiderivative the canonical fluctuation
    solutions need (the bare arccos(cn) amplitude is even in u and would
    break the odd symmetry for u < 0)."""
    sn, _, _ = jacobi_sn_cn_dn(u, k, m1)
    m1 = _m1_of(k, m1)
    if m1 > 0.0 and abs(u) >= (big_k := _k_of_m1(m1)):
        raise _past_half_period(u, m1, big_k)
    am = math.asin(max(-1.0, min(1.0, sn)))
    if k == 1.0:
        return math.sin(am)  # E(am, 1) = sin(am)
    return math.copysign(float(_carlson_e(math.sin(abs(am)), math.cos(abs(am)), k)), am)


# ---------------------------------------------------------------------------
# Array kernel.
# ---------------------------------------------------------------------------

def sn_cn_dn_eps_array(u, k, m1):
    """sn, cn, dn and epsilon = E(am(u, k), k), elementwise over arrays
    (u, k and m1 = 1 - k^2 broadcast together; m1 is required, since only
    the caller can form it exactly).

    Per element it takes the branches of the scalar jacobi_sn_cn_dn and
    jacobi_epsilon: the hyperbolic k -> 1 expansion below m1 = 1e-12, the
    descending AGM ladder above, am = arcsin(sn) and Carlson's E.  It
    covers the first half period |u| < K(k), every u at m1 = 0, and
    raises DomainError elsewhere, as jacobi_epsilon does.  On the path
    families it agrees with the scalar routines to 1e-14 relative.
    Elsewhere the two ladders' phases 2^n a_n u round apart, and it
    agrees to 16 eps (1 + |u|) absolute, far less in relative terms
    where cn and dn are small."""
    u, k, m1 = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (u, k, m1)))
    if not np.all(np.isfinite(u)):
        raise DomainError("argument u is not finite everywhere")
    if not np.all((0.0 <= k) & (k <= 1.0)):
        raise DomainError("modulus k outside [0, 1]")
    if not np.all(m1 >= 0.0):
        raise DomainError("m1 must be nonnegative")
    sn, cn, dn, eps, big_k = _sn_cn_dn_eps_k(u, k, m1)
    past = ~(np.abs(u) < big_k)
    if past.any():
        i = np.flatnonzero(past)[0]
        raise _past_half_period(float(u.flat[i]), float(m1.flat[i]),
                                float(big_k.flat[i]))
    return sn, cn, dn, eps


def _sn_cn_dn_eps_k(u, k, m1):
    """sn, cn, dn, epsilon and K(k) (inf at m1 = 0) for arrays of one shape,
    unchecked: outside |u| < K the epsilon values are not E(am(u, k), k)."""
    shape = u.shape
    u, k, m1 = u.ravel(), k.ravel(), m1.ravel()
    near = m1 < _M1_SWITCH

    # Forward ladder, run until every element has met the scalar ladder's
    # stop.  An element that met it earlier takes extra steps with c_j at
    # rounding level, which the backward recursion undoes to rounding.
    # m1 = 0 has no ladder (K is infinite): b = 1 stops it at once.
    a = np.ones_like(m1)
    b = np.sqrt(np.where(m1 > 0.0, m1, 1.0))
    ratios = []  # c_j / a_j, j = 1..n
    for _ in range(_LADDER_MAX):
        a, b, c = 0.5 * (a + b), np.sqrt(a * b), 0.5 * (a - b)
        ratios.append(c / a)
        if (np.abs(c) <= _AGM_TOL * a).all():
            break
    with np.errstate(divide="ignore"):
        big_k = np.where(m1 > 0.0, math.pi / (2.0 * a), math.inf)

    # Backward amplitude recursion; c_j / a_j < 1, so no clamp is needed.
    phi = (2.0 ** len(ratios)) * a * u
    for r in ratios[:0:-1]:
        phi = 0.5 * (phi + np.arcsin(r * np.sin(phi)))
    phi_prev = phi
    phi = 0.5 * (phi + np.arcsin(ratios[0] * np.sin(phi)))
    sn = np.sin(phi)
    cn = np.cos(phi)
    dn = cn / np.cos(phi_prev - phi)

    # The k -> 1 expansion, as in _sn_cn_dn_near_one.
    if near.any():
        un, mn = u[near], m1[near]
        t = np.tanh(un)
        hot = mn > 0.0  # |u| < K < 373 there on the kernel's domain
        with np.errstate(over="ignore"):
            s = np.where(np.abs(un) >= 710.0, 2.0 * np.exp(-np.abs(un)), 1.0 / np.cosh(un))
            sinh = np.sinh(np.where(hot, un, 0.0))
        w = 0.25 * mn
        sn[near] = np.where(hot, t + w * (t - un * s * s), t)
        cn[near] = np.where(hot, s - w * (sinh - un * s) * t, s)
        dn[near] = np.where(hot, s + w * (sinh + un * s) * t, s)

    # epsilon = E(am, k) with am = arcsin(sn) on the first half period;
    # E(am, 1) = sin(am)
    am = np.arcsin(np.clip(sn, -1.0, 1.0))
    eps = np.sin(am)
    carlson = k < 1.0
    if carlson.any():
        a_c, k_c = np.abs(am[carlson]), k[carlson]
        eps[carlson] = np.copysign(_carlson_e(np.sin(a_c), np.cos(a_c), k_c),
                                   am[carlson])
    return tuple(x.reshape(shape) for x in (sn, cn, dn, eps, big_k))

