"""Jacobi elliptic functions and the Jacobi epsilon function on the real line.

Two kernels, one per argument shape, each returning sn, cn, dn, epsilon
and K(k) from one climb of the AGM ladder, whose forward loop _ladder
runs for both.  The scalar kernel serves single paths and the variational
flow's right-hand side, where a numpy call per step would cost more than
the work; it memoizes its ladder record on m1 = 1 - k^2, since the flow
evaluates one modulus at every step of its path.  jacobi_sn_cn_dn and
jacobi_epsilon are its checked wrappers.  The array kernel, behind
sn_cn_dn_eps_array, takes the same branches per element for the one-loop
quadrature's paths.  Both descend through _descend and take the k -> 1
expansion from _sn_cn_dn_eps_near_one, so they agree bit for bit there.

* ``sn, cn, dn``: descending Landen / AGM ladder (DLMF 22.20(ii)), for
  any real u.  For 1 - k^2 < 1e-12 the ladder stalls and the hyperbolic
  expansion around k = 1 (A&S 16.15), where the quartic well's physics
  clusters, takes over; it is first order in 1 - k^2 and holds only on
  the half period |u| < K(k), past which the checked routines raise
  DomainError.
* ``K(k)``: AGM, K = pi / (2 agm(1, k')), on the same ladder.
* ``epsilon(u, k) = E(am(u, k), k)`` (DLMF 22.16(ii)) on the first half
  period |u| < K(k) only (any u at k = 1), from the same ladder:
  epsilon = (E/K) u + Z(u), with E/K = 1 - (1/2) sum_(j>=0) 2^j c_j^2 and
  Jacobi's zeta Z = sum_(j>=1) c_j sin(phi_j) on the amplitudes of the
  backward recursion (A&S 17.6, DLMF 22.16(iii)); below 1 - k^2 = 1e-12,
  the first order of the k = 1 expansion.  jacobi_epsilon and
  sn_cn_dn_eps_array raise DomainError past the half period.  The closed
  orbits need u in [-u_T, u_T], u_T < K.

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
            raise _m1_error(m1)
        return m1
    return (1.0 - k) * (1.0 + k)


def _m1_error(m1: float) -> DomainError:
    return DomainError(f"m1={m1!r} must be finite and nonnegative")


def _ladder(b, m1, sqrt, settled):
    """The forward loop of both kernels, from (a, b) = (1, sqrt(m1)) for a
    float (sqrt, settled = math.sqrt, bool) or an array (np.sqrt,
    np.ndarray.all; np.all costs ~2 us a step more), until
    settled(|c_n| <= _AGM_TOL a_n): ([(z_j, c_j / a_j), j = 1..n], E/K, a_n).
    Z's coefficients z_j = c_j are formed as c_(j-1)^2 / (4 a_j) from
    c_0^2 = k^2 = 1 - m1 (A&S 17.6.2), since (a - b)/2 carries an absolute
    error ~1e-16 that Z would keep at small u; the recursion's ratios
    c_j / a_j keep (a - b)/2.  E/K = 1 - (1/2) sum_(j>=0) 2^j c_j^2 is
    summed as a_1^2 - sum_(j>=2) 2^(j-1) c_j^2, which cancels half as
    much as E/K -> 0 with m1 (1 - c_0^2/2 - c_1^2 = a_1^2)."""
    a, steps, c2 = 1.0, [], 1.0 - m1  # c2 = c_(j-1)^2
    for j in range(1, _LADDER_MAX + 1):
        a, b, c = 0.5 * (a + b), sqrt(a * b), 0.5 * (a - b)
        z = c2 / (4.0 * a)
        e_over_k = a * a if j == 1 else e_over_k - 2.0 ** (j - 1) * z * z
        c2 = c * c
        steps.append((z, c / a))
        if settled(abs(c) <= _AGM_TOL * a):
            break
    return steps, e_over_k, a


def _agm_ladder(m1: float) -> tuple:
    """The scalar kernel's ladder record for m1 > 0, from _ladder: the steps
    as the backward recursion reads them, ((z_j, c_j / a_j) for j = n..1),
    then E/K, the phase scale 2^n a_n and K = pi / (2 a_n)."""
    steps, e_over_k, a = _ladder(math.sqrt(m1), m1, math.sqrt, bool)
    return tuple(reversed(steps)), e_over_k, (2.0 ** len(steps)) * a, math.pi / (2.0 * a)


# The scalar kernel meets one modulus at many u (the variational flow calls
# it at every step of one path), so its ladders are memoized on m1, which
# the callers have checked finite.  complete_K climbs its own: its callers,
# q_theta_max's root search above all, rarely repeat a modulus, and a
# cache miss costs more than the ladder saves.
_ladder_record = functools.lru_cache(maxsize=256)(_agm_ladder)


def _scalar_sn_cn_dn_eps_k(u: float, m1: float) -> tuple:
    """sn, cn, dn, epsilon and K (inf at m1 = 0) at one real u, as floats,
    from one climb of the memoized ladder record through _descend, or
    below m1 = 1e-12 from the array kernel's _sn_cn_dn_eps_near_one:
    _sn_cn_dn_eps_k's scalar shape, unchecked.  Outside |u| < K epsilon
    (and below m1 = 1e-12 every value) is not the function's; where the
    ladder's phase 2^n a_n u overflows, the four values are NaN."""
    if m1 < _M1_SWITCH:
        big_k = _ladder_record(m1)[3] if m1 > 0.0 else math.inf
        return (*map(float, _sn_cn_dn_eps_near_one(u, m1)), big_k)
    levels, e_over_k, scale, big_k = _ladder_record(m1)
    phi = scale * u
    if not math.isfinite(phi):
        return math.nan, math.nan, math.nan, math.nan, big_k
    sn, cn, dn, zeta = _descend(phi, levels, math.sin, math.asin, math.cos)
    return sn, cn, dn, e_over_k * u + zeta, big_k


def _descend(phi, levels, sin, asin, cos):
    """The backward amplitude recursion of both kernels, with math's or
    numpy's sin, asin and cos: from the phase 2^n a_n u down the levels
    (z_j, c_j / a_j), j = n..1 (c_j / a_j < 1, so no clamp), summing
    Jacobi's zeta Z = sum_j z_j sin(phi_j).  Returns (sn, cn, dn, Z)."""
    zeta = 0.0
    for z, r in levels:
        phi_prev = phi
        sin_phi = sin(phi)
        zeta += z * sin_phi
        phi = 0.5 * (phi + asin(r * sin_phi))
    cn = cos(phi)
    return sin(phi), cn, cn / cos(phi_prev - phi), zeta


def jacobi_sn_cn_dn(u: float, k: float, m1: float | None = None) -> tuple[float, float, float]:
    """All three Jacobi elliptic functions at real argument u, modulus k.

    Returns (sn, cn, dn).  Relative accuracy ~1e-13 away from the zeros
    of cn; sn^2 + cn^2 = 1 holds exactly by construction.  Raises
    DomainError for 0 < 1 - k^2 < 1e-12 and |u| >= K(k), and past |u| ~ 1e305."""
    m1 = _checked_m1(u, k, m1)
    sn, cn, dn, _, big_k = _scalar_sn_cn_dn_eps_k(u, m1)
    if m1 < _M1_SWITCH and abs(u) >= big_k:
        raise _past_half_period(u, m1, big_k)
    if sn != sn:  # NaN: the phase overflowed
        raise DomainError(f"argument u={u!r} overflows the ladder's phase 2^n a_n u")
    return sn, cn, dn


def _checked_m1(u: float, k: float, m1: float | None) -> float:
    m1 = _m1_of(k, m1)
    if not math.isfinite(u):
        raise DomainError(f"argument u={u!r} is not finite")
    return m1


def _past_half_period(u: float, m1: float, big_k: float) -> DomainError:
    # the error for a u outside the half period, or not finite
    if not math.isfinite(u):
        return DomainError(f"argument u={u!r} is not finite")
    return DomainError(f"u={u!r} with m1={m1!r}: outside the half period "
                       f"|u| < K={big_k:.6g}")


def _sn_cn_dn_eps_near_one(u, m1):
    # sn, cn, dn and epsilon = int dn^2 by A&S 16.15, first order in
    # m1 = 1 - k^2, elementwise (a float u and m1 give 0-d arrays).
    # (sinh u cosh u - u) sech^2 u is written as tanh u - u sech^2 u to stay
    # bounded for large |u|.  It holds on the half period only: past it the
    # O(m1) terms grow like m1 e^(2|u|) (at m1 = 1e-13, u = 40 it gave
    # cn = -2942), and the callers raise there.  K(k) < 373 whenever
    # m1 > 0, so the k = 1 values past |u| = 710, where cosh and sinh
    # overflow (sech u = 2 e^-|u| there), serve m1 = 0 only.
    t = np.tanh(u)
    hot = m1 > 0.0
    uh = np.where(hot, u, 0.0)
    w = 0.25 * m1
    with np.errstate(over="ignore"):
        s = np.where(np.abs(u) >= 710.0, 2.0 * np.exp(-np.abs(u)), 1.0 / np.cosh(u))
        sinh = np.sinh(uh)
        eps = np.where(hot, t + w * (uh * (1.0 + t * t) - t), t)
    return (np.where(hot, t + w * (t - u * s * s), t),
            np.where(hot, s - w * (sinh - u * s) * t, s),
            np.where(hot, s + w * (sinh + u * s) * t, s), eps)


def complete_K(k: float, m1: float | None = None) -> float:
    """Complete elliptic integral of the first kind, K(k) = F(pi/2, k)."""
    m1 = _m1_of(k, m1)
    if m1 == 0.0:
        raise DomainError("K(k) diverges at k = 1")
    return _agm_ladder(m1)[3]


def jacobi_epsilon(u: float, k: float, m1: float | None = None) -> float:
    """Jacobi epsilon function, int_0^u dn^2(t, k) dt = E(am(u, k), k), on
    the first half period |u| < K(k) (every u at k = 1); elsewhere it
    raises DomainError, as the array kernel does.

    From the ladder that sn, cn and dn climb: epsilon = (E/K) u + Z(u)
    (A&S 17.6, DLMF 22.16(iii)), with Z summed on the backward recursion's
    sin(phi_j); below m1 = 1e-12 the first order of the k -> 1 expansion
    (A&S 16.15), tanh u + (m1/4) (u (1 + tanh^2 u) - tanh u).

    Odd in u; this is the antiderivative the canonical fluctuation
    solutions need (the bare arccos(cn) amplitude is even in u and would
    break the odd symmetry for u < 0)."""
    m1 = _checked_m1(u, k, m1)
    eps, big_k = _scalar_sn_cn_dn_eps_k(u, m1)[3:]
    if not abs(u) < big_k:
        raise _past_half_period(u, m1, big_k)
    return eps


# ---------------------------------------------------------------------------
# Array kernel.
# ---------------------------------------------------------------------------

def sn_cn_dn_eps_array(u, k, m1):
    """sn, cn, dn and epsilon = E(am(u, k), k), elementwise over arrays
    (u, k and m1 = 1 - k^2 broadcast together; m1 is required, since only
    the caller can form it exactly).

    Per element it takes the branches of the scalar jacobi_sn_cn_dn and
    jacobi_epsilon: the k -> 1 expansion below m1 = 1e-12, equal to theirs
    bit for bit, the ladder above, with epsilon = (E/K) u + Z(u).  It covers
    |u| < K(k), every u at m1 = 0, and raises DomainError elsewhere, as
    jacobi_epsilon does.  On the path families it agrees with the scalar
    routines to 4e-16 relative, epsilon included.  Elsewhere an element can
    climb more steps than alone (the ladder runs until all have settled), so
    the phases 2^n a_n u round apart, and it agrees to 16 eps (1 + |u|)
    absolute, far less in relative terms where cn and dn are small."""
    u, k, m1 = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (u, k, m1)))
    if not np.all(np.isfinite(u)):
        raise DomainError("argument u is not finite everywhere")
    if not np.all((0.0 <= k) & (k <= 1.0)):
        raise DomainError("modulus k outside [0, 1]")
    bad = ~((0.0 <= m1) & (m1 < math.inf))
    if bad.any():
        raise _m1_error(float(m1.flat[np.flatnonzero(bad)[0]]))
    sn, cn, dn, eps, big_k = _sn_cn_dn_eps_k(u, m1)
    past = ~(np.abs(u) < big_k)
    if past.any():
        i = np.flatnonzero(past)[0]
        raise _past_half_period(float(u.flat[i]), float(m1.flat[i]),
                                float(big_k.flat[i]))
    return sn, cn, dn, eps


def _sn_cn_dn_eps_k(u, m1):
    """sn, cn, dn, epsilon and K(k) (inf at m1 = 0) for arrays of one shape,
    unchecked (outside |u| < K epsilon is not E(am(u, k), k)): one climb
    for all elements, then the k -> 1 expansion where m1 < 1e-12."""
    shape = u.shape
    u, m1 = u.ravel(), m1.ravel()
    near = m1 < _M1_SWITCH

    # An element that settles early takes extra steps at rounding level,
    # which the recursion undoes; m1 = 0 (K infinite) climbs from b = 1.
    b = np.sqrt(np.where(m1 > 0.0, m1, 1.0))
    steps, e_over_k, a = _ladder(b, m1, np.sqrt, np.ndarray.all)
    with np.errstate(divide="ignore"):
        big_k = np.where(m1 > 0.0, math.pi / (2.0 * a), math.inf)

    sn, cn, dn, zeta = _descend((2.0 ** len(steps)) * a * u, reversed(steps),
                                np.sin, np.arcsin, np.cos)
    eps = e_over_k * u + zeta
    if near.any():
        sn[near], cn[near], dn[near], eps[near] = _sn_cn_dn_eps_near_one(u[near], m1[near])
    return tuple(x.reshape(shape) for x in (sn, cn, dn, eps, big_k))
