"""Jacobi elliptic functions and Legendre elliptic integrals on the real line.

Scalar, pure, allocation-free routines; the thermodynamic quadratures sit
directly on top of them, so nothing here caches state.

Evaluation strategy:

* ``sn, cn, dn``: descending Landen / AGM ladder (DLMF 22.20(ii)).  For
  1 - k^2 < 1e-12 the ladder stalls and the hyperbolic expansion around
  k = 1 (A&S 16.15) takes over; the physics of the quartic well clusters
  exactly there.
* ``K(k)``: AGM, K = pi / (2 agm(1, k')).
* ``E(phi, k)``: Carlson symmetric forms R_F, R_D evaluated with the
  duplication algorithm, extended to any real phi by quasi-periodicity
  E(phi + n*pi, k) = E(phi, k) + 2n E(k).

Forming 1 - k^2 from k loses precision as k -> 1.  Callers that know
1 - k^2 exactly (the quartic path does) can pass it as the ``m1`` keyword.
"""

from __future__ import annotations

import math

from .errors import DomainError

# Below this value of m1 = 1 - k^2 the AGM ladder no longer separates k
# from 1 and the hyperbolic branch is used instead.
_M1_SWITCH = 1e-12

# For k below this the direct trig formulas are already exact to machine
# precision (errors are O(k^2) inside a sqrt).
_K_TINY = 1e-8

_LADDER_MAX = 40


def _check_modulus(k: float) -> None:
    if not (0.0 <= k <= 1.0):
        raise DomainError(f"modulus k={k!r} outside [0, 1]")


def _m1_of(k: float, m1: float | None) -> float:
    if m1 is not None:
        if m1 < 0.0:
            raise DomainError(f"m1={m1!r} must be nonnegative")
        return m1
    return (1.0 - k) * (1.0 + k)


def jacobi_sn_cn_dn(u: float, k: float, m1: float | None = None) -> tuple[float, float, float]:
    """All three Jacobi elliptic functions at real argument u, modulus k.

    Returns (sn, cn, dn).  Relative accuracy ~1e-13 away from the zeros
    of cn; sn^2 + cn^2 = 1 holds exactly by construction.  For
    0 < 1 - k^2 < 1e-12 and |u| >= 710 it raises DomainError.
    """
    _check_modulus(k)
    if not math.isfinite(u):
        raise DomainError(f"argument u={u!r} is not finite")
    m1 = _m1_of(k, m1)

    if m1 < _M1_SWITCH:
        return _sn_cn_dn_near_one(u, m1)
    if k < _K_TINY:
        s, c = math.sin(u), math.cos(u)
        return s, c, math.sqrt(1.0 - (k * s) ** 2)

    # Forward AGM ladder.
    a, b, c = 1.0, math.sqrt(m1), k
    a_seq = [a]
    c_seq = [c]
    for _ in range(_LADDER_MAX):
        an = 0.5 * (a + b)
        bn = math.sqrt(a * b)
        cn_ = 0.5 * (a - b)
        a, b, c = an, bn, cn_
        a_seq.append(a)
        c_seq.append(c)
        if abs(c) <= 1e-17 * a:
            break
    n = len(a_seq) - 1

    # Backward amplitude recursion.
    phi = (2.0 ** n) * a_seq[n] * u
    phi_prev = phi
    for j in range(n, 0, -1):
        arg = c_seq[j] / a_seq[j] * math.sin(phi)
        arg = max(-1.0, min(1.0, arg))
        phi_prev = phi
        phi = 0.5 * (phi + math.asin(arg))
    sn = math.sin(phi)
    cn = math.cos(phi)
    dn = cn / math.cos(phi_prev - phi)
    return sn, cn, dn


def _sn_cn_dn_near_one(u: float, m1: float) -> tuple[float, float, float]:
    # A&S 16.15, first order in m1 = 1 - k^2.  (sinh u cosh u - u) sech^2 u
    # is written as tanh u - u sech^2 u to stay bounded for large |u|.
    t = math.tanh(u)
    if abs(u) >= 710.0:
        # cosh and sinh overflow past ~710.5; sech u = 2 e^-|u| there
        if m1 > 0.0:
            raise DomainError(f"u={u!r} with m1={m1!r}: the first-order "
                              "k -> 1 branch overflows for |u| >= 710")
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
    _check_modulus(k)
    m1 = _m1_of(k, m1)
    if m1 == 0.0:
        raise DomainError("K(k) diverges at k = 1")
    a, b = 1.0, math.sqrt(m1)
    for _ in range(_LADDER_MAX):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        if abs(a - b) <= 1e-17 * a:
            break
    return math.pi / (2.0 * a)


# Carlson duplication-algorithm error controls; truncation errors scale as
# ERRTOL^6 (R_F) and ERRTOL^6 (R_D), both below 1e-16 with these values.
_RF_ERRTOL = 0.0025
_RD_ERRTOL = 0.0015


def _carlson_rf(x: float, y: float, z: float) -> float:
    xt, yt, zt = x, y, z
    while True:
        sqx, sqy, sqz = math.sqrt(xt), math.sqrt(yt), math.sqrt(zt)
        lam = sqx * (sqy + sqz) + sqy * sqz
        xt, yt, zt = 0.25 * (xt + lam), 0.25 * (yt + lam), 0.25 * (zt + lam)
        mu = (xt + yt + zt) / 3.0
        dx, dy, dz = 1.0 - xt / mu, 1.0 - yt / mu, 1.0 - zt / mu
        if max(abs(dx), abs(dy), abs(dz)) < _RF_ERRTOL:
            break
    e2 = dx * dy - dz * dz
    e3 = dx * dy * dz
    return (1.0 + (e2 / 24.0 - 0.1 - 3.0 * e3 / 44.0) * e2 + e3 / 14.0) / math.sqrt(mu)


def _carlson_rd(x: float, y: float, z: float) -> float:
    xt, yt, zt = x, y, z
    total = 0.0
    fac = 1.0
    while True:
        sqx, sqy, sqz = math.sqrt(xt), math.sqrt(yt), math.sqrt(zt)
        lam = sqx * (sqy + sqz) + sqy * sqz
        total += fac / (sqz * (zt + lam))
        fac *= 0.25
        xt, yt, zt = 0.25 * (xt + lam), 0.25 * (yt + lam), 0.25 * (zt + lam)
        mu = (xt + yt + 3.0 * zt) / 5.0
        dx, dy, dz = 1.0 - xt / mu, 1.0 - yt / mu, 1.0 - zt / mu
        if max(abs(dx), abs(dy), abs(dz)) < _RD_ERRTOL:
            break
    ea = dx * dy
    eb = dz * dz
    ec = ea - eb
    ed = ea - 6.0 * eb
    ee = ed + ec + ec
    s1 = ed * (-3.0 / 14.0 + 9.0 / 88.0 * ed - 4.5 / 26.0 * dz * ee)
    s2 = dz * (ee / 6.0 + dz * (-9.0 / 22.0 * ec + 3.0 / 26.0 * dz * ea))
    return 3.0 * total + fac * (1.0 + s1 + s2) / (mu * math.sqrt(mu))


def _e_core(phi: float, k: float) -> float:
    # E(phi, k) for phi in [0, pi/2], k in [0, 1).
    s = math.sin(phi)
    c = math.cos(phi)
    y = (1.0 - k * s) * (1.0 + k * s)
    if s == 0.0:
        return 0.0
    return s * (_carlson_rf(c * c, y, 1.0) - (k * k) * s * s * _carlson_rd(c * c, y, 1.0) / 3.0)


def complete_E(k: float) -> float:
    """Complete elliptic integral of the second kind, E(k) = E(pi/2, k)."""
    _check_modulus(k)
    if k == 1.0:
        return 1.0
    return _e_core(0.5 * math.pi, k)


def incomplete_E(phi: float, k: float) -> float:
    """Incomplete elliptic integral of the second kind,

        E(phi, k) = int_0^phi sqrt(1 - k^2 sin^2 t) dt,

    for any real phi via E(phi + n*pi, k) = E(phi, k) + 2n E(k)."""
    _check_modulus(k)
    if not math.isfinite(phi):
        raise DomainError(f"phi={phi!r} is not finite")
    if k == 0.0:
        return phi
    n = math.floor(phi / math.pi + 0.5)
    phi_r = phi - n * math.pi
    if k == 1.0:
        return 2.0 * n + math.sin(phi_r)
    base = 2.0 * n * complete_E(k) if n != 0 else 0.0
    val = _e_core(abs(phi_r), k)
    return base + math.copysign(val, phi_r)


def jacobi_am(u: float, k: float, m1: float | None = None) -> float:
    """Jacobi amplitude am(u, k), the angle with sn = sin(am), cn = cos(am)."""
    _check_modulus(k)
    m1 = _m1_of(k, m1)
    sn, _, _ = jacobi_sn_cn_dn(u, k, m1)
    if m1 < _M1_SWITCH:
        # K is effectively infinite on this branch; am is the gudermannian
        # plus an O(m1) correction already carried by sn.
        return math.asin(max(-1.0, min(1.0, sn)))
    big_k = complete_K(k, m1)
    n = math.floor(u / (2.0 * big_k) + 0.5)
    core = math.asin(max(-1.0, min(1.0, sn)))
    if n == 0:
        return core
    return n * math.pi + (core if n % 2 == 0 else -core)


def jacobi_epsilon(u: float, k: float, m1: float | None = None) -> float:
    """Jacobi epsilon function, int_0^u dn^2(t, k) dt = E(am(u, k), k).

    Odd in u and quasi-periodic; this is the antiderivative the canonical
    fluctuation solutions need (the bare arccos(cn) amplitude is even in u
    and would break the odd symmetry for u < 0)."""
    return incomplete_E(jacobi_am(u, k, m1), k)
