"""Closed Euclidean trajectories and canonical fluctuation solutions.

Everything is expressed in reduced units hbar = m = omega = k_B = 1, so a
problem is fixed by the coupling g, the dimension D and the dimensionless
inverse temperature Theta.  The Euclidean motion runs in the inverted
potential; for an attractive central well the closed trajectory of
time-of-flight Theta is radial, dips to a turning radius at Theta/2 and
returns to its endpoint.

Two potentials have closed forms:

* harmonic, V = r^2/2: r_c(t) = r0 cosh(t - Theta/2)/cosh(Theta/2);
* single-well quartic, U = q^2/2 + q^4/4: q_c(t) = q_t nc(u_t, k) with
  u_t = sqrt(1+q_t^2) (t - Theta/2) and k^2 = (2+q_t^2)/(2(1+q_t^2)),
  so the modulus always lives in (1/sqrt(2), 1].

The canonical solutions of the longitudinal fluctuation equation
(-d^2/dt^2 + U''(q_c)) f = 0 are f_a = dq_c/dt and
f_b = f_a int_0^t f_a^-2; for the transverse equation
(-d^2/dt^2 + U'(q_c)/q_c) f = 0 they are f_a = q_c and
f_b = q_c int_0^t q_c^-2.  Both pairs have unit Wronskian and f_b(0) = 0,
which makes every determinant and Green's function downstream
denominator-free.  The antiderivatives are evaluated in closed form with
Jacobi epsilon functions; the divergent cn dn/sn piece of the
longitudinal antiderivative is folded algebraically into the prefactor
(sn dn/cn^2) (-cn dn/sn) = -dn^2/cn, so the midpoint t = Theta/2 where
f_a vanishes needs no series expansion.

The action, both closed-form determinants, the q0 Jacobian and the
canonical pairs at the endpoints t = 0, Theta all need the elliptic
functions at the half period u = -u_T, +u_T only.  Each QuarticPath
therefore takes sn, cn, dn and epsilon at u_T from the one kernel climb
that builds it (with K, for the pole check), and `QuarticPath.at` hands
them out by parity at t = 0 (sn and epsilon are odd, cn and dn even; the
kernel honours these identities bit for bit).  Any other time costs one
climb, so the values read from a path, `position` included, are exactly
the kernel's: the builder and `at` are its only callers.

A QuarticPath is one path (float fields, built with the scalar kernel)
or a family of paths, one per element of an array of q_t, at one Theta
or at a Theta per element (array fields, built with the array kernel in
one call).  The action, the closed-form determinants, the Jacobian and
the canonical pairs are written once, elementwise, and take either.

A generic shooting solver is included purely as a numerical oracle for
the closed forms.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .elliptic import (
    _past_half_period,
    _scalar_sn_cn_dn_eps_k,
    _sn_cn_dn_eps_k,
    complete_K,
    jacobi_sn_cn_dn,  # noqa: F401  (kept for perfbench's tracer test)
    sn_cn_dn_eps_array,
)
from .errors import ConvergenceError, DegenerateError, DomainError, PoleError

_ROOT_RTOL = 1e-13
# the k = 1 values are exact to rounding while ln q_t + u_T stays below
# this, where q_t^2 e^(2 u_T) / 32 reaches one ulp
_LN_FLAT_LIMIT = 0.5 * math.log(32.0 * np.finfo(float).eps)


def _check_positive(name: str, value: float) -> None:
    """DomainError naming `name` unless value is finite and > 0."""
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name}={value!r} must be positive and finite")


_check_theta = functools.partial(_check_positive, "Theta")


def _check_nonnegative(name: str, value: float) -> None:
    """DomainError naming `name` unless value is finite and >= 0."""
    if not 0.0 <= value < math.inf:
        raise DomainError(f"{name}={value!r} must be finite and >= 0")


def _check_integer(name: str, value: int, low: int, high: float = math.inf) -> None:
    """DomainError naming `name` unless value is an integer in [low, high),
    not a bool (the exact type first: the ABC check alone costs ~3 us)."""
    if not ((type(value) is int or isinstance(value, numbers.Integral)
             and not isinstance(value, bool)) and low <= value < high):
        bounds = f">= {low}" if high == math.inf else f"in [{low}, {high})"
        raise DomainError(f"{name}={value!r} must be an integer {bounds}")


@dataclass(frozen=True)
class ReducedParams:
    """Dimensionless problem specification: coupling g, dimension D,
    inverse temperature Theta (temperature is T = 1/Theta)."""

    g: float
    D: int
    Theta: float

    def __post_init__(self):
        _check_nonnegative("coupling g", self.g)
        _check_integer("dimension D", self.D, 1)
        _check_theta(self.Theta)

    @property
    def T(self) -> float:
        return 1.0 / self.Theta


def _check_time(theta: float, Theta: float) -> float:
    """theta itself inside [0, Theta); the Theta object itself at Theta's
    value or within a roundoff-level overshoot of an adaptive stepper,
    1e-9 max(1, Theta), above it, so `QuarticPath.at` knows it by identity
    and reads the path's own values (the bits of a climb there); 0.0 within
    that overshoot below 0.  Plain comparisons, not max / min: the
    variational flow checks a time per step."""
    if 0.0 <= theta < Theta:
        return theta
    slack = 1e-9 * Theta if Theta > 1.0 else 1e-9
    if -slack <= theta < 0.0:
        return 0.0
    if Theta <= theta <= Theta + slack:
        return Theta
    raise DomainError(f"theta={theta!r} outside [0, {Theta}]")


def _check_times(path: QuarticPath, theta):
    """_check_time for paths, elementwise: theta is one time or an array of
    the family's shape (() for one path), each held against its path's
    Theta.  One time at one Theta is _check_time's; otherwise theta itself
    where every time lies inside, else the times within the slack moved to
    the nearer end, or DomainError naming the first path whose time is outside."""
    Theta, shape = path.Theta, np.shape(path.q_t)
    if not (np.ndim(theta) or np.ndim(Theta)):
        return _check_time(theta, Theta)
    if np.shape(theta) not in ((), shape):
        raise DomainError(f"times of shape {np.shape(theta)} for a family of "
                          f"shape {shape}: give one time or one per path")
    if np.all((0.0 <= theta) & (theta <= Theta)):
        return theta
    slack = np.where(Theta > 1.0, 1e-9 * Theta, 1e-9)
    outside = np.broadcast_to(~((-slack <= theta) & (theta <= Theta + slack)), shape)
    if outside.any():
        i = np.flatnonzero(outside)[0]
        raise DomainError(f"theta={float(np.broadcast_to(theta, shape).flat[i])!r} "
                          f"outside [0, Theta] at {_path_at(path, i)}")
    return np.where(theta < 0.0, 0.0, np.minimum(theta, Theta))


def harmonic_trajectory(r0: float, Theta: float, theta: float) -> float:
    """r0 cosh(theta - Theta/2)/cosh(Theta/2), the closed harmonic path."""
    _check_theta(Theta)
    _check_nonnegative("r0", r0)
    theta = _check_time(theta, Theta)
    # exp form keeps the ratio finite for large Theta
    x = abs(theta - 0.5 * Theta)
    y = 0.5 * Theta
    return r0 * math.exp(x - y) * (1.0 + math.exp(-2.0 * x)) / (1.0 + math.exp(-2.0 * y))


def harmonic_action(r0: float, Theta: float) -> float:
    """Euclidean action of the closed harmonic path, r0^2 tanh(Theta/2)."""
    _check_theta(Theta)
    _check_nonnegative("r0", r0)
    return r0 * r0 * math.tanh(0.5 * Theta)


# ---------------------------------------------------------------------------
# Quartic well, reduced form U(q) = q^2/2 + q^4/4.
# ---------------------------------------------------------------------------

def _modulus_and_scale(q_t, sqrt=math.sqrt):
    # m1 = 1 - k^2 = q_t^2 / (2 (1 + q_t^2)), exact in q_t, then the
    # modulus k and the frequency scale s = sqrt(1 + q_t^2)
    q2 = q_t * q_t
    return q2 / (2.0 * (1.0 + q2)), sqrt((2.0 + q2) / (2.0 + 2.0 * q2)), sqrt(1.0 + q2)


@dataclass(frozen=True)
class QuarticPath:
    """A closed trajectory of the quartic well, labelled by its turning
    value q_t and period Theta.

    Carries the elliptic modulus k (and m1 = 1 - k^2 formed exactly from
    q_t), the frequency scale s = sqrt(1 + q_t^2), the half-period
    argument u_T = s Theta / 2 and the endpoint q0 = q_t nc(u_T, k).

    Also carries sn, cn, dn and epsilon at u_T (sn_T, cn_T, dn_T, eps_T)
    from the kernel climb that built the path (at q_t = 0 the k = 1
    values tanh, sech, sech, tanh), which `at` hands out.

    The fields are floats, or for a family of paths arrays of one shape
    (Theta may also stay one float for the whole family)."""

    q_t: float
    Theta: float
    k: float
    s: float
    q0: float
    m1: float = field(repr=False)
    u_T: float = field(repr=False)
    sn_T: float = field(repr=False)
    cn_T: float = field(repr=False)
    dn_T: float = field(repr=False)
    eps_T: float = field(repr=False)

    @property
    def at_rest(self) -> bool:
        """Whether this is the q_t = 0 path, which rests at the origin
        (a family of paths has q_t > 0 throughout)."""
        return not isinstance(self.q_t, np.ndarray) and self.q_t == 0.0

    def at(self, theta):
        """(u, sn, cn, dn, epsilon) at time theta, u = s (theta - Theta/2),
        bit for bit the kernel's.  theta = Theta (by identity with
        self.Theta) and a float 0.0 read the path's own values, by parity at
        0 (sn and epsilon odd, cn and dn even); any other time climbs the
        kernel once, and raises DomainError outside the half period |u| < K."""
        if theta is self.Theta:
            return self.u_T, self.sn_T, self.cn_T, self.dn_T, self.eps_T
        if isinstance(theta, float) and theta == 0.0:
            return -self.u_T, -self.sn_T, self.cn_T, self.dn_T, -self.eps_T
        u = self.s * (theta - 0.5 * self.Theta)
        if isinstance(self.q_t, np.ndarray):
            return (u, *sn_cn_dn_eps_array(u, self.k, self.m1))
        sn, cn, dn, eps, big_k = _scalar_sn_cn_dn_eps_k(u, self.m1)
        if not abs(u) < big_k:
            raise _past_half_period(u, self.m1, big_k)
        return u, sn, cn, dn, eps

    def position(self, theta: float):
        """q_c(theta) = q_t nc(u, k), with cn from `at`: one kernel climb,
        none at theta = 0 and Theta (the variational flow calls it per step).
        A family takes one time or one per path, one path one time (see
        _check_times)."""
        q_t = self.q_t
        if isinstance(q_t, np.ndarray) or not isinstance(theta, float):
            theta = _check_times(self, theta)
            return 0.0 if self.at_rest else q_t / self.at(theta)[2]
        theta = _check_time(theta, self.Theta)
        if q_t == 0.0:  # at_rest, inlined
            return 0.0
        return q_t / self.at(theta)[2]

    def velocity(self, theta: float):
        theta = _check_times(self, theta)
        if self.at_rest:
            return 0.0
        _, sn, cn, dn, _ = self.at(theta)
        return self.q_t * self.s * sn * dn / (cn * cn)


def quartic_path_from_qt(q_t, Theta) -> QuarticPath:
    """Build the quartic path with turning value q_t and period Theta, or,
    for an array of q_t > 0, the family of those paths in one kernel call,
    at one Theta or at a Theta per node (any sequence of q_t's shape).

    Raises PoleError when sqrt(1+q_t^2) Theta/2 >= K(k), i.e. when the
    endpoint q0 would sit at or beyond the pole of nc (for a family,
    naming the first such q_t).  Where m1 = q_t^2 / (2 (1 + q_t^2))
    underflows to 0 (0 < q_t < ~3e-162) the kernel's k = 1 values serve,
    sn, cn, dn = tanh, sech, sech, so q0 = q_t cosh(u_T).  They drop a
    relative q_t^2 e^(2 u_T) / 32 from cn and dn, so they serve while that
    is below rounding, q_t e^(u_T) <= 6e-8, and DomainError is raised
    beyond (the pole lies ~18 further in u)."""
    if np.ndim(q_t):
        return _quartic_paths(np.asarray(q_t, dtype=float), Theta)
    if isinstance(q_t, np.ndarray):  # 0-d: one path, with float fields
        q_t = float(q_t)
    _check_theta(Theta)
    _check_nonnegative("q_t", q_t)
    m1, k, s = _modulus_and_scale(q_t)
    u_T = 0.5 * s * Theta
    sn, cn, dn, eps, big_k = _scalar_sn_cn_dn_eps_k(u_T, m1)
    if u_T >= big_k:
        raise _pole_error(q_t, Theta, u_T, big_k)
    if q_t == 0.0:  # at rest; cn underflows to 0 from u_T ~ 745
        return QuarticPath(0.0, Theta, k, s, 0.0, m1, u_T, sn, cn, dn, eps)
    if m1 == 0.0 and math.log(q_t) + u_T > _LN_FLAT_LIMIT:
        raise _flat_error(q_t, Theta, u_T)
    return QuarticPath(q_t, Theta, k, s, q_t / cn, m1, u_T, sn, cn, dn, eps)


def _quartic_paths(q_t: np.ndarray, Theta) -> QuarticPath:
    """The family of paths at the turning values q_t > 0, at one Theta or at
    a Theta per path (any sequence of q_t's shape); DomainError otherwise."""
    if not np.all((q_t > 0.0) & (q_t < math.inf)):
        raise DomainError("an array of turning values must be finite and > 0 "
                          "(build the q_t = 0 path on its own)")
    if np.ndim(Theta) == 0:
        _check_theta(Theta)
    elif (Theta := np.asarray(Theta, dtype=float)).shape != q_t.shape:
        raise DomainError(f"Theta of shape {Theta.shape} for a family of shape "
                          f"{q_t.shape}: give one Theta or one per q_t")
    elif Theta.size and not (Theta.min() > 0.0 and Theta.max() < math.inf):
        raise DomainError("every Theta of a family must be positive and finite")
    m1, k, s = _modulus_and_scale(q_t, np.sqrt)
    u_T = 0.5 * s * Theta
    sn, cn, dn, eps, big_k = _sn_cn_dn_eps_k(u_T, m1)
    past = u_T >= big_k
    if not m1.all():
        past |= (m1 == 0.0) & (np.log(q_t) + u_T > _LN_FLAT_LIMIT)
    if past.any():
        i = np.flatnonzero(past)[0]
        q, th, u = q_t.flat[i], np.broadcast_to(Theta, q_t.shape).flat[i], u_T.flat[i]
        raise (_flat_error(q, th, u) if m1.flat[i] == 0.0
               else _pole_error(q, th, u, big_k.flat[i]))
    return QuarticPath(q_t, Theta, k, s, q_t / cn, m1, u_T, sn, cn, dn, eps)


def _pole_error(q_t: float, Theta: float, u_T: float, big_k: float) -> PoleError:
    return PoleError(
        f"q_t={q_t}, Theta={Theta}: argument u={u_T:.6g} reaches the "
        f"nc pole at K={big_k:.6g}; the endpoint q0 is unbounded")


def _flat_error(q_t: float, Theta: float, u_T: float) -> DomainError:
    return DomainError(
        f"q_t={q_t}, Theta={Theta}: 1 - k^2 underflows to 0, and at u={u_T:.6g} "
        "the k = 1 values it leaves are not exact (q_t e^u above 6e-8)")


def _pole_gap(q_t: float, Theta: float) -> float:
    # sqrt(1+q_t^2) Theta/2 - K(k(q_t)); the pole-free domain is gap < 0
    m1, k, s = _modulus_and_scale(q_t)
    return 0.5 * s * Theta - complete_K(k, m1=m1)


def q_theta_max(Theta: float) -> float:
    """Largest admissible turning value q_Theta at fixed Theta, the root of
    sqrt(1+q_t^2) Theta/2 = K(k(q_t)).  Below it paths are pole-free; as
    q_t -> q_Theta the endpoint q0 diverges.

    The root falls like 4 sqrt(2) e^(-Theta/2), so the octave
    [2^(e-1), 2^e] that holds it is found in ln q_t, starting from that
    asymptote; brentq then closes the octave to 1e-13 relative, or to the
    q_t step that moves m1 = 1 - k^2 by one ulp where that is coarser (m1
    is subnormal from Theta ~ 710).  A value past the pole is stepped down
    by that tolerance, so the gap is <= 0 at the value returned.  Raises
    ConvergenceError where 1 - k^2 underflows at the root (from
    Theta ~ 745), where q_t^2 overflows on the way to it (the root is
    ~3.7 / Theta, so below Theta ~ 3e-154) or where the stepped-down value
    is still past the pole."""
    _check_theta(Theta)

    # brentq evaluates the octave's ends again and returns a point it has
    # evaluated; the cache answers those
    @functools.lru_cache(maxsize=None)
    def gap(q_t: float) -> float:
        if q_t * q_t == math.inf:
            raise ConvergenceError(
                f"q_Theta at Theta={Theta!r}, about 3.7 / Theta, lies where "
                "q_t^2 overflows the float range")
        if _modulus_and_scale(q_t)[0] == 0.0:
            raise ConvergenceError(
                f"q_Theta at Theta={Theta!r}, about 4 sqrt(2) e^(-Theta/2), "
                "lies where 1 - k^2 = q_t^2 / (2 (1 + q_t^2)) underflows")
        return _pole_gap(q_t, Theta)

    # gap < 0 exactly below the root; q = 2^e is its octave's top
    e = math.ceil(math.log2(4.0 * math.sqrt(2.0)) - 0.5 * Theta / math.log(2.0))
    while gap(math.ldexp(1.0, e)) <= 0.0:
        e += 1
    while gap(math.ldexp(1.0, e - 1)) > 0.0:
        e -= 1
    lo = math.ldexp(1.0, e - 1)
    m1 = _modulus_and_scale(lo)[0]
    xtol = lo * (math.ulp(m1) / m1)
    q = brentq(gap, lo, 2.0 * lo, xtol=xtol, rtol=_ROOT_RTOL)
    if gap(q) > 0.0:
        # brentq's bracket held the root within xtol + rtol q of q
        q -= xtol + _ROOT_RTOL * q
        if gap(q) > 0.0:
            raise ConvergenceError(
                f"q_theta_max(Theta={Theta!r}): q_t={q!r} lies past the pole "
                f"(gap {gap(q):.3e}) after a step below brentq's root")
    return q


def invert_endpoint(q0: float, Theta: float) -> float:
    """Turning value q_t in [0, q_Theta) whose path ends at q0; inverts
    q0 = q_t nc(u_T, k) with brentq on [0, q_Theta (1 - 1e-15)] (the map
    is strictly increasing and onto [0, inf)).  Raises ConvergenceError
    when the endpoint gap at the value found exceeds 1e-12 (1 + q0), which
    happens for large q0, where q0 varies faster in q_t than one ulp
    resolves, or q0 lies beyond the bracket's top."""
    _check_nonnegative("q0", q0)
    if q0 == 0.0:
        return 0.0
    hi = q_theta_max(Theta) * (1.0 - 1e-15)

    def gap(q_t: float) -> float:
        try:
            return quartic_path_from_qt(q_t, Theta).q0 - q0
        except PoleError:
            return math.inf

    # brentq steps at least xtol / 2 from q_t = 0, which keeps its trials
    # far above the q_t ~ 3e-162 where m1 = q_t^2 / 2 underflows
    q_t = brentq(gap, 0.0, hi, xtol=1e-150) if gap(hi) > 0.0 else hi
    miss, bound = gap(q_t), 1e-12 * (1.0 + q0)
    if not abs(miss) <= bound:
        raise ConvergenceError(
            f"invert_endpoint(q0={q0!r}, Theta={Theta!r}): brentq stopped at "
            f"q_t={q_t!r} with endpoint gap {miss:.3e} above {bound:.3e}")
    return q_t


def _path_at(path: QuarticPath, i: int) -> str:
    # "q_t=..., Theta=..." of a path, or of element i of a family
    theta = np.ravel(np.broadcast_to(path.Theta, np.shape(path.q_t)))[i]
    return f"q_t={float(np.ravel(path.q_t)[i])!r}, Theta={float(theta)!r}"


def _finite(where, what: str, value_of: Callable[[], float]):
    """value_of() with numpy's warnings off, or DomainError saying where it
    is not finite (a family's first such element i): `where` is a path,
    named by _path_at, or a function of i that names the element.  The one
    overflow check of the path, canonical-pair and partition functions."""
    try:
        with np.errstate(all="ignore"):
            value = value_of()
    except ArithmeticError:  # Python floats raise where numpy gives inf
        value = math.inf
    if not np.isfinite(value).all():
        i = np.flatnonzero(~np.isfinite(value))[0]
        at = _path_at(where, i) if isinstance(where, QuarticPath) else where(i)
        raise DomainError(f"{what} overflows the float range at {at}")
    return value


def quartic_action(path: QuarticPath) -> float:
    """Dimensionless Euclidean action I[q_c] of a quartic path (the
    physical action is (m^2 w^3 / lambda) I); elementwise for a family.
    Raises DomainError where it overflows the float range."""
    return _finite(path, "the action", lambda: _quartic_action(path))


def _quartic_action(path: QuarticPath):
    qt = path.q_t
    if path.at_rest:
        return 0.0
    u = path.u_T
    s = path.s
    sn, cn, eps = path.sn_T, path.cn_T, path.eps_T
    nc2 = 1.0 / (cn * cn)
    qt2 = qt * qt
    boundary = sn * (1.0 + 0.5 * qt2 * nc2) * np.sqrt(1.0 + 0.5 * qt2 * (1.0 + nc2))
    return (path.Theta * (0.5 * qt2 + 0.25 * qt2 * qt2)
            + (4.0 / 3.0) * (-s * (eps + 0.5 * qt2 * u) + boundary))


# ---------------------------------------------------------------------------
# Canonical solutions of the fluctuation equations.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalPair:
    """Two independent solutions (f_a, f_b) of a fluctuation equation with
    unit Wronskian and f_b(0) = 0, plus their time derivatives."""

    fa: Callable[[float], float]
    fb: Callable[[float], float]
    fa_dot: Callable[[float], float]
    fb_dot: Callable[[float], float]

    def omega(self, theta: float, theta_p: float):
        """Omega(t, t') = f_a(t) f_b(t') - f_a(t') f_b(t), unchecked.  The
        pair's unit Wronskian is its contract, so no Wronskian is computed
        or divided by: near the nc pole at q_Theta the computed
        f_a f_b' - f_a' f_b cancels to noise, while Omega does not."""
        return self.fa(theta) * self.fb(theta_p) - self.fa(theta_p) * self.fb(theta)

    def wronskian(self, theta: float) -> float:
        """f_a f_b' - f_a' f_b at one time, 1 by the pair's contract; a
        check only, since the determinants and Omega never divide by it."""
        return (self.fa(theta) * self.fb_dot(theta)
                - self.fa_dot(theta) * self.fb(theta))


def harmonic_canonical_pair() -> CanonicalPair:
    """(cosh, sinh): canonical pair of -d^2/dt^2 + 1 (both harmonic
    channels, since r^-1 V' = V'' for a quadratic well)."""
    return CanonicalPair(math.cosh, math.sinh, math.sinh, math.cosh)


def canonical_longitudinal(path: QuarticPath) -> CanonicalPair:
    """Canonical pair of the longitudinal operator -d^2/dt^2 + U''(q_c).

    f_a = dq_c/dt vanishes at the midpoint, where the closed-form
    antiderivative in f_b has a compensating cn dn/sn divergence; the
    product is evaluated in the folded form -dn^2/cn, which is exact."""
    qt, s, Th = path.q_t, path.s, path.Theta
    if path.at_rest:
        raise DegenerateError("q_t = 0: dq_c/dt vanishes identically; "
                              "use the harmonic pair instead")
    k, m1 = path.k, path.m1
    k2 = k * k

    def antider_reg(u, sn, cn, dn, eps):
        # int cn^4/(sn dn)^-2 du  minus its singular -cn dn/sn piece
        return (-m1 * u + (2.0 * m1 - 1.0) * eps) / k2 - m1 * sn * cn / dn

    u0, sn0, cn0, dn0, eps0 = path.at(0.0)
    f_const = antider_reg(u0, sn0, cn0, dn0, eps0) - cn0 * dn0 / sn0

    def slope(sn, cn, dn):
        return sn * dn / (cn * cn)

    def accel(cn):
        # d^2 q_c/dt^2 = U'(q_c) = q_t s^2 ((2 k^2 - 1) nc + 2 m1 nc^3),
        # formed from q_c = q_t nc: nc^3 overflows from Theta ~ 470
        q_c = qt / cn
        return q_c * (1.0 + q_c * q_c)

    def fa(theta: float) -> float:
        _, sn, cn, dn, _ = path.at(theta)
        return qt * s * slope(sn, cn, dn)

    def fa_dot(theta: float) -> float:
        return accel(path.at(theta)[2])

    def fb(theta: float) -> float:
        u, sn, cn, dn, eps = path.at(theta)
        g = antider_reg(u, sn, cn, dn, eps)
        return (slope(sn, cn, dn) * (g - f_const) - dn * dn / cn) / (qt * s * s)

    def fb_dot(theta: float) -> float:
        u, sn, cn, dn, eps = path.at(theta)
        g = antider_reg(u, sn, cn, dn, eps)
        # G' - dn^2 + 2 k^2 cn^2 collapses to an explicit O(m1) factor;
        # the raw three-term form cancels catastrophically deep in the
        # k -> 1 tail where cn^2 ~ dn^2 ~ e^{-2u}
        cross = -slope(sn, cn, dn) * m1 * (cn * cn * (1.0 + 2.0 * k2)
                                           + 2.0 * m1) / (dn * dn)
        return (accel(cn) / (qt * s * s) * (g - f_const) + cross) / (qt * s)

    return CanonicalPair(fa, fb, fa_dot, fb_dot)


def canonical_transverse(path: QuarticPath) -> CanonicalPair:
    """Canonical pair of the transverse operator -d^2/dt^2 + U'(q_c)/q_c;
    f_a is the trajectory itself."""
    qt, s = path.q_t, path.s
    if path.at_rest:
        raise DegenerateError("q_t = 0: transverse pair degenerates; "
                              "use the harmonic pair instead")
    k2 = path.k * path.k
    m1 = path.m1
    u0, _, _, _, eps0 = path.at(0.0)
    psi0 = eps0 - m1 * u0

    def fa(theta: float) -> float:
        return qt / path.at(theta)[2]

    def fa_dot(theta: float) -> float:
        _, sn, cn, dn, _ = path.at(theta)
        return qt * s * sn * dn / (cn * cn)

    def fb(theta: float) -> float:
        u, _, cn, _, eps = path.at(theta)
        return (eps - m1 * u - psi0) / (cn * k2 * qt * s)

    def fb_dot(theta: float) -> float:
        u, sn, cn, dn, eps = path.at(theta)
        return (sn * dn / (cn * cn) * (eps - m1 * u - psi0) + k2 * cn) / (k2 * qt)

    return CanonicalPair(fa, fb, fa_dot, fb_dot)


# ---------------------------------------------------------------------------
# Potentials and the shooting oracle.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialPotential:
    """Attractive central potential V(r), smooth at the origin, given by
    its radial profile and first two derivatives."""

    v: Callable[[float], float]
    dv: Callable[[float], float]
    d2v: Callable[[float], float]

    def hessian(self, x: np.ndarray) -> np.ndarray:
        """Dense Hessian at a point x.  The flow applies its diagonal form
        on r e_1 instead; this stays as the tests' oracle."""
        # dd_ij V = (V'/r) delta_ij + (V'' - V'/r) x_i x_j / r^2
        d = len(x)
        r = float(np.linalg.norm(x))
        if r < 1e-14:
            return self.d2v(0.0) * np.eye(d)
        n = np.asarray(x, dtype=float) / r
        radial = self.dv(r) / r
        return radial * np.eye(d) + (self.d2v(r) - radial) * np.outer(n, n)


def harmonic_well() -> RadialPotential:
    return RadialPotential(lambda r: 0.5 * r * r, lambda r: r, lambda r: 1.0)


def quartic_well() -> RadialPotential:
    """Reduced single-well quartic potential U(q) = q^2/2 + q^4/4."""
    return RadialPotential(lambda q: 0.5 * q * q + 0.25 * q ** 4,
                           lambda q: q + q ** 3,
                           lambda q: 1.0 + 3.0 * q * q)


# the points at which a shooting result samples its trajectory
_SHOOT_SAMPLES = 256


@dataclass(frozen=True)
class ShootResult:
    """Radial trajectory found by shooting: sample grid, initial slope and
    achieved boundary residual.  Calling it evaluates the dense solution."""

    theta: np.ndarray
    r: np.ndarray
    v0: float
    residual: float
    _sol: object = field(repr=False)

    def __call__(self, theta: float) -> float:
        return float(self._sol.sol(theta)[0])


def shoot_radial_path(potential: RadialPotential, r0: float,
                      Theta: float) -> ShootResult:
    """Solve d^2r/dt^2 = V'(r) with r(0) = r(Theta) = r0 by shooting on the
    initial slope.  Verification oracle only; the closed forms above are
    the production path."""
    _check_theta(Theta)
    _check_nonnegative("r0", r0)
    grid = np.linspace(0.0, Theta, _SHOOT_SAMPLES)
    if r0 == 0.0:
        sol = solve_ivp(lambda t, y: [y[1], 0.0], (0.0, Theta), [0.0, 0.0],
                        dense_output=True, rtol=1e-12, atol=1e-12)
        return ShootResult(grid, np.zeros_like(grid), 0.0, 0.0, sol)

    def integrate(v: float):
        return solve_ivp(lambda t, y: [y[1], potential.dv(y[0])],
                         (0.0, Theta), [r0, v], dense_output=True,
                         rtol=1e-12, atol=1e-12)

    def miss(v: float) -> float:
        return integrate(v).y[0, -1] - r0

    v_hi = 0.0
    v_lo = -max(1.0, r0)
    for _ in range(60):
        if miss(v_lo) < 0.0:
            break
        v_lo *= 2.0
    else:
        raise ConvergenceError(
            f"shooting failed to bracket a returning path for r0={r0}, "
            f"Theta={Theta}; tried initial slopes in [{v_lo}, 0]")
    v0 = brentq(miss, v_lo, v_hi, xtol=1e-13, rtol=8.9e-16)
    sol = integrate(v0)
    residual = abs(sol.y[0, -1] - r0)
    if residual > 1e-9:
        raise ConvergenceError(
            f"shooting residual {residual:.3e} exceeds 1e-9 for r0={r0}, "
            f"Theta={Theta}")
    return ShootResult(grid, sol.sol(grid)[0], v0, residual, sol)
