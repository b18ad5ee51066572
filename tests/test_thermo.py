"""Tests for partition functions, WKB levels and specific heat."""

import math
import warnings
from collections import Counter

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

import sct.fluctuations
import sct.paths
import sct.thermo
from sct.errors import (
    ConvergenceError,
    DomainError,
    QuadratureError,
    RouteMismatchError,
    SctError,
    TruncationError,
)
from sct.fluctuations import (
    _det_longitudinal_closed,
    _det_transverse_closed,
    det_longitudinal,
    det_transverse,
    flow_matrices,
    green_central,
    green_table_central,
    radial_trajectory,
)
from sct.paths import (
    ReducedParams,
    harmonic_action,
    harmonic_canonical_pair,
    harmonic_trajectory,
    q_theta_max,
    quartic_action,
    quartic_path_from_qt,
    quartic_well,
    shoot_radial_path,
)
from sct.thermo import (
    _gauss_kronrod,
    _ln_sphere_surface,
    _ln_tail_bound,
    _log_integrand,
    _phase_integral,
    jacobian_dq0_dqt,
    ln_z2_quartic,
    ln_z_classical,
    ln_z_classical_batch,
    ln_z_harmonic,
    ln_z_wkb,
    ln_z_wkb_batch,
    specific_heat,
    stencil_thetas,
    wkb_levels,
    wkb_spectrum,
    z2_harmonic_integral,
    z2_quartic,
    z_classical,
    z_harmonic,
    z_wkb,
    ThermoCurve,
    WkbSpectrum,
)
from sct.cli import thermo_curve


def harmonic_specific_heat(Theta):
    return (0.5 * Theta / math.sinh(0.5 * Theta)) ** 2


class TestAngularPrefactor:
    def test_unit_sphere_surfaces(self):
        for D, surface in ((1, 2.0), (2, 2.0 * math.pi), (3, 4.0 * math.pi)):
            assert _ln_sphere_surface(D) == pytest.approx(math.log(surface), abs=1e-15)
        # S_(D+2) = 2 pi S_D / D
        for D in range(1, 14):
            assert _ln_sphere_surface(D + 2) == pytest.approx(
                math.log(2.0 * math.pi / D) + _ln_sphere_surface(D), abs=1e-14)

    @pytest.mark.parametrize("D", [345, 1000, 100000])
    def test_past_the_gamma_overflow(self, D):
        # math.gamma(D/2) overflows from D = 345
        with mpmath.workdps(40):
            want = float(mpmath.log(2 * mpmath.pi ** (mpmath.mpf(D) / 2)
                                    / mpmath.gamma(mpmath.mpf(D) / 2)))
        assert _ln_sphere_surface(D) == pytest.approx(want, rel=1e-14)


class TestThetaDomain:
    @pytest.mark.parametrize("Theta", [math.nan, math.inf, 0.0, -1.0])
    def test_every_entry_point_rejects_it(self, Theta, deadline):
        # NaN once raised KeyError in specific_heat, hung shoot_radial_path
        # and came back as NaN from the harmonic references and z_wkb
        lnz = lambda th: ln_z_harmonic(1, th)
        well = quartic_well()
        calls = {
            "ReducedParams": lambda: ReducedParams(0.5, 1, Theta),
            "quartic_path_from_qt": lambda: quartic_path_from_qt(0.5, Theta),
            "q_theta_max": lambda: q_theta_max(Theta),
            "harmonic_trajectory": lambda: harmonic_trajectory(1.0, Theta, 0.0),
            "harmonic_action": lambda: harmonic_action(1.0, Theta),
            "shoot_radial_path": lambda: shoot_radial_path(well, 1.0, Theta),
            "flow_matrices": lambda: flow_matrices(
                well, radial_trajectory(lambda t: 0.5, 2), Theta),
            "green_table_central": lambda: green_table_central(
                harmonic_canonical_pair(), Theta, 4),
            "ln_z_harmonic": lambda: ln_z_harmonic(1, Theta),
            "z2_harmonic_integral": lambda: z2_harmonic_integral(1, Theta),
            "z_wkb": lambda: z_wkb(WkbSpectrum((0.5, 1.5), 0.0), Theta),
            "ln_z_wkb": lambda: ln_z_wkb(WkbSpectrum((0.5, 1.5), 0.0), Theta),
            "specific_heat": lambda: specific_heat(lnz, Theta),
        }
        for name, call in calls.items():
            with pytest.raises(DomainError, match="must be positive and finite"):
                call()
        # thermo_curve takes temperatures; each of these fails the same way
        with pytest.raises(DomainError):
            thermo_curve(lnz, [Theta])

    # q_t = 0 path closed forms and the harmonic pair: math.sinh and
    # math.cosh raised a bare OverflowError from Theta ~ 710.5, and the
    # closed forms returned 2 pi sinh(Theta) = inf from ~708.6
    AT_REST = {f.__name__: f for f in (
        _det_longitudinal_closed, _det_transverse_closed, det_longitudinal,
        det_transverse, jacobian_dq0_dqt)}
    OVERFLOW_CALLS = {
        **{name: lambda Theta, f=f: f(quartic_path_from_qt(0.0, Theta))
           for name, f in AT_REST.items()},
        "z2_harmonic_integral": lambda Theta: z2_harmonic_integral(1, Theta),
        "green_central": lambda Theta: green_central(
            harmonic_canonical_pair(), Theta, 1.0, 2.0),
        "green_table_central": lambda Theta: green_table_central(
            harmonic_canonical_pair(), Theta, 4),
    }

    @pytest.mark.parametrize("name,Theta", [(name, 800.0) for name in OVERFLOW_CALLS]
                             + [(name, 709.0) for name in AT_REST])
    def test_overflow_is_an_sct_error(self, name, Theta):
        with pytest.raises(SctError, match="overflows the float range"):
            self.OVERFLOW_CALLS[name](Theta)


class TestPathFunctionsAtTheFloatRange:
    # each returns a finite value or raises an SctError naming q_t and
    # Theta, for one path and for a family; no warning escapes
    FUNCTIONS = (quartic_action, det_longitudinal, det_transverse, jacobian_dq0_dqt)

    @classmethod
    def _check(cls, path):
        """The functions that raised, after checking every outcome."""
        raised = set()
        for f in cls.FUNCTIONS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    value = f(path)
                except SctError as exc:
                    raised.add(f.__name__)
                    assert any(f"q_t={q!r}, Theta={float(th)!r}" in str(exc) for q, th in
                               zip(np.ravel(path.q_t).tolist(),
                                   np.ravel(np.broadcast_to(path.Theta, np.shape(path.q_t)))))
                else:
                    assert np.isfinite(value).all()
        return raised

    # a bare OverflowError from (sn dn / cn^2) ** 2, an action of inf; and a
    # bare ZeroDivisionError from f_b's divisor cn k^2 q_t s, which underflows
    @pytest.mark.parametrize("q_t,Theta,raised", [
        (4.432577713516292e-160, 734.8016170776125,
         {"quartic_action", "det_longitudinal", "det_transverse", "jacobian_dq0_dqt"}),
        (7.14855862536624e-254, 683.2447413799182, {"det_longitudinal", "det_transverse"}),
    ])
    @pytest.mark.parametrize("shape", ["path", "family"])
    def test_overflow_inputs(self, q_t, Theta, raised, shape):
        path = quartic_path_from_qt(q_t if shape == "path" else np.array([q_t]), Theta)
        assert self._check(path) == raised

    def test_sweep(self):
        rng = np.random.default_rng(2)
        draws = 0
        for Theta in (10.0 ** rng.uniform(-2.0, math.log10(740.0), 40)).tolist():
            fracs = 10.0 ** rng.uniform(-300.0, math.log10(0.9999), 50)
            self._check(quartic_path_from_qt(0.0, 1.05 * Theta))
            built = []
            for q in (q_theta_max(Theta) * fracs).tolist():
                try:
                    path = quartic_path_from_qt(q, Theta)
                except DomainError:  # the k = 1 values are not exact there
                    continue
                self._check(path)
                built.append(q)
            draws += len(built)
            built = np.array([q for q in built if q > 0.0])
            if built.size:
                self._check(quartic_path_from_qt(built, Theta))
        assert draws > 1500


class TestHarmonicPartition:
    def test_values(self):
        assert z_harmonic(1, 1.0) == pytest.approx(1.0 / (2.0 * math.sinh(0.5)), rel=1e-13)
        assert z_harmonic(2, 2.0) == pytest.approx((2.0 * math.sinh(1.0)) ** -2, rel=1e-13)

    def test_ground_state_dominance(self):
        Theta = 900.0
        assert ln_z_harmonic(1, Theta) == pytest.approx(-0.5 * Theta, rel=1e-12)

    @pytest.mark.parametrize("Theta", [1e-17, 1e-10, 1e-3, 0.2, 10.0])
    def test_against_mpmath(self, Theta):
        # log1p(-exp(-Theta)) was 3.6e-9 off at Theta = 1e-10 and raised
        # ValueError below ~1.1e-16; expm1 covers Theta <= ln 2
        with mpmath.workdps(50):
            want = float(-3 * mpmath.log(2 * mpmath.sinh(mpmath.mpf(Theta) / 2)))
        assert ln_z_harmonic(3, Theta) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("D", [0.5, math.nan, math.inf, 0, -1, True])
    def test_dimension_is_an_integer_at_least_one(self, D):
        # D = True returned the D = 1 value
        with pytest.raises(DomainError, match="dimension"):
            ln_z_harmonic(D, 1.0)

    def test_pipeline_past_the_determinant_overflow(self):
        # 2 pi sinh(Theta) is inf from Theta ~ 708.6, and Z2 came out 0.0
        for Theta in (700.0, 709.0, 710.0):
            ratio = z2_harmonic_integral(1, Theta) / z_harmonic(1, Theta)
            assert ratio == pytest.approx(1.0, rel=1e-8)

    def test_pipeline_reproduces_closed_form(self):
        for D in (1, 2, 3):
            for Theta in (0.25, 0.5, 1.0, 2.0, 4.0):
                assert z2_harmonic_integral(D, Theta) == pytest.approx(
                    z_harmonic(D, Theta), rel=1e-8)


class TestJacobian:
    @pytest.mark.parametrize("qt,Theta", [(0.3, 1.0), (0.5, 1.0), (1.0, 1.0),
                                          (2.0, 1.0), (1.0, 2.0), (0.5, 0.5)])
    def test_matches_finite_differences(self, qt, Theta):
        h = 1e-6 * qt
        fd = (quartic_path_from_qt(qt + h, Theta).q0
              - quartic_path_from_qt(qt - h, Theta).q0) / (2.0 * h)
        ident = jacobian_dq0_dqt(quartic_path_from_qt(qt, Theta))
        assert ident == pytest.approx(fd, rel=1e-6)

    def test_harmonic_limit(self):
        for Theta in (0.5, 1.0, 2.0):
            path = quartic_path_from_qt(0.0, Theta)
            assert jacobian_dq0_dqt(path) == pytest.approx(math.cosh(0.5 * Theta), rel=1e-13)
        small = jacobian_dq0_dqt(quartic_path_from_qt(1e-5, 2.0))
        assert small == pytest.approx(math.cosh(1.0), rel=1e-8)

    def test_diverges_at_cap(self):
        Theta = 1.0
        cap = q_theta_max(Theta)
        vals = [jacobian_dq0_dqt(quartic_path_from_qt(f * cap, Theta))
                for f in (0.9, 0.99, 0.999)]
        assert vals[0] < vals[1] < vals[2]
        assert vals[2] > 1e3


class TestZ2Quartic:
    def test_weak_coupling_limit(self):
        for D in (1, 2, 3):
            params = ReducedParams(1e-3, D, 1.0)
            ratio = z2_quartic(params) / z_harmonic(D, 1.0)
            assert abs(ratio - 1.0) <= 1e-2

    def test_lnz_decreasing_in_theta(self):
        vals = [math.log(z2_quartic(ReducedParams(0.5, 1, th)))
                for th in (0.5, 1.0, 2.0, 4.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_integrand_small_qt_scaling(self):
        # integrand / q_t^(D-1) tends to a finite positive constant
        qt = np.array([1e-3, 1e-4, 1e-5])
        _, log_f, _ = _log_integrand(0.5, 3, qt, 1.0, check_routes=False)
        scaled = log_f - 2.0 * np.log(qt)
        assert scaled[0] == pytest.approx(scaled[1], abs=1e-4)
        assert scaled[1] == pytest.approx(scaled[2], abs=1e-4)
        # the limit is cosh(Th/2)^D / (2 pi sinh Th)^(D/2) * cosh(Th/2)^(D-1 -> via q0)
        Theta = 1.0
        limit = (math.cosh(0.5 * Theta) ** 3
                 / (2.0 * math.pi * math.sinh(Theta)) ** 1.5)
        assert scaled[2] == pytest.approx(math.log(limit), abs=1e-3)

    def test_rejects_zero_coupling(self):
        with pytest.raises(DomainError):
            z2_quartic(ReducedParams(0.0, 1, 1.0))

    def test_deterministic(self):
        params = ReducedParams(0.3, 2, 0.7)
        assert z2_quartic(params) == z2_quartic(params)

    # ln Z2 at the ROADMAP reference points and in the weak-coupling limit.
    # At g = 1e-3 quartic_action's cancellation puts ~1e-13 of noise on
    # ln Z2; those four pins are the values with epsilon from the AGM
    # ladder, each within 1.5e-14 of ln Z2 with a 40-digit mpmath action
    PINNED_LNZ = {
        (0.5, 1, 10.0): -5.105942172352196,
        (0.5, 3, 1.0): -0.9589925090763425,
        (0.2, 1, 0.1): 1.9413326413915553,
        (1e-3, 1, 1.0): -0.04217766508521507,
        (1e-3, 2, 1.0): -0.08492158013129901,
        (1e-3, 3, 1.0): -0.12823004188863502,
        (1e-3, 8, 1.0): -0.35318173342143666,
    }

    @pytest.mark.parametrize("point", sorted(PINNED_LNZ))
    def test_pinned_values(self, point):
        lnz = math.log(z2_quartic(ReducedParams(*point)))
        assert lnz == pytest.approx(self.PINNED_LNZ[point], rel=1e-13, abs=0.0)

    def test_route_check_runs_inside_the_quadrature(self, monkeypatch):
        closed = sct.fluctuations._det_transverse_closed
        # the scan reads thermo's binding, the checked route fluctuations'
        monkeypatch.setattr(sct.fluctuations, "_det_transverse_closed",
                            lambda path: closed(path) * (1.0 + 1e-6))
        with pytest.raises(RouteMismatchError, match="det_transverse"):
            z2_quartic(ReducedParams(0.5, 2, 1.0))

    @pytest.mark.parametrize("point", [(0.5, 1, 10.0), (0.5, 3, 1.0), (0.2, 1, 0.1)])
    def test_path_builds_and_kernel_calls_per_call(self, monkeypatch, point):
        # the scan and each quadrature round are one array-kernel call each;
        # the tail bound reads the scan's family, so no scalar path is built
        # and the scalar kernel is never climbed
        counts = Counter()
        build = sct.thermo.quartic_path_from_qt
        kernel = sct.paths._sn_cn_dn_eps_k
        scalar_kernel = sct.paths.jacobi_sn_cn_dn
        scalar_climb = sct.paths._scalar_sn_cn_dn_eps_k

        def counted_build(q_t, Theta):
            counts["array" if np.ndim(q_t) else "scalar"] += 1
            return build(q_t, Theta)

        def counted_kernel(u, m1):
            counts["kernel"] += 1
            return kernel(u, m1)

        def counted_scalar_kernel(*args):
            counts["scalar kernel"] += 1
            return scalar_kernel(*args)

        def counted_scalar_climb(u, m1):
            counts["scalar climb"] += 1
            return scalar_climb(u, m1)

        monkeypatch.setattr(sct.thermo, "quartic_path_from_qt", counted_build)
        monkeypatch.setattr(sct.paths, "_sn_cn_dn_eps_k", counted_kernel)
        monkeypatch.setattr(sct.paths, "jacobi_sn_cn_dn", counted_scalar_kernel)
        monkeypatch.setattr(sct.paths, "_scalar_sn_cn_dn_eps_k", counted_scalar_climb)
        z2_quartic(ReducedParams(*point))
        assert counts["scalar"] == 0
        assert counts["scalar kernel"] == counts["scalar climb"] == 0
        assert 2 <= counts["kernel"] == counts["array"] <= 6

    @pytest.mark.parametrize("where", [0.0, 0.5, 1.0])
    def test_route_check_covers_every_node(self, monkeypatch, where):
        # perturb the canonical-pair route at a single node of the first
        # quadrature round: the first, a middle or the last node
        original = sct.paths.CanonicalPair.omega
        perturbed = []

        def omega(pair, theta, theta_p):
            value = original(pair, theta, theta_p)
            if np.ndim(value) and not perturbed:
                i = round(where * (value.size - 1))
                perturbed.append(i)
                value = value.copy()
                value[i] *= 1.0 + 1e-6
            return value

        monkeypatch.setattr(sct.paths.CanonicalPair, "omega", omega)
        with pytest.raises(RouteMismatchError, match="det_longitudinal"):
            z2_quartic(ReducedParams(0.5, 2, 1.0))
        assert perturbed

    @pytest.mark.parametrize("check_routes", [False, True])
    def test_overflow_is_reported_before_the_routes_are_compared(self, check_routes):
        # at Theta = 700 the closed-form determinants overflow near q_Theta;
        # with or without the route check, that is an overflow naming the
        # node, not a route mismatch
        Theta = 700.0
        q_t = 0.99 * q_theta_max(Theta)
        with pytest.raises(QuadratureError,
                           match=f"overflows at q_t={q_t!r} for D=1, Theta=700.0"):
            _log_integrand(0.5, 1, np.array([q_t]), Theta, check_routes)

    def test_overflow_is_a_quadrature_error(self):
        with pytest.raises(QuadratureError, match=r"D=8, Theta=200"):
            z2_quartic(ReducedParams(0.5, 8, 200.0))

    @pytest.mark.parametrize("g,D,Theta1,Theta2", [(0.5, 8, 100.0, 170.0),
                                                   (10.0, 3, 340.0, 460.0)])
    def test_ground_state_past_the_transverse_overflow(self, g, D, Theta1, Theta2):
        # ln Z2 -> -D Theta/2 + const; the product Delta_l Delta_t^(D-1)
        # overflowed here before the integrand was carried as its log
        lnz1, lnz2 = (math.log(z2_quartic(ReducedParams(g, D, Theta)))
                      for Theta in (Theta1, Theta2))
        assert lnz2 - lnz1 == pytest.approx(-0.5 * D * (Theta2 - Theta1), abs=1e-9)

    def test_z2_below_the_float_range_is_a_quadrature_error(self):
        # ln Z2 = -802 at (0.5, 8, 200): the integral has a value, Z2 does not
        with pytest.raises(QuadratureError,
                           match=r"normal float range at D=8, Theta=200\.0: ln Z2 = -802\."):
            z2_quartic(ReducedParams(0.5, 8, 200.0))

    @pytest.mark.parametrize("Theta,match", [
        (700.0, "integrand overflows"),  # the closed-form determinants
        (1480.0, "underflows to 0"),  # the scan grid's first node
        (1500.0, "underflows to 0"),
        (1600.0, "underflows to 0"),
    ])
    def test_large_theta_quadrature_errors(self, Theta, match):
        with pytest.raises(QuadratureError, match=f"{match}.*Theta={Theta!r}"):
            z2_quartic(ReducedParams(0.5, 1, Theta))

    def test_theta_300_follows_the_ground_state(self):
        # ln Z2 -> -Theta/2 + const once the ground state dominates; up to
        # Theta ~ 260 the pole search stopped short and 300 had no value
        lnz = {Theta: math.log(z2_quartic(ReducedParams(0.5, 1, Theta)))
               for Theta in (200.0, 300.0)}
        assert lnz[300.0] - lnz[200.0] == pytest.approx(-50.0, abs=1e-9)

    @pytest.mark.parametrize("Theta", [700.0, 800.0, 1480.0, 1600.0])
    def test_large_theta_fails_as_an_sct_error(self, Theta):
        # no value out there before a log-space rewrite, but no bare error
        with pytest.raises(SctError):
            z2_quartic(ReducedParams(0.5, 1, Theta))

    @pytest.mark.parametrize("tol", [0.0, -1e-7, math.nan, math.inf])
    def test_rejects_bad_tolerance(self, tol):
        with pytest.raises(DomainError, match="tol="):
            z2_quartic(ReducedParams(0.5, 1, 1.0), tol=tol)

    @pytest.mark.parametrize("D", [1, 3, 8])
    def test_low_temperature_window_has_values(self, D):
        # with Omega divided by a computed Wronskian, the route check failed
        # at Theta in 10-32 from g = 0.5 on (28 at g = 0.5, 10-32 at g = 100)
        for g in (0.5, 1.0, 2.0, 5.0, 10.0, 100.0):
            for Theta in range(2, 62, 2):
                z = z2_quartic(ReducedParams(g, D, float(Theta)), tol=1e-9)
                assert 0.0 < z < math.inf

    # point-sweep points (perfbench generate(seed), seeds 1, 4, 9, 10, 10)
    # that raised RouteMismatchError while Omega divided by the Wronskian
    @pytest.mark.parametrize("point", [
        (1.7504387440282339, 1, 26.852590367596235),
        (2.130775639899161, 1, 29.1910212176545),
        (4.1832512310791055, 3, 21.766892757724534),
        (2.9828944812471545, 3, 21.907210040677878),
        (1.4953479062381951, 1, 25.53269192545193),
    ])
    def test_former_route_mismatch_points(self, point):
        for tol in (1e-7, 1e-9):
            assert 0.0 < z2_quartic(ReducedParams(*point), tol=tol) < math.inf

    def test_route_check_bites_on_the_pair(self, monkeypatch):
        # a 1e-6 error in the longitudinal f_b at t = Theta is caught
        build = sct.fluctuations.canonical_longitudinal

        def perturbed(path):
            pair = build(path)

            def fb(theta):
                value = pair.fb(theta)
                return value * (1.0 + 1e-6) if np.array_equal(theta, path.Theta) else value

            return sct.paths.CanonicalPair(pair.fa, fb, pair.fa_dot, pair.fb_dot)

        monkeypatch.setattr(sct.fluctuations, "canonical_longitudinal", perturbed)
        with pytest.raises(RouteMismatchError, match="det_longitudinal"):
            z2_quartic(ReducedParams(0.5, 1, 10.0))

    # c(g, D) = lim ln Z2 + D Theta / 2, measured on the finite pipeline
    ZERO_T_LIMIT = {
        (0.5, 1): -0.105876668581,
        (0.2, 1): -0.049008457206,
        (0.01, 1): -0.002789259881,
        (0.5, 3): -0.471847345681,
    }

    @pytest.mark.parametrize("g,D", sorted(ZERO_T_LIMIT))
    def test_zero_temperature_limit(self, g, D):
        # the remainder is ~D e^-Theta; Theta 480-670 needed the Wronskian
        # gone (the computed one turned NaN there), and from 680 the closed
        # forms overflow
        thetas = (40.0, 100.0, 200.0, 400.0, 600.0, 670.0) if D == 1 else (
            40.0, 100.0, 200.0, 400.0, 470.0)
        for Theta in thetas:
            lnz = math.log(z2_quartic(ReducedParams(g, D, Theta)))
            assert abs(lnz + 0.5 * D * Theta - self.ZERO_T_LIMIT[g, D]) <= 1e-12
        # past Theta ~ 470 at D = 3, Z2 ~ e^-720 leaves the float range and
        # only its log has a value; one batch takes every Theta
        if D == 3:
            thetas += (480.0, 520.0, 570.0, 620.0, 670.0)
        for Theta, lnz in zip(thetas, ln_z2_quartic(g, D, thetas)):
            assert abs(lnz + 0.5 * D * Theta - self.ZERO_T_LIMIT[g, D]) <= 1e-12

    def test_tail_bound_at_large_dimension(self):
        # the linear sum raised OverflowError in decay ** (j + 1) from D = 163
        assert math.isfinite(_ln_tail_bound(0.5, 400, 3.0, 2.0, -50.0))
        # D = 1: one term, 1 / decay, decay = 2 sqrt(2 gap) / g
        gap = 0.5 * (9.0 - 4.0) + 0.25 * (81.0 - 16.0)
        assert _ln_tail_bound(0.5, 1, 3.0, 2.0, -50.0) == (
            pytest.approx(-50.0 - math.log(4.0 * math.sqrt(2.0 * gap)), rel=1e-15))

    def test_domain_sweep_is_finite_or_an_sct_error(self, deadline):
        # 400 points; the linear-space tail bound and math.gamma(D/2) raised
        # bare OverflowErrors at the large dimensions
        outcomes = Counter()
        for g in np.geomspace(1e-6, 1e3, 10):
            for D in (1, 2, 3, 8, 30, 163, 345, 1000):
                for Theta in (1e-4, 1e-2, 1.0, 1e2, 1e4):
                    try:
                        z = z2_quartic(ReducedParams(float(g), D, Theta))
                    except SctError:
                        outcomes["SctError"] += 1
                    else:
                        assert 0.0 < z < math.inf
                        outcomes["value"] += 1
        assert sum(outcomes.values()) == 400
        assert outcomes["value"] >= 200


class TestLnZ2Quartic:
    @pytest.mark.parametrize("D", [1, 3, 8])
    @pytest.mark.parametrize("g", [1e-3, 0.2, 0.5, 10.0])
    def test_stencil_batch_equals_per_theta(self, g, D):
        # a row's seven stencil Theta in one pass give the one-Theta values,
        # to 1e-15 relative in Z2 (absolute in ln Z2 where |ln Z2| < 1, as
        # log(exp(x)) rounds in the last place of x)
        for T in (0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 20.0):
            thetas = stencil_thetas(1.0 / T)
            for Theta, lnz in zip(thetas, ln_z2_quartic(g, D, thetas)):
                per_theta = math.log(z2_quartic(ReducedParams(g, D, Theta)))
                assert lnz == pytest.approx(per_theta, rel=1e-15, abs=1e-15)

    @pytest.mark.parametrize("which", [1, 3, 6])
    def test_route_check_bites_at_one_stencil_theta(self, monkeypatch, which):
        # a 1e-6 error in the longitudinal f_b(Theta) at the nodes of one
        # non-central stencil Theta (Theta - h/2, Theta - 2h, Theta + 2h)
        thetas = stencil_thetas(10.0)
        target = thetas[which]
        build = sct.fluctuations.canonical_longitudinal

        def perturbed(path):
            pair = build(path)

            def fb(theta):
                return pair.fb(theta) * np.where(np.equal(theta, target), 1.0 + 1e-6, 1.0)

            return sct.paths.CanonicalPair(pair.fa, fb, pair.fa_dot, pair.fb_dot)

        monkeypatch.setattr(sct.fluctuations, "canonical_longitudinal", perturbed)
        with pytest.raises(RouteMismatchError,
                           match=rf"det_longitudinal: .*, Theta={target!r}$"):
            ln_z2_quartic(0.5, 1, thetas)
        # the other six Theta's nodes carry no error
        rest = thetas[:which] + thetas[which + 1:]
        assert all(map(math.isfinite, ln_z2_quartic(0.5, 1, rest)))

    def test_past_the_float_range_of_z2(self):
        # ln Z2 -> -D Theta/2 + c: the one-loop ground energy is D/2; at
        # D = 8, g = 0.5, Z2 ~ e^-720 from Theta ~ 177 has no float value
        lnz_200, lnz_170, lnz_180 = ln_z2_quartic(0.5, 8, [200.0, 170.0, 180.0])
        assert lnz_200 - lnz_170 == pytest.approx(-120.0, abs=1e-8)
        assert lnz_180 == pytest.approx(-722.03, abs=5e-3)
        with pytest.raises(QuadratureError, match="normal float range"):
            z2_quartic(ReducedParams(0.5, 8, 180.0))

    def test_failing_theta_fails_the_batch(self):
        # Theta = 1480: the scan grid's first node underflows
        with pytest.raises(QuadratureError, match="underflows to 0 at Theta=1480.0"):
            ln_z2_quartic(0.5, 1, [1.0, 1480.0, 2.0])

    Q_THETA_UNDERFLOWS = ("q_Theta at Theta=750.0, about 4 sqrt(2) e^(-Theta/2), "
                          "lies where 1 - k^2 = q_t^2 / (2 (1 + q_t^2)) underflows")
    SCAN_START_UNDERFLOWS = ("scan grid start underflows to 0 at Theta=1480.0 "
                             "(weak-coupling scale 4.2e-322)")

    @pytest.mark.parametrize("thetas,error,message", [
        # the set-up checks run Theta by Theta in the order given
        ([2.0, 750.0, 1480.0], ConvergenceError, Q_THETA_UNDERFLOWS),
        ([2.0, 1480.0, 750.0], QuadratureError, SCAN_START_UNDERFLOWS),
        # and all of them before the scan, where Theta = 690 and 700 overflow
        ([700.0, 1480.0], QuadratureError, SCAN_START_UNDERFLOWS),
        # the scan's rows are in the order given
        ([2.0, 700.0, 690.0], QuadratureError,
         "one-loop integrand overflows at q_t=5.187862555805684e-152 for D=1, "
         "Theta=700.0 (Delta_l inf, Delta_t "),
        ([2.0, 690.0, 700.0], QuadratureError,
         "one-loop integrand overflows at q_t=8.328067197740732e-150 for D=1, "
         "Theta=690.0 (Delta_l inf, Delta_t "),
    ])
    def test_two_failing_thetas_raise_the_first_failure(self, thetas, error, message):
        with pytest.raises(error) as caught:
            ln_z2_quartic(0.5, 1, thetas)
        assert str(caught.value).startswith(message)

    @pytest.mark.parametrize("g,D,Theta,value", [
        (0.5, 1, 1.0, -0.24531227033887504),
        (10.0, 3, 0.5, -0.9671434183993763),
    ])
    def test_repeated_scan_start_node(self, g, D, Theta, value):
        # where 1e-4 q_Theta <= 1e-3 sigma both scan grids start at
        # 1e-4 q_Theta, and the scan holds that node twice; it moves neither
        # peak nor cut, so ln Z2 is the value of the scan with the node once
        # (value, from a deduplicated scan), in a batch or alone
        assert 1e-4 * q_theta_max(Theta) <= 1e-3 * math.sqrt(g / math.sinh(Theta))
        thetas = stencil_thetas(Theta)
        for theta, lnz in zip(thetas, ln_z2_quartic(g, D, thetas)):
            assert lnz == pytest.approx(ln_z2_quartic(g, D, [theta])[0],
                                        rel=1e-15, abs=0.0)
        assert ln_z2_quartic(g, D, [Theta])[0] == pytest.approx(value, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("g,Theta", [
        (0.5, 2.0), (10.0, 1.0), (10.0, 2.0), (1.0, 100.0), (10.0, 100.0), (1e3, 1.0)])
    def test_large_dimension_tail_cut(self, g, Theta):
        # at D = 1000 the tail bound at the 40-e-fold cut, whose prefactor
        # sums D terms, exceeded tol of the value (no value); the cut steps
        # out until the bound is below tol of the scan's estimate, peak
        # times window.  The value is the integral over the whole window.
        D = 1000
        (lnz,) = ln_z2_quartic(g, D, [Theta])
        q_cap = q_theta_max(Theta)
        nodes = np.linspace(1e-6 * q_cap, 0.9995 * q_cap, 4000)
        logs = _log_integrand(g, D, nodes, Theta, False)[1]
        peak = float(logs.max())
        whole, _ = quad(
            lambda q: math.exp(_log_integrand(g, D, np.array([q]), Theta, False)[1][0]
                               - peak),
            1e-12 * q_cap, 0.9995 * q_cap, points=[float(nodes[logs.argmax()])],
            epsabs=0.0, epsrel=1e-11, limit=400)
        assert lnz == pytest.approx(
            _ln_sphere_surface(D) - 0.5 * D * math.log(g) + math.log(whole) + peak,
            rel=1e-12)

    def test_large_dimension_ground_energy(self):
        # ln Z2 -> -D Theta/2 + c: the one-loop ground energy is D/2
        lnz_110, lnz_100 = ln_z2_quartic(1.0, 1000, [110.0, 100.0])
        assert lnz_110 - lnz_100 == pytest.approx(-5000.0, abs=1e-8)

    def test_empty_and_invalid_arguments(self):
        assert ln_z2_quartic(0.5, 1, []) == []
        for g in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError, match="g="):
                ln_z2_quartic(g, 1, [1.0])
        with pytest.raises(DomainError, match="dimension"):
            ln_z2_quartic(0.5, 0, [1.0])
        with pytest.raises(DomainError, match="tol="):
            ln_z2_quartic(0.5, 1, [1.0], tol=0.0)
        with pytest.raises(DomainError, match="Theta=nan"):
            ln_z2_quartic(0.5, 1, [1.0, math.nan])


class TestGaussKronrod:
    def test_rule_degrees(self):
        # Kronrod 21 integrates x^j exactly to j = 31, its Gauss 10 part to 19
        from sct.thermo import _GK_GAUSS, _GK_KRONROD, _GK_NODES
        for j in range(32):
            exact = (1.0 - (-1.0) ** (j + 1)) / (j + 1)
            assert _GK_KRONROD @ _GK_NODES ** j == pytest.approx(exact, abs=1e-15)
            if j < 20:
                assert _GK_GAUSS @ _GK_NODES ** j == pytest.approx(exact, abs=1e-15)
        nodes, weights = np.polynomial.legendre.leggauss(10)
        gauss = _GK_GAUSS > 0
        assert np.allclose(_GK_NODES[gauss], nodes, rtol=0.0, atol=1e-15)
        assert np.allclose(_GK_GAUSS[gauss], weights, rtol=0.0, atol=1e-15)

    def test_adaptive_rule_on_a_narrow_peak(self):
        a = 1e-3
        calls = []

        def f(x):
            calls.append(x.size)
            return 1.0 / (a * a + x * x)

        (val,), (err,) = _gauss_kronrod(lambda x, _: f(x), [[0.0, 0.5, 1.0]], 1e-12)
        exact = math.atan(1.0 / a) / a
        assert val == pytest.approx(exact, rel=1e-12)
        assert abs(val - exact) <= err <= 1e-12 * val
        # one call per round; after the first, each round bisects only the
        # panel that holds the peak, so [0.5, 1] is evaluated once
        assert len(calls) > 2 and all(n == 2 * 21 for n in calls)


def ln_radial_mpmath(D, alpha, beta):
    """ln int_0^inf r^(D-1) exp(-alpha r^2 - beta r^4) dr at 40 digits, in
    closed form: with u = r^2 and nu = D/2 it is half of
    Gamma(nu) (2 beta)^(-nu/2) e^(alpha^2 / (8 beta)) D_(-nu)(alpha / sqrt(2 beta))
    (Gradshteyn & Ryzhik 3.462.1; D_(-nu) the parabolic cylinder function)."""
    with mpmath.workdps(40):
        alpha, beta, nu = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(D) / 2
        z = alpha / mpmath.sqrt(2 * beta)
        return (mpmath.log(mpmath.gamma(nu) * mpmath.pcfd(-nu, z) / 2)
                - nu / 2 * mpmath.log(2 * beta) + z * z / 4)


def ln_z_classical_mpmath(g, D, Theta):
    with mpmath.workdps(40):
        Theta, nu = mpmath.mpf(Theta), mpmath.mpf(D) / 2
        ln_surface = mpmath.log(2 * mpmath.pi ** nu / mpmath.gamma(nu))
        return (-nu * mpmath.log(2 * mpmath.pi * Theta) + ln_surface
                + ln_radial_mpmath(D, Theta / 2, Theta * mpmath.mpf(g) / 4))


class TestZClassical:
    GRID = [(g, D, Theta) for g in (1e-6, 1e-3, 0.2, 10.0, 1e3)
            for D in (1, 2, 3, 8, 32) for Theta in (1e-5, 0.03, 1.0, 10.0, 200.0)]

    def test_against_mpmath(self, monkeypatch):
        # every scaled integral the rule evaluates, with its error estimate
        seen = []
        radial = sct.thermo._scaled_radial_integral

        def recorded(D, a, b, tol, thetas):
            result = radial(D, a, b, tol, thetas)
            seen.extend((D, *pair, tol, *value) for pair, value in zip(
                zip(a, b), zip(*result)))
            return result

        monkeypatch.setattr(sct.thermo, "_scaled_radial_integral", recorded)
        worst = 0.0
        for g, D, Theta in self.GRID:
            got = ln_z_classical(ReducedParams(g, D, Theta), tol=1e-13)
            want = ln_z_classical_mpmath(g, D, Theta)
            worst = max(worst, abs(float(got - want)))
        # ln Z to 1e-13 absolute, Z to 1e-13 relative
        assert worst <= 1e-13
        assert len(seen) == len(self.GRID)
        for D, a, b, tol, ln_i, rel in seen:
            # the estimate bounds the true error, and meets tol
            true_rel = abs(float(mpmath.expm1(ln_i - ln_radial_mpmath(D, a, b))))
            assert true_rel <= rel <= tol, (D, a, b)

    def test_tolerance_is_met_or_raises(self):
        # the rule's rounding floor is 50 eps ~ 1.1e-14 of the integral
        params = ReducedParams(0.2, 3, 1.0)
        with pytest.raises(QuadratureError, match="above tolerance"):
            ln_z_classical(params, tol=1e-15)
        assert ln_z_classical(params, tol=1e-13) == pytest.approx(
            float(ln_z_classical_mpmath(0.2, 3, 1.0)), abs=1e-14)

    def test_quartic_limit_where_a_underflows(self):
        # g = 1e240, Theta = 1e-214: a = sqrt(Theta / g) underflows to 0, where
        # the peak's root once divided 0 by 0; the scaled integral is then
        # int x^(D-1) e^(-x^4) dx = Gamma(D/4) / 4
        g, Theta = 1e240, 1e-214
        for D in (1, 2, 3):
            want = (-0.5 * D * math.log(2 * math.pi * Theta)
                    + math.log(2 * math.pi ** (0.5 * D) / math.gamma(0.5 * D))
                    + 0.25 * D * (math.log(4 / g) - math.log(Theta))
                    + math.log(math.gamma(0.25 * D) / 4))
            assert ln_z_classical(ReducedParams(g, D, Theta)) == pytest.approx(
                want, rel=1e-14)

    def test_large_dimension_uses_the_adaptive_rule(self, monkeypatch):
        # at large D and b = 1 the peak is narrower than a fixed panel, the
        # fixed rule's bound misses tol and the adaptive rule refines its
        # panels; ln S_D comes from lgamma, so Gamma(D/2) cannot overflow
        rounds = []
        adaptive = sct.thermo._gauss_kronrod
        monkeypatch.setattr(sct.thermo, "_gauss_kronrod",
                            lambda *args: rounds.append(args) or adaptive(*args))
        for D in (100, 1000):
            got = ln_z_classical(ReducedParams(10.0, D, 0.03), tol=1e-12)
            assert got == pytest.approx(
                float(ln_z_classical_mpmath(10.0, D, 0.03)), rel=1e-13)
        assert len(rounds) == 2

    def test_peak_between_the_nodes_at_large_dimension(self):
        # g = 10, D = 120000 (b = 1): the peak at x ~ 13.2 is ~0.02 wide and
        # falls between the equal panels' nodes, hundreds of e-folds above
        # all of them; with those nodes floored at e^-700 the rule integrated
        # a constant, reported 5e-14 and returned ln Z ~690 too low.  Now
        # such a rule goes to the adaptive one, with the peak as an edge.
        for Theta in (0.5, 1.0, 2.0):
            got = ln_z_classical(ReducedParams(10.0, 120000, Theta))
            # ln Z ~ -3.9e5, so 1e-14 of it is the log sum's rounding
            assert got == pytest.approx(
                float(ln_z_classical_mpmath(10.0, 120000, Theta)), rel=1e-14)

    def test_harmonic_limit(self):
        assert z_classical(ReducedParams(1e-12, 1, 2.0)) == pytest.approx(0.5, rel=1e-7)

    def test_high_temperature_specific_heat(self):
        # quartic-dominated scaling gives C -> 3D/4 as Theta -> 0
        for D, g in ((1, 0.5), (3, 0.2)):
            lnz = lambda th: ln_z_classical(ReducedParams(g, D, th), tol=1e-13)
            c, _ = specific_heat(lnz, 1e-5)
            assert c == pytest.approx(0.75 * D, rel=2e-3)

    @pytest.mark.parametrize("tol", [0.0, math.nan, math.inf])
    def test_rejects_bad_tolerance(self, tol):
        with pytest.raises(DomainError, match="tol="):
            z_classical(ReducedParams(0.5, 1, 1.0), tol=tol)

    def test_monte_carlo_oracle(self):
        # Z_cl = Theta^-D E[exp(-Theta g r^4 / 4)] over x ~ N(0, 1/Theta)^D
        g, D, Theta = 0.5, 3, 1.0
        rng = np.random.default_rng(20240817)
        x = rng.standard_normal((4_000_000, D)) / math.sqrt(Theta)
        r4 = (x * x).sum(axis=1) ** 2
        oracle = float(np.exp(-0.25 * Theta * g * r4).mean()) / Theta ** D
        # three significant digits
        assert z_classical(ReducedParams(g, D, Theta)) == pytest.approx(oracle, rel=1e-3)


def phase_integral_oracle(energy, g):
    """Direct adaptive quadrature of 4 int_0^{x+} sqrt(2[E - V(x)]) dx."""
    xp = math.sqrt(4.0 * energy / (1.0 + math.sqrt(1.0 + 4.0 * g * energy)))
    val, _ = quad(lambda x: math.sqrt(max(2.0 * (energy - 0.5 * x * x - 0.25 * g * x ** 4), 0.0)),
                  0.0, xp, epsabs=1e-14, epsrel=1e-12, limit=200)
    return 4.0 * val


class TestWkb:
    def test_spectrum_solves_each_level_once(self, monkeypatch):
        # Theta_min = 0.95 / 30 needs 512 levels; doubling 32 -> 512 once
        # re-solved every level at each size, 33 + 65 + ... + 513 = 992 root
        # finds; each doubling now passes only the levels it adds to one solve
        solves = []
        solve = sct.thermo._bohr_sommerfeld_levels

        def recorded(g, first, last):
            solves.append((first, last))
            return solve(g, first, last)

        monkeypatch.setattr(sct.thermo, "_bohr_sommerfeld_levels", recorded)
        spectrum = wkb_spectrum(0.2, 0.95 / 30.0)
        assert spectrum.n_max == 512
        assert solves == [(0, 32), (33, 64), (65, 128), (129, 256), (257, 512)]
        monkeypatch.undo()
        assert spectrum == wkb_levels(0.2, 512)
        # 512 is the first size whose partition sum is not truncated at
        # Theta_min, nor above it
        for Theta in (0.95 / 30.0, 0.1, 10.0):
            ln_z_wkb(spectrum, Theta)
        with pytest.raises(TruncationError):
            ln_z_wkb(wkb_levels(0.2, 256), 0.95 / 30.0)

    def test_a_level_does_not_depend_on_its_batch(self):
        # each level stops on its own Newton step: the levels of a short
        # solve are the leading levels of a long one, bit for bit
        assert wkb_levels(0.2, 512).levels[:33] == wkb_levels(0.2, 32).levels
        assert tuple(sct.thermo._bohr_sommerfeld_levels(10.0, 7, 7).tolist()) == \
            wkb_levels(10.0, 40).levels[7:8]

    @pytest.mark.parametrize("g", [math.nan, math.inf, -math.inf])
    def test_non_finite_coupling(self, g):
        # a NaN g raised "level 0: no bracket; phase integral is nan"
        with pytest.raises(DomainError, match=f"g={g!r}"):
            wkb_levels(g, 4)
        with pytest.raises(DomainError, match=f"g={g!r}"):
            wkb_spectrum(g, 1.0)

    @pytest.mark.parametrize("n_max", [2.5, 3.0, "3", True, -1])
    def test_level_count_must_be_an_integer(self, n_max):
        # 2.5 raised a bare ValueError from itertools.islice
        with pytest.raises(DomainError, match="n_max="):
            wkb_levels(0.2, n_max)

    @pytest.mark.parametrize("g", [1e240, 1e300, 1.7e308])
    def test_overflowing_coupling_meets_the_pure_quartic_levels(self, g, deadline):
        # where 4 g E overflows, x_+^2 = 2 sqrt(E/g) (the phase integral
        # read 0 and no level converged).  The quartic term then rules, and
        # the levels are the pure quartic's Bohr-Sommerfeld ones,
        # E_n = (pi (n + 1/2) / (4 B))^(4/3) g^(1/3), with
        # B = int_0^1 sqrt(1 - y^4) dy = Gamma(1/4)^2 / (6 sqrt(2 pi))
        b = math.gamma(0.25) ** 2 / (6.0 * math.sqrt(2.0 * math.pi))
        for n, level in enumerate(wkb_levels(g, 64).levels):
            want = (math.pi * (n + 0.5) / (4.0 * b)) ** (4.0 / 3.0) * g ** (1.0 / 3.0)
            assert level == pytest.approx(want, rel=1e-13)

    def test_spectrum_domain(self):
        with pytest.raises(DomainError, match="g="):
            wkb_spectrum(-0.1, 1.0)
        for Theta_min in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                wkb_spectrum(0.2, Theta_min)

    def test_harmonic_levels_exact(self):
        spectrum = wkb_levels(0.0, 12)
        for n, e in enumerate(spectrum.levels):
            assert e == pytest.approx(n + 0.5, abs=1e-9)

    def test_levels_monotone(self):
        spectrum = wkb_levels(0.2, 10)
        assert all(b > a for a, b in zip(spectrum.levels, spectrum.levels[1:]))

    def test_quantization_residual(self):
        spectrum = wkb_levels(0.2, 6)
        for n, e in enumerate(spectrum.levels):
            assert _phase_integral(e, 0.2) == pytest.approx(
                2.0 * math.pi * (n + 0.5), abs=1e-9)

    @pytest.mark.parametrize("g", [0.0, 0.2, 10.0])
    def test_period_is_the_phase_integral_derivative(self, g):
        # the Newton solve's derivative against a central difference of
        # the independent quadrature of J
        energies = np.array([0.5, 3.0, 140.0, 2100.0])
        _, period = sct.thermo._phase_and_period(energies, g)
        for energy, got in zip(energies.tolist(), period.tolist()):
            h = 1e-4 * energy
            want = (phase_integral_oracle(energy + h, g)
                    - phase_integral_oracle(energy - h, g)) / (2.0 * h)
            assert got == pytest.approx(want, rel=1e-7), energy

    def test_ground_state_against_independent_quadrature(self):
        # independent oracle: invert the quadrature-evaluated phase integral;
        # J(E) <= 2 pi E brackets each level from below by n + 1/2
        g = 0.2
        levels = wkb_levels(g, 512).levels
        for n in (0, 64, 512):
            oracle = brentq(
                lambda e: phase_integral_oracle(e, g) - 2.0 * math.pi * (n + 0.5),
                n + 0.5, 10.0 * (n + 1), xtol=1e-12)
            assert levels[n] == pytest.approx(oracle, rel=5e-12, abs=2e-12), n
        got = levels[0]
        # note: the lowest-order quantization shift for n = 0 is ~3g/32,
        # about half of the first-order perturbative 3g/16
        assert got == pytest.approx(0.5 + 3.0 * g / 32.0, abs=2e-3)

    def test_spectrum_validation(self):
        with pytest.raises(DomainError):
            WkbSpectrum((0.5, 0.4), 0.1)
        with pytest.raises(DomainError):
            WkbSpectrum((), 0.1)
        # a non-finite level once made ln_z_wkb of (1, inf) at Theta = 1 -1.0
        for levels in ((math.nan,), (1.0, math.inf), (0.5, math.nan, 2.5)):
            with pytest.raises(DomainError, match="finite"):
                WkbSpectrum(levels, 0.2)
        assert WkbSpectrum((0.5, 1.5, 2.5), 0.0).n_max == 2

    def test_z_wkb_harmonic(self):
        spectrum = wkb_levels(0.0, 90)
        for Theta in (0.5, 1.0, 3.0):
            assert z_wkb(spectrum, Theta) == pytest.approx(z_harmonic(1, Theta), rel=1e-12)

    def test_z_wkb_ground_state_dominance(self):
        spectrum = wkb_levels(0.2, 5)
        Theta = 40.0
        assert math.log(z_wkb(spectrum, Theta)) + Theta * spectrum.levels[0] == pytest.approx(
            0.0, abs=1e-12)

    def test_z_wkb_truncation_error(self):
        spectrum = wkb_levels(0.2, 3)
        with pytest.raises(TruncationError):
            z_wkb(spectrum, 0.2)

    def test_ln_z_wkb_past_the_underflow(self):
        spectrum = wkb_levels(0.2, 40)
        for Theta in (1.0, 3.0, 40.0):
            assert ln_z_wkb(spectrum, Theta) == pytest.approx(
                math.log(z_wkb(spectrum, Theta)), rel=1e-15, abs=1e-15)
        # z_wkb underflows to 0 here; its log is -Theta E_0 to rounding
        assert z_wkb(spectrum, 1e4) == 0.0
        assert ln_z_wkb(spectrum, 1e4) == -1e4 * spectrum.levels[0]

    def test_z_wkb_stable_under_doubling(self):
        g, Theta = 0.2, 5.0
        a = z_wkb(wkb_levels(g, 16), Theta)
        b = z_wkb(wkb_levels(g, 32), Theta)
        assert a == pytest.approx(b, rel=1e-12)


class TestReferenceBatches:
    """A reference mode's batch (the seven stencil Theta of a row, say) is
    its one-Theta calls, bit for bit, and fails at the first failing Theta
    in the order given."""

    @pytest.mark.parametrize("g,D,Theta", [
        (0.2, 1, 0.05), (0.5, 2, 0.3), (0.5, 3, 1.0), (0.2, 8, 0.5), (1e3, 8, 1e-5)])
    def test_classical_batch_is_its_one_theta_calls(self, g, D, Theta):
        thetas = stencil_thetas(Theta)
        if Theta == 0.05:
            # T = 20 at g = 0.2: the stencil straddles the scaling switch
            # g = 4 Theta
            assert min(thetas) < g / 4.0 < max(thetas)
        assert ln_z_classical_batch(g, D, thetas) == [
            ln_z_classical(ReducedParams(g, D, theta)) for theta in thetas]

    def test_classical_batch_through_the_adaptive_rule(self, monkeypatch):
        # g = 10, D = 120000: every Theta's fixed pass misses tol, and each
        # goes to the adaptive rule alone
        rounds = []
        adaptive = sct.thermo._gauss_kronrod
        monkeypatch.setattr(sct.thermo, "_gauss_kronrod",
                            lambda *args: rounds.append(args) or adaptive(*args))
        thetas = stencil_thetas(1.0)
        batch = ln_z_classical_batch(10.0, 120000, thetas)
        assert len(rounds) == 7
        assert batch == [ln_z_classical(ReducedParams(10.0, 120000, theta))
                         for theta in thetas]

    @pytest.mark.parametrize("thetas", [(2.0, 0.5, 10.0), (0.5, 2.0, 10.0)])
    def test_classical_batch_names_the_first_failure(self, monkeypatch, thetas):
        # below the rule's rounding floor (50 eps) every fixed pass misses
        # tol; the adaptive rule, stubbed, meets it for the first Theta it
        # is given and reports its error as the value's for the next one
        rounds = []

        def adaptive(f, edges, rtol):
            rounds.append(edges)
            return np.ones(1), np.array([0.0 if len(rounds) == 1 else 1.0])

        monkeypatch.setattr(sct.thermo, "_gauss_kronrod", adaptive)
        with pytest.raises(QuadratureError) as caught:
            ln_z_classical_batch(0.2, 3, thetas, tol=1e-15)
        assert str(caught.value).startswith(
            f"classical radial integral at D=3, Theta={thetas[1]!r} ")
        assert len(rounds) == 2

    @pytest.mark.parametrize("Theta", [0.05, 1.0, 40.0])
    def test_wkb_batch_is_its_one_theta_calls(self, Theta):
        spectrum = wkb_spectrum(0.2, 0.03)
        thetas = stencil_thetas(Theta)
        assert ln_z_wkb_batch(spectrum, thetas) == [
            ln_z_wkb(spectrum, theta) for theta in thetas]

    def test_wkb_batch_names_the_first_truncation(self):
        spectrum = wkb_levels(0.2, 20)
        ln_z_wkb_batch(spectrum, (40.0, 2.0))
        with pytest.raises(TruncationError, match=r"too short at Theta=1\.0:"):
            ln_z_wkb_batch(spectrum, (40.0, 1.0, 2.0, 0.5))

    def test_empty_batches(self):
        assert ln_z_classical_batch(0.2, 1, []) == []
        assert ln_z_wkb_batch(wkb_levels(0.2, 3), []) == []


class TestSpecificHeat:
    def test_harmonic_closed_form(self):
        lnz = lambda th: ln_z_harmonic(1, th)
        for Theta in (0.5, 1.0, 2.0, 5.0):
            c, err = specific_heat(lnz, Theta)
            assert c == pytest.approx(harmonic_specific_heat(Theta), abs=1e-8)
            assert err < 1e-6

    def test_reference_value(self):
        c, _ = specific_heat(lambda th: ln_z_harmonic(1, th), 1.0)
        assert c == pytest.approx(0.920674, abs=1e-6)

    @pytest.mark.parametrize("D,Theta,expected", [
        (1, 1.0, (0.920673593717774, 4.0033923419628935e-08)),
        (3, 0.37, (2.966008004588893, 1.1868082953807569e-07)),
    ])
    def test_seven_distinct_evaluations(self, D, Theta, expected):
        # stencils at h and h/2 share Theta and Theta +- h
        thetas = []

        def lnz(th):
            thetas.append(th)
            return ln_z_harmonic(D, th)

        assert specific_heat(lnz, Theta) == expected
        assert len(thetas) == 7
        assert len(set(thetas)) == 7
        assert thetas[0] == Theta

    def test_gapped_limit(self):
        c, _ = specific_heat(lambda th: ln_z_harmonic(1, th), 60.0)
        assert abs(c) < 1e-6

    def test_dimension_scaling(self):
        c1, _ = specific_heat(lambda th: ln_z_harmonic(1, th), 1.3)
        c3, _ = specific_heat(lambda th: ln_z_harmonic(3, th), 1.3)
        assert c3 == pytest.approx(3.0 * c1, rel=1e-9)

    @pytest.mark.parametrize("Theta", [1e-154, 1e-155, 1e-160, 1e-162, 1e-300])
    def test_step_outside_the_float_range(self, Theta):
        # (h/2)^2 subnormal, then 0: C was (inf, inf), then (nan, nan),
        # then a bare ZeroDivisionError
        with pytest.raises(ConvergenceError, match="is not finite"):
            specific_heat(lambda th: ln_z_harmonic(3, th), Theta)

    @pytest.mark.parametrize("Theta", [1e-150, 0.37, 1.0, 60.0])
    def test_stencil_thetas_are_the_evaluated_ones(self, Theta):
        thetas = []
        specific_heat(lambda th: thetas.append(th) or ln_z_harmonic(1, th), Theta)
        assert tuple(thetas) == stencil_thetas(Theta)

    def test_stencil_thetas_where_the_step_collapses(self):
        with pytest.raises(ConvergenceError, match="is not finite"):
            stencil_thetas(1e-162)

    def test_tiny_theta_with_a_normal_step(self):
        c, err = specific_heat(lambda th: ln_z_harmonic(3, th), 1e-150)
        assert abs(c - 3.0) <= err

    def test_domain(self):
        with pytest.raises(DomainError):
            specific_heat(lambda th: 0.0, -1.0)


class TestThermoCurve:
    def test_build_and_validate(self):
        curve = thermo_curve(lambda th: ln_z_harmonic(1, th), [0.5, 1.0, 2.0])
        assert curve.T_grid == (0.5, 1.0, 2.0)
        assert curve.C[2] == pytest.approx(harmonic_specific_heat(0.5), abs=1e-8)
        with pytest.raises(DomainError):
            ThermoCurve((1.0, 0.5), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0))
        with pytest.raises(DomainError):
            ThermoCurve((0.5, 1.0), (0.0,), (0.0, 0.0), (0.0, 0.0))

    def test_a_failing_row_is_reported_by_its_temperature(self):
        # the second row's Theta - h/2 fails; the error keeps its type and
        # message and names the row
        bad = stencil_thetas(0.5)[1]

        def lnz(theta):
            if theta == bad:
                raise QuadratureError(f"injected at Theta={theta!r}")
            return ln_z_harmonic(1, theta)

        with pytest.raises(QuadratureError) as info:
            thermo_curve(lnz, [1.0, 2.0, 4.0])
        assert str(info.value) == (
            f"injected at Theta={bad!r} [while evaluating T=2, Theta=0.5]")
