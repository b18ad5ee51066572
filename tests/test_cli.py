"""Tests for the sct command-line interface."""

import builtins
import io
import math
import os
import pathlib
import subprocess
import sys

import pytest

import sct.cli
from sct.cli import ConfigError, RunConfig, compare, main, run, thermo_curve
from sct.errors import ConvergenceError
from sct.paths import ReducedParams
from sct.thermo import specific_heat, stencil_thetas


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [l for l in text.strip().splitlines() if l]
    header = lines[0].split(",")
    rows = [[float(x) for x in l.split(",")] for l in lines[1:]]
    return header, rows


class TestRunConfig:
    def test_wkb_needs_one_dimension(self):
        cfg = RunConfig(mode="quartic-wkb", D=2)
        with pytest.raises(ConfigError, match="wkb requires D=1"):
            cfg.validate()

    def test_grid_invariants(self):
        with pytest.raises(ConfigError):
            RunConfig(mode="harmonic", T_min=0.0).validate()
        with pytest.raises(ConfigError):
            RunConfig(mode="harmonic", T_min=2.0, T_max=1.0).validate()
        with pytest.raises(ConfigError):
            RunConfig(mode="harmonic", T_steps=1).validate()
        # five temperatures on two floats: the curve's grid must increase
        with pytest.raises(ConfigError, match="too close for steps=5"):
            RunConfig(mode="harmonic", T_min=1.0, T_max=1.0 + 2.0 ** -52,
                      T_steps=5).validate()

    @pytest.mark.parametrize("field,flag,value", [
        ("D", "dim", 2.5), ("D", "dim", True), ("D", "dim", "3"),
        ("T_steps", "steps", 2.5), ("T_steps", "steps", True)])
    def test_integer_fields(self, field, flag, value):
        # a float or bool D or step count is a ConfigError, not a TypeError
        # from the grid or a DomainError (exit 3) from the first row
        config = RunConfig(mode="harmonic", **{field: value})
        with pytest.raises(ConfigError, match=f"{flag}={value!r} must be an integer"):
            config.validate()
        with pytest.raises(ConfigError):
            run(config, io.StringIO())

    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="unknown mode"):
            RunConfig(mode="banana").validate()

    @pytest.mark.parametrize("field,flag", [
        ("g", "g"), ("tol", "tol"), ("T_min", "tmin"), ("T_max", "tmax")])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_values(self, field, flag, value):
        with pytest.raises(ConfigError, match=f"{flag}={value} must be .*finite"):
            RunConfig(mode="quartic-classical", **{field: value}).validate()


class TestRun:
    def test_harmonic_curve_matches_analytic_c(self):
        cfg = RunConfig(mode="harmonic", D=1, T_min=0.1, T_max=2.0, T_steps=5)
        buf = io.StringIO()
        run(cfg, buf)
        header, rows = parse_csv(buf.getvalue())
        assert header == ["T", "lnZ", "C", "C_err"]
        assert len(rows) == 5
        for T, lnz, c, c_err in rows:
            theta = 1.0 / T
            ref = (0.5 * theta / math.sinh(0.5 * theta)) ** 2
            assert c == pytest.approx(ref, abs=1e-7)
            assert lnz == pytest.approx(-math.log(2.0 * math.sinh(0.5 * theta)), rel=1e-12)
            assert c_err < 1e-5

    def test_all_values_finite(self):
        cfg = RunConfig(mode="quartic-semiclassical", g=0.2, D=2,
                        T_min=0.5, T_max=2.0, T_steps=3)
        buf = io.StringIO()
        run(cfg, buf)
        _, rows = parse_csv(buf.getvalue())
        assert all(math.isfinite(v) for row in rows for v in row)

    def test_deterministic_output(self):
        cfg = RunConfig(mode="quartic-classical", g=0.5, D=3,
                        T_min=0.2, T_max=3.0, T_steps=4)
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            run(cfg, buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]

    def test_seven_lnz_evaluations_per_row(self, monkeypatch):
        # the row's own ln Z is the stencil's centre value, computed once,
        # and the two stencils share their Theta +- h points
        thetas = []
        lnz_harmonic = sct.cli.ln_z_harmonic

        def counted(D, theta):
            thetas.append(theta)
            return lnz_harmonic(D, theta)

        monkeypatch.setattr(sct.cli, "ln_z_harmonic", counted)
        cfg = RunConfig(mode="harmonic", D=1, T_min=0.5, T_max=2.0, T_steps=3)
        run(cfg, io.StringIO())
        assert len(thetas) == 7 * 3
        assert len(set(thetas)) == 7 * 3
        for T in cfg.temperature_grid():
            assert thetas.count(1.0 / float(T)) == 1


    @pytest.mark.parametrize("D", [1, 3])
    def test_one_batch_per_semiclassical_row(self, monkeypatch, D):
        # a row is one ln Z2 at its own Theta with its Theta-moments: one
        # path-family build per quadrature round (1-2 a row) and one
        # q_theta_max
        builds, batches, caps = [], [], []
        build, batch = sct.thermo.quartic_path_from_qt, sct.cli.ln_z2_quartic
        cap = sct.thermo.q_theta_max
        monkeypatch.setattr(sct.thermo, "quartic_path_from_qt",
                            lambda q_t, Theta: builds.append(q_t) or build(q_t, Theta))
        monkeypatch.setattr(sct.thermo, "q_theta_max",
                            lambda Theta: caps.append(Theta) or cap(Theta))
        monkeypatch.setattr(sct.cli, "ln_z2_quartic",
                            lambda *args, **kwargs: batches.append((args[2], kwargs))
                            or batch(*args, **kwargs))
        cfg = RunConfig(mode="quartic-semiclassical", g=0.5, D=D, T_min=0.1,
                        T_max=5.0, T_steps=4)
        run(cfg, io.StringIO())
        assert len(builds) <= 2 * cfg.T_steps
        thetas = [1.0 / float(T) for T in cfg.temperature_grid()]
        assert batches == [((theta,), {"moments": True}) for theta in thetas]
        assert caps == thetas

    @pytest.mark.parametrize("cfg", [
        RunConfig(mode="harmonic", D=2, T_min=0.1, T_max=3.0, T_steps=5),
        RunConfig(mode="quartic-semiclassical", g=0.5, D=3, T_min=0.1,
                  T_max=5.0, T_steps=4),
    ])
    def test_csv_is_the_library_curve(self, cfg):
        buf = io.StringIO()
        run(cfg, buf)
        curve = thermo_curve(sct.cli.lnz_function(cfg), cfg.temperature_grid())
        rows = zip(curve.T_grid, curve.lnZ, curve.C, curve.C_err)
        assert buf.getvalue() == "T,lnZ,C,C_err\n" + "".join(
            ",".join(f"{v:.15g}" for v in row) + "\n" for row in rows)


class TestStamping:
    """The benchmark's clock wraps `sct.cli.lnz_function` (one call a
    column) and `sct.cli.specific_heat` (one call a row) to stamp rows."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        lnz_function, specific_heat = sct.cli.lnz_function, sct.cli.specific_heat
        monkeypatch.setattr(sct.cli, "lnz_function",
                            lambda cfg: calls.append(cfg.mode) or lnz_function(cfg))
        monkeypatch.setattr(sct.cli, "specific_heat",
                            lambda lnz, theta: calls.append(theta) or specific_heat(lnz, theta))
        return calls

    def test_run(self, calls):
        cfg = RunConfig(mode="quartic-semiclassical", T_min=0.5, T_max=2.5, T_steps=3)
        run(cfg, io.StringIO())
        assert calls == ["quartic-semiclassical", 2.0, 1.0 / 1.5, 0.4]

    def test_compare(self, calls):
        modes = ("harmonic", "quartic-classical", "quartic-wkb")
        compare([RunConfig(mode=m, g=0.2, T_min=0.5, T_max=2.5, T_steps=3)
                 for m in modes], io.StringIO())
        assert calls == [c for m in modes for c in (m, 2.0, 1.0 / 1.5, 0.4)]


class TestCompare:
    def test_single_mode_matches_run_minus_lnz(self):
        cfg = RunConfig(mode="harmonic", D=1, T_min=0.5, T_max=2.0, T_steps=4)
        buf_run, buf_cmp = io.StringIO(), io.StringIO()
        run(cfg, buf_run)
        compare([cfg], buf_cmp)
        _, run_rows = parse_csv(buf_run.getvalue())
        header, cmp_rows = parse_csv(buf_cmp.getvalue())
        assert header == ["T", "C_harmonic"]
        for rrow, crow in zip(run_rows, cmp_rows):
            assert crow[0] == rrow[0]
            assert crow[1] == rrow[2]

    def test_grid_mismatch(self):
        a = RunConfig(mode="harmonic", T_min=0.5, T_max=2.0, T_steps=4)
        b = RunConfig(mode="quartic-classical", T_min=0.5, T_max=2.0, T_steps=5)
        with pytest.raises(ConfigError, match="grid"):
            compare([a, b], io.StringIO())

    def test_no_configuration(self):
        with pytest.raises(ConfigError, match="needs at least one mode"):
            compare([], io.StringIO())

    def test_harmonic_exceeds_quartic_at_high_temperature(self):
        # harmonic plateau D vs quartic classical ceiling 3D/4
        shared = dict(g=0.2, D=1, T_min=4.0, T_max=8.0, T_steps=3)
        cfgs = [RunConfig(mode="harmonic", **shared),
                RunConfig(mode="quartic-semiclassical", **shared)]
        buf = io.StringIO()
        compare(cfgs, buf)
        _, rows = parse_csv(buf.getvalue())
        for row in rows:
            assert row[1] > row[2]

    def test_semiclassical_close_to_classical_at_high_t(self):
        shared = dict(g=0.5, D=1, T_min=10.0, T_max=11.0, T_steps=2)
        cfgs = [RunConfig(mode="quartic-semiclassical", **shared),
                RunConfig(mode="quartic-classical", **shared)]
        buf = io.StringIO()
        compare(cfgs, buf)
        _, rows = parse_csv(buf.getvalue())
        for row in rows:
            assert abs(row[1] / row[2] - 1.0) < 0.02


class TestMain:
    def test_wkb_dimension_error_exit_code(self, capsys):
        code, out, err = run_main(
            ["run", "--mode=quartic-wkb", "--dim=2"], capsys)
        assert code == 2
        assert "wkb requires D=1" in err
        assert out == ""

    def test_rows_past_the_float_range_of_z2(self, capsys):
        # Theta = 200 and 170 at D = 8: Z2 ~ e^-802 and e^-682 have no float
        # value (exit 3 while the column read ln z2_quartic); their logs
        # differ by -D/2 dTheta, the one-loop ground energy
        argv = ["--dim=8", "--tmin=0.005", f"--tmax={1.0 / 170.0!r}", "--steps=2"]
        code, out, err = run_main(["run", "--mode=quartic-semiclassical", *argv], capsys)
        assert code == 0, err
        _, rows = parse_csv(out)
        theta = [1.0 / float(T) for T in
                 RunConfig(mode="harmonic", T_min=0.005, T_max=1.0 / 170.0,
                           T_steps=2).temperature_grid()]
        assert rows[0][1] - rows[1][1] == pytest.approx(-4.0 * (theta[0] - theta[1]), abs=1e-8)
        assert rows[0][1] == pytest.approx(-802.03294, abs=1e-5)
        for _, _, c, c_err in rows:
            assert abs(c) <= c_err  # the gapped limit

    def test_missing_mode(self, capsys):
        code, _, err = run_main(["run"], capsys)
        assert code == 2
        assert "needs --mode" in err

    @pytest.mark.parametrize("argv", [["run", "--dim=abc"], ["fit"], ["--help"]])
    def test_argparse_exit_status_is_returned(self, argv, capsys):
        # argparse exits 2 on a bad flag or command and 0 after --help;
        # main returns that status instead of raising SystemExit
        code, _, _ = run_main(argv, capsys)
        assert code == (0 if argv == ["--help"] else 2)

    def test_harmonic_run_stdout(self, capsys):
        code, out, err = run_main(
            ["run", "--mode=harmonic", "--dim=1", "--tmin=0.1",
             "--tmax=2", "--steps=5"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["T", "lnZ", "C", "C_err"]
        assert len(rows) == 5

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "curve.csv"
        code, out, _ = run_main(
            ["run", "--mode=harmonic", "--tmin=0.5", "--tmax=1.0",
             "--steps=2", f"--out={target}"], capsys)
        assert code == 0
        assert out == ""
        header, rows = parse_csv(target.read_text())
        assert len(rows) == 2

    def test_out_file_that_cannot_be_opened(self, tmp_path, capsys):
        target = tmp_path / "missing" / "curve.csv"
        code, out, err = run_main(
            ["run", "--mode=harmonic", f"--out={target}"], capsys)
        assert code == 2
        assert err.startswith(f"sct: cannot open output file {target}")
        assert len(err.splitlines()) == 1
        assert out == ""
        assert not target.parent.exists()

    def test_config_file_defaults_and_flag_override(self, tmp_path, capsys):
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text(
            "# sweep defaults\nmode=harmonic\ndim=3\ntmin=0.5\ntmax=1.5\nsteps=3\n")
        code, out, _ = run_main(["run", f"--config={cfg_file}"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 3
        # flags override the file
        code, out2, _ = run_main(
            ["run", f"--config={cfg_file}", "--steps=2"], capsys)
        assert code == 0
        _, rows2 = parse_csv(out2)
        assert len(rows2) == 2

    def test_compare_via_main(self, capsys):
        code, out, _ = run_main(
            ["compare", "--modes=harmonic,quartic-classical", "--g=0.2",
             "--dim=1", "--tmin=1.0", "--tmax=2.0", "--steps=2"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["T", "C_harmonic", "C_quartic-classical"]
        assert len(rows) == 2

    def test_defaults_are_run_config_defaults(self, capsys):
        code, out, _ = run_main(["run", "--mode=harmonic"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == RunConfig.T_steps == 10
        assert rows[0][0] == RunConfig.T_min == 0.1
        assert rows[-1][0] == RunConfig.T_max == 5.0

    @pytest.mark.parametrize("argv", [
        ["run", "--mode=harmonic"],
        ["compare", "--modes=harmonic,quartic-classical,quartic-wkb"],
    ])
    def test_config_file_read_once(self, argv, tmp_path, monkeypatch, capsys):
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text("g=0.2\ndim=1\ntmin=1.0\ntmax=2.0\nsteps=2\n")
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(os.fspath(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        code, out, _ = run_main(argv + [f"--config={cfg_file}"], capsys)
        assert code == 0
        assert len(parse_csv(out)[1]) == 2
        assert opened.count(str(cfg_file)) == 1

    def test_bad_config_file_value(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("mode=harmonic\nsteps=abc\n")
        code, out, err = run_main(["run", f"--config={cfg_file}"], capsys)
        assert code == 2
        assert "steps='abc'" in err
        assert out == ""

    def test_unknown_config_file_key(self, tmp_path, capsys):
        # a misspelt key was once dropped silently and tmin kept its default
        cfg_file = tmp_path / "typo.cfg"
        cfg_file.write_text("mode=harmonic\ntmni=0.2\n")
        code, out, err = run_main(["run", f"--config={cfg_file}", "--steps=2"], capsys)
        assert code == 2
        assert f"{cfg_file}:2: unknown key 'tmni'" in err
        assert out == ""

    def test_config_file_line_without_a_value(self, tmp_path, capsys):
        cfg_file = tmp_path / "bare.cfg"
        cfg_file.write_text("mode=harmonic\n\n# steps\nsteps\n")
        code, out, err = run_main(["run", f"--config={cfg_file}"], capsys)
        assert code == 2
        assert f"{cfg_file}:4: expected key=value, got 'steps'" in err
        assert out == ""

    def test_config_file_that_cannot_be_read(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        code, out, err = run_main(["run", "--mode=harmonic", f"--config={missing}"], capsys)
        assert code == 2
        assert err.startswith(f"sct: cannot read config file {missing}: ")
        assert out == ""

    @pytest.mark.parametrize("argv,status", [
        ("--mode=quartic-wkb --g=0.2 --tmin=1e5 --tmax=2e5", 3),
        ("--mode=quartic-wkb --dim=2", 2)])
    def test_a_failed_run_leaves_the_out_file_alone(self, argv, status, tmp_path, capsys):
        # --out was opened before the first row, so a run that failed with
        # exit 3 left it empty
        target = tmp_path / "curve.csv"
        target.write_text("T,lnZ,C,C_err\n1,2,3,4\n")
        code, out, _ = run_main(["run", *argv.split(), "--steps=2", f"--out={target}"],
                                capsys)
        assert code == status
        assert target.read_text() == "T,lnZ,C,C_err\n1,2,3,4\n"
        assert out == ""

    @pytest.mark.parametrize("flag", ["--g=inf", "--tol=nan", "--tol=inf",
                                      "--tmin=nan", "--tmax=inf"])
    def test_non_finite_flag_exit_code(self, flag, capsys):
        code, out, err = run_main(["run", "--mode=quartic-classical", flag], capsys)
        assert code == 2
        assert f"{flag[2:]} must be" in err and "finite" in err
        assert out == ""

    def test_empty_mode_list(self, capsys):
        code, out, err = run_main(["compare", "--modes=,"], capsys)
        assert code == 2
        assert "needs --modes" in err

    def test_harmonic_run_at_extreme_temperature(self, capsys):
        # Theta = 1e-16 and 1e-17, where ln(1 - e^-Theta) once raised
        # a bare ValueError
        code, out, err = run_main(
            ["run", "--mode=harmonic", "--dim=3", "--tmin=1e16",
             "--tmax=1e17", "--steps=2"], capsys)
        assert code == 0, err
        _, rows = parse_csv(out)
        assert len(rows) == 2
        for _, _, c, c_err in rows:
            assert abs(c - 3.0) <= c_err

    def test_reference_modes_at_extreme_temperature(self, capsys):
        for argv in (
                # Theta = 5e7 and 1e8: adaptive quadrature over [0, inf)
                # missed the peak and returned 0, and math.log(0) raised a
                # bare ValueError
                ["--mode=quartic-classical", "--g=0.5", "--dim=3",
                 "--tmin=1e-8", "--tmax=2e-8"],
                # Theta = 500 and 1e4: the partition sum underflowed to 0
                ["--mode=quartic-wkb", "--g=0.2", "--dim=1", "--tmin=1e-4",
                 "--tmax=2e-3"]):
            code, out, err = run_main(["run", *argv, "--steps=2"], capsys)
            assert code == 0, err
            _, rows = parse_csv(out)
            assert len(rows) == 2
            assert all(math.isfinite(v) for row in rows for v in row)
        # g = 0.5, D = 8, Theta = 1e-60, where the classical C is 3D/4 to
        # ~1e-30: the integral's error estimate was 3e77; the stencil's own
        # step (a quarter of Theta here) limits C
        lnz = lambda th: sct.thermo.ln_z_classical(ReducedParams(0.5, 8, th))
        c, c_err = specific_heat(lnz, 1e-60)
        assert abs(c - 6.0) <= c_err <= 3e-3

    def test_wkb_spectrum_covers_the_hottest_probe(self, monkeypatch, capsys):
        # at T = 1000 the step h sits at its 1e-4 floor, so the stencil's
        # Theta - 2h = 0.0008 lies below 0.95 Theta, where the spectrum was
        # built: "spectrum truncated at n_max=4096 is too short" (exit 3)
        built = []
        spectrum = sct.cli.wkb_spectrum
        monkeypatch.setattr(sct.cli, "wkb_spectrum",
                            lambda g, theta: built.append(theta) or spectrum(g, theta))
        code, out, err = run_main(
            ["run", "--mode=quartic-wkb", "--g=0.2", "--dim=1", "--tmin=500",
             "--tmax=1000", "--steps=2"], capsys)
        assert code == 0, err
        assert built == [min(stencil_thetas(1e-3))]
        _, rows = parse_csv(out)
        assert [row[0] for row in rows] == [500.0, 1000.0]
        assert all(math.isfinite(v) for row in rows for v in row)
        # the classical limit of the quartic well's C is 3/4
        assert rows[1][2] == pytest.approx(0.75597, abs=1e-5)

    @pytest.mark.parametrize("argv", [
        # T = 0.0357 is Theta = 28.01, where dividing Omega by a computed
        # Wronskian failed the route check
        ["--g=0.5", "--dim=1", "--tmin=0.0357", "--tmax=0.05"],
        # the tail bound's linear sum overflowed from D = 163 (exit 1)
        ["--dim=200", "--tmin=1", "--tmax=2"],
        ["--dim=400", "--tmin=1", "--tmax=2"],
    ])
    def test_semiclassical_rows_where_it_used_to_fail(self, argv, capsys):
        code, out, err = run_main(
            ["run", "--mode=quartic-semiclassical", *argv, "--steps=2"], capsys)
        assert code == 0, err
        _, rows = parse_csv(out)
        assert len(rows) == 2
        assert all(math.isfinite(v) for row in rows for v in row)

    @pytest.mark.parametrize("argv", [
        # Theta = 1e-306 and 1e-308: a ZeroDivisionError traceback, exit 1
        "run --mode=harmonic --tmin=1e306 --tmax=1e308",
        "run --mode=harmonic --tmin=1e-300 --tmax=1e-299",
        "run --mode=harmonic --dim=1000000 --tmin=0.1 --tmax=1",
        "run --mode=harmonic --tmin=0 --tmax=1",
        "run --mode=quartic-semiclassical --tmin=1e-4 --tmax=2e-4",
        "run --mode=quartic-semiclassical --tmin=1e300 --tmax=1e301",
        "run --mode=quartic-semiclassical --tmin=1e5 --tmax=1e6",
        "run --mode=quartic-semiclassical --g=1e-300 --tmin=0.5 --tmax=1",
        "run --mode=quartic-semiclassical --g=1e300 --tmin=0.5 --tmax=1",
        "run --mode=quartic-semiclassical --g=0 --tmin=0.5 --tmax=1",
        "run --mode=quartic-semiclassical --tol=1e-300 --tmin=0.5 --tmax=1",
        "run --mode=quartic-semiclassical --tol=0.99 --tmin=0.5 --tmax=1",
        "run --mode=quartic-semiclassical --dim=0 --tmin=0.5 --tmax=1",
        "run --mode=quartic-classical --tmin=1e300 --tmax=1e301",
        "run --mode=quartic-classical --g=1e300 --dim=1000000 --tmin=0.5 --tmax=1",
        "run --mode=quartic-classical --g=1e-300 --tmin=1e-300 --tmax=1e-299",
        "run --mode=quartic-wkb --g=1e300 --tmin=0.5 --tmax=1",
        "run --mode=quartic-wkb --g=1e-300 --tmin=0.5 --tmax=1",
        "compare --mode=harmonic,quartic-classical --tmin=1e306 --tmax=1e308",
    ])
    def test_extreme_flags_exit_cleanly(self, argv, capsys):
        code, _, err = run_main(argv.split() + ["--steps=2"], capsys)
        assert code in (0, 2, 3), err
        assert "Traceback" not in err

    def test_wkb_at_an_overflowing_coupling_has_rows(self, capsys, deadline):
        # 4 g E overflowed in the phase integral and the run exited 3.  The
        # C of its rows is stencil noise on |ln Z| ~ 1e100, and C_err says so
        code, out, err = run_main(
            ["run", "--mode=quartic-wkb", "--g=1e300", "--tmin=0.5", "--tmax=1",
             "--steps=2"], capsys)
        assert code == 0, err
        _, rows = parse_csv(out)
        assert [row[0] for row in rows] == [0.5, 1.0]
        for _, lnz, c, c_err in rows:
            assert lnz < -1e99 and c_err >= abs(c)

    def test_dimension_past_the_float_range_has_rows(self, capsys):
        # ln Z2 = -1695 at D = 1000, T = 1: exit 3 while the column read
        # ln z2_quartic; the rows are the library's ln Z2
        code, out, err = run_main(
            ["run", "--mode=quartic-semiclassical", "--dim=1000", "--tmin=1",
             "--tmax=2", "--steps=2"], capsys)
        assert code == 0, err
        _, rows = parse_csv(out)
        assert [row[0] for row in rows] == [1.0, 2.0]
        lnz = sct.thermo.ln_z2_quartic(0.5, 1000, [1.0, 0.5], 1e-9)
        for row, want in zip(rows, lnz):
            assert row[1] == pytest.approx(want, rel=1e-14)
            assert row[1] < math.log(sys.float_info.min)
            assert 0.0 < row[2] and row[3] < 1e-6 * row[2]

    def test_large_dimension_rows_past_the_tail_cut(self, capsys):
        # g = 10, D = 1000: the tail bound at a cut 40 e-folds below the
        # peak exceeded tol of the value (exit 3)
        code, out, err = run_main(
            ["run", "--mode=quartic-semiclassical", "--g=10", "--dim=1000",
             "--tmin=0.5", "--tmax=1", "--steps=2"], capsys)
        assert code == 0, err
        _, rows = parse_csv(out)
        assert [row[0] for row in rows] == [0.5, 1.0]
        for row in rows:
            assert all(math.isfinite(v) for v in row)
            assert 0.0 < row[2] and row[3] < 1e-6 * row[2]

    def test_failing_stencil_point_fails_its_row(self, monkeypatch, capsys):
        # the second row's Theta + 2h fails; the row is reported by its T
        # (the reference modes keep the stencil)
        cfg = RunConfig(mode="quartic-classical", T_min=0.5, T_max=1.0, T_steps=2)
        bad = stencil_thetas(1.0 / float(cfg.temperature_grid()[1]))[6]
        batch = sct.cli.ln_z_classical_batch

        def failing(g, D, thetas, tol):
            if bad in thetas:
                raise ConvergenceError(f"injected at Theta={bad!r}")
            return batch(g, D, thetas, tol)

        monkeypatch.setattr(sct.cli, "ln_z_classical_batch", failing)
        code, out, err = run_main(
            ["run", "--mode=quartic-classical", "--tmin=0.5", "--tmax=1",
             "--steps=2"], capsys)
        assert code == 3
        assert f"injected at Theta={bad!r} [while evaluating T=1, Theta=1]" in err
        assert out == ""

    def test_failing_one_loop_theta_fails_its_row(self, monkeypatch, capsys):
        # a one-loop row evaluates its own Theta alone; the second row's
        # failure is reported by its T
        q_theta_max = sct.thermo.q_theta_max

        def failing(Theta):
            if Theta == 1.0:
                raise ConvergenceError(f"injected at Theta={Theta!r}")
            return q_theta_max(Theta)

        monkeypatch.setattr(sct.thermo, "q_theta_max", failing)
        code, out, err = run_main(
            ["run", "--mode=quartic-semiclassical", "--tmin=0.5", "--tmax=1",
             "--steps=2"], capsys)
        assert code == 3
        assert "injected at Theta=1.0 [while evaluating T=1, Theta=1]" in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["run", "--mode=quartic-wkb"], ["compare", "--modes=harmonic,quartic-wkb"]])
    def test_set_up_failure_is_reported_by_the_hottest_row(self, argv, capsys):
        # the WKB spectrum is built for T_max's stencil; past 8192 levels it
        # fails before any row, and the note names T_max
        code, out, err = run_main(
            [*argv, "--g=0.2", "--dim=1", "--tmin=1e5", "--tmax=2e5", "--steps=2"],
            capsys)
        assert code == 3
        assert err.startswith("sct: numerical failure: spectrum truncated at n_max=8192 ")
        assert err.endswith(" [while evaluating T=200000, Theta=5e-06]\n")
        assert out == ""

    def test_large_theta_exit_code(self, capsys):
        code, out, err = run_main(
            ["run", "--mode=quartic-semiclassical", "--tmin=0.0006",
             "--tmax=0.00065", "--steps=2"], capsys)
        assert code == 3
        assert err.startswith("sct: numerical failure: q_Theta at Theta=")
        assert "lies where 1 - k^2 = q_t^2 / (2 (1 + q_t^2)) underflows" in err
        assert out == ""

    def test_console_script_entry_point(self):
        # runs from a checkout without installing: src goes on the path
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.run(
            [sys.executable, "-m", "sct.cli", "run", "--mode=harmonic",
             "--tmin=0.5", "--tmax=1.0", "--steps=2"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert proc.stdout.startswith("T,lnZ,C,C_err")

