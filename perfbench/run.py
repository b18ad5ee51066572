"""Benchmark of the sct pipeline, from the elliptic kernel up to the CLI.

    python3 perfbench/run.py --workload curve-oneloop --seed 1 --seconds 20 --trace 0

Runs one workload (see workloads.py) as a closed loop in this single
process: a warm-up pass that is discarded, then timed passes over the same
seeded requests until --seconds have been spent.  Every run first passes
the workload's correctness gates, and every pass is checked; a run that
fails a check prints the reason to stderr and `"correct": false` with no
metrics, and exits with status 1.

--trace 0 reports the end-to-end metrics: set-up time in seconds, measured
in fresh processes (this script with --setup-probe), and pass and request
times in reference units, which cancel the drift in speed of a shared
machine (see clock.py).
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics; the spans are written to perfbench/out/<workload>.npz.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass

import workloads
from clock import PassClock
from tracer import LAYERS, Patcher, Tracer
from workloads import BENCH_DIR, WORKLOADS

SETUP_RUNS = 3
MIN_PASSES = 2
OUT_DIR = BENCH_DIR / "out"


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time `import sct` and the workload's set-up in this "
                        "process, print the seconds and exit")
    return p.parse_args(argv)


def setup_probe(workload, seed: int) -> float:
    inputs = workload.generate(seed)
    t0 = time.perf_counter()
    workloads.import_sct()
    workload.build(inputs)
    return time.perf_counter() - t0


def fresh_setup_seconds(name: str, seed: int) -> float:
    """Median set-up time over SETUP_RUNS fresh interpreter processes."""
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", name,
             "--seed", str(seed)],
            capture_output=True, text=True, timeout=150, cwd=workloads.ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


@dataclass
class Pass:
    """What a checked pass leaves behind; its outputs are dropped, so that
    memory does not grow with the number of passes."""

    traced: bool
    wall: float  # seconds, calibration units excluded
    wall_ref: float  # reference units (seconds in traced passes)
    unit: float  # mean calibration unit, seconds (0 in traced passes)
    attempted: int
    ok: int
    latencies: list  # of the requests that succeeded


def _pass(traced, wall, wall_ref, unit, outcomes) -> Pass:
    return Pass(traced, wall, wall_ref, unit, len(outcomes),
                sum(o.status == "ok" for o in outcomes),
                [o.latency for o in outcomes if o.status == "ok"])


class Runner:
    def __init__(self, sct, workload, state):
        self.cli = sct.cli
        self.workload = workload
        self.state = state
        self.tracer = Tracer()
        self.bad = []
        self.warm = None

    def one_pass(self, traced: bool) -> Pass:
        """One pass over the requests, checked for correctness."""
        patcher = Patcher()
        clock = PassClock(self.tracer if traced else None)
        try:
            if traced:
                self.tracer.install(patcher)
            clock.install(patcher, self.cli)
            clock.checkpoint()
            start = clock.measured()
            outcomes = self.workload.run_pass(self.state, clock)
            clock.checkpoint()
            end = clock.measured()
        finally:
            patcher.restore()
        ref = clock.reference()
        for o in outcomes:
            o.latency = sum(ref(b) - ref(a) for a, b in o.intervals)
        self.bad += self.workload.check(self.state, outcomes)
        if self.warm is None:
            self.warm = outcomes
        else:
            self.bad += workloads.repro_failures(self.warm, outcomes)
        unit = statistics.fmean(clock.units) if clock.units else 0.0
        return _pass(traced, end - start, ref(end) - ref(start), unit, outcomes)

    def measure(self, seconds: float, traced: bool) -> list:
        """Timed passes, alternating untraced and traced ones if `traced`,
        after one discarded warm-up pass."""
        self.one_pass(traced=False)
        kinds = (False, True) if traced else (False,)
        passes = []
        t_start = time.perf_counter()
        while True:
            t_round = time.perf_counter()
            for kind in kinds:
                passes.append(self.one_pass(kind))
            elapsed = time.perf_counter() - t_start
            rounds = len(passes) // len(kinds)
            if rounds >= MIN_PASSES and elapsed + (time.perf_counter() - t_round) > seconds:
                return passes


def _m(value, unit):
    return {"value": value, "unit": unit}


def _request_counts(outcomes):
    """(attempted, ok, crash) over the run's distinct requests.

    Counted once, on the warm-up pass, which every timed pass must
    reproduce: the counts then depend on the seed only, not on how many
    passes fit in --seconds."""
    return (len(outcomes), sum(o.status == "ok" for o in outcomes),
            sum(o.status == "crash" for o in outcomes))


def end_to_end(runner: Runner, passes, setup_s: float) -> dict:
    """Pass and request times are in reference units (see clock.py)."""
    attempted, ok, crash = _request_counts(runner.warm)
    walls = [p.wall_ref for p in passes]
    lat = sorted(x for p in passes for x in p.latencies)
    p90 = statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0]
    return {
        "setup_s": _m(setup_s, "s"),
        "wall_ref": _m(statistics.median(walls), "ref"),
        "throughput_kref": _m(statistics.median(
            1e3 * p.ok / w
            for p, w in zip(passes, walls)), "1/kref"),
        "latency_p50_ref": _m(statistics.median(lat), "ref"),
        "latency_p90_ref": _m(p90, "ref"),
        "ok_frac": _m(ok / attempted, "frac"),
        "contract_frac": _m(1.0 - crash / attempted, "frac"),
        "peak_rss_mb": _m(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0, "MB"),
    }


def per_layer(runner: Runner, passes, value_dev: float) -> dict:
    tracer = runner.tracer
    traced = [p for p in passes if p.traced]
    untraced = [p.wall for p in passes if not p.traced]
    n = len(traced)
    totals = tracer.totals()

    def calls(*spans):
        return sum(totals.get(s, (0, 0.0, 0.0))[0] for s in spans)

    def per_call(span, scale, own=True):
        c, incl, self_t = totals.get(span, (0, 0.0, 0.0))
        return scale * (self_t if own else incl) / c if c else 0.0

    def layer_self(layer):
        return sum(v[2] for s, v in totals.items()
                   if s.startswith(layer + ".")) / n

    def ratio(a, b):
        return a / b if b else 0.0

    rows = sum(p.attempted for p in traced) if runner.workload.cli_rows else 0
    z2_calls = calls("thermo.z2_quartic")
    attempted, ok, crash = _request_counts(runner.warm)
    m = {
        "elliptic.sn_cn_dn.calls": _m(calls("elliptic.sn_cn_dn") / n, "count"),
        "elliptic.sn_cn_dn.self_us": _m(per_call("elliptic.sn_cn_dn", 1e6), "us"),
        "elliptic.sn_cn_dn.near_one_frac": _m(ratio(
            tracer.counts["elliptic.sn_cn_dn.near_one"],
            calls("elliptic.sn_cn_dn")), "frac"),
        "elliptic.epsilon.calls": _m(calls("elliptic.epsilon") / n, "count"),
        "elliptic.epsilon.self_us": _m(per_call("elliptic.epsilon", 1e6), "us"),
        "elliptic.complete_K.calls": _m(calls("elliptic.complete_K") / n, "count"),
        "elliptic.complete_K.self_us": _m(per_call("elliptic.complete_K", 1e6), "us"),
        "paths.path_from_qt.calls": _m(calls("paths.path_from_qt") / n, "count"),
        "paths.path_from_qt.self_us": _m(per_call("paths.path_from_qt", 1e6), "us"),
        "paths.q_theta_max.calls": _m(calls("paths.q_theta_max") / n, "count"),
        "paths.q_theta_max.self_us": _m(per_call("paths.q_theta_max", 1e6), "us"),
        "paths.action.calls": _m(calls("paths.action") / n, "count"),
        "paths.canonical_pair.calls": _m(calls("paths.canonical_pair") / n, "count"),
        "fluctuations.det_closed.calls": _m(calls("fluctuations.det_closed") / n, "count"),
        "fluctuations.det_closed.self_us": _m(per_call("fluctuations.det_closed", 1e6), "us"),
        "fluctuations.det_dual_route.calls": _m(calls("fluctuations.det_dual_route") / n, "count"),
        "fluctuations.det_dual_route.self_us": _m(per_call("fluctuations.det_dual_route", 1e6), "us"),
        # pair-route re-derivations over closed-form evaluations: wasted
        # over useful determinant work
        "fluctuations.route_check_frac": _m(ratio(
            calls("fluctuations.det_dual_route"),
            calls("fluctuations.det_closed")), "frac"),
        "fluctuations.flow_matrices.calls": _m(calls("fluctuations.flow_matrices") / n, "count"),
        "fluctuations.flow_matrices.self_ms": _m(per_call("fluctuations.flow_matrices", 1e3), "ms"),
        "fluctuations.green_general.calls": _m(calls("fluctuations.green_general") / n, "count"),
        "fluctuations.wick_moment.self_ms": _m(per_call("fluctuations.wick_moment", 1e3), "ms"),
        "thermo.z2_quartic.calls": _m(z2_calls / n, "count"),
        "thermo.z2_quartic.ms": _m(per_call("thermo.z2_quartic", 1e3, own=False), "ms"),
        "thermo.z2_quartic.self_ms": _m(per_call("thermo.z2_quartic", 1e3), "ms"),
        "thermo.path_evals_per_z2": _m(ratio(tracer.calls_within(
            "paths.path_from_qt", "thermo.z2_quartic"), z2_calls), "count"),
        "thermo.lnz_evals_per_row": _m(ratio(
            tracer.counts["cli.lnz_evals"], rows), "count"),
        "thermo.specific_heat.calls": _m(calls("thermo.specific_heat") / n, "count"),
        "thermo.specific_heat.ms": _m(per_call("thermo.specific_heat", 1e3, own=False), "ms"),
        "thermo.z_classical.calls": _m(calls("thermo.z_classical") / n, "count"),
        "thermo.z_classical.self_us": _m(per_call("thermo.z_classical", 1e6), "us"),
        "thermo.wkb_levels.ms": _m(per_call("thermo.wkb_levels", 1e3, own=False), "ms"),
        "thermo.wkb_levels.n_max": _m(tracer.n_max, "count"),
        "thermo.z_wkb.calls": _m(calls("thermo.z_wkb") / n, "count"),
        "cli.lnz_function.ms": _m(per_call("cli.lnz_function", 1e3, own=False), "ms"),
        "cli.rows": _m(rows / n, "count"),
        "trace.overhead_frac": _m(statistics.median(p.wall for p in traced)
                                  / statistics.median(untraced) - 1.0, "frac"),
        "trace.pass_s": _m(statistics.median(p.wall for p in traced), "s"),
        "requests.failed_frac": _m(1.0 - ok / attempted, "frac"),
        "requests.crash_frac": _m(crash / attempted, "frac"),
        "gates.value_dev_tol": _m(value_dev, "tol"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = _m(layer_self(layer), "s")
    return m


def _summary(runner: Runner, passes, metrics) -> None:
    attempted, ok, crash = _request_counts(runner.warm)
    errors = Counter(o.error.split(":")[0] for o in runner.warm
                     if o.status != "ok")
    lines = [f"{runner.workload.name}: {len(passes)} passes over {attempted} "
             f"requests, {ok} ok, {attempted - ok} failed ({crash} crashed) "
             f"{json.dumps(errors, sort_keys=True)}"]
    untraced = [p for p in passes if not p.traced]
    lines.append(f"  pass wall {statistics.median(p.wall for p in untraced):.4g} s, "
                 f"reference unit {1e3 * statistics.median(p.unit for p in untraced):.4g} ms")
    lines += [f"  {k} = {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    print("\n".join(lines), file=sys.stderr)


def main(argv=None) -> int:
    args = _args(argv)
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        print(repr(setup_probe(workload, args.seed)))
        return 0

    sct = workloads.import_sct()
    inputs = workload.generate(args.seed)
    setup_s = None if args.trace else fresh_setup_seconds(workload.name, args.seed)
    state = workload.build(inputs)
    value_dev, bad = workloads.run_gates(workload, workloads.load_pins())
    passes = []
    if not bad:
        runner = Runner(sct, workload, state)
        passes = runner.measure(args.seconds, traced=bool(args.trace))
        bad = runner.bad
    if bad:
        print("correctness check failed:\n  " + "\n  ".join(bad[:20]),
              file=sys.stderr)
        attempted, ok, _ = _request_counts(runner.warm if passes else [])
        print(json.dumps(dict(correct=False, attempted=max(attempted, 1),
                              failed=attempted - ok, metrics={})))
        return 1

    if args.trace:
        metrics = per_layer(runner, passes, value_dev)
        runner.tracer.save(OUT_DIR / f"{workload.name}.npz")
    else:
        metrics = end_to_end(runner, passes, setup_s)
    _summary(runner, passes, metrics)
    attempted, ok, _ = _request_counts(runner.warm)
    print(json.dumps(dict(correct=True, attempted=attempted,
                          failed=attempted - ok, metrics=metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
