"""Tests of the benchmark itself: output contract, seeded generators,
self-time accounting and the correctness gates."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracer import LAYERS, Patcher, Tracer  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _run(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "references",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=BENCH.parent)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    result = _run(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    # each distinct request counts once, however many passes were timed
    assert result["attempted"] == workloads.WORKLOADS["references"].STEPS
    assert result["failed"] == 0
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}
    if trace:
        layers = sum(result["metrics"][f"{layer}.self_s"]["value"]
                     for layer in LAYERS)
        assert layers <= result["metrics"]["trace.pass_s"]["value"]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generator_is_deterministic_for_a_seed(name):
    workload = workloads.WORKLOADS[name]
    first = workload.generate(7)
    assert first == workload.generate(7)
    assert first != workload.generate(8)
    json.dumps(first)  # plain data only: the program receives the inputs


def test_point_sweep_keeps_the_overflow_region():
    sweep = workloads.WORKLOADS["point-sweep"]
    for seed in range(20):
        points = sweep.generate(seed)
        assert any(D == 8 and theta > 100.0 for _, D, theta in points)
        assert min(t for *_, t in points) < 0.1 and max(g for g, *_ in points) > 3.0


def _nested_calls():
    import types

    mod = types.SimpleNamespace()

    def leaf(x):
        time.sleep(0.002)
        return x

    def middle(x):
        time.sleep(0.001)
        return mod.leaf(x) + mod.leaf(x)

    def top(x):
        return mod.middle(x) + mod.leaf(x)

    mod.leaf, mod.middle, mod.top = leaf, middle, top
    return mod


def test_self_times_add_up_to_no_more_than_the_wall_time():
    mod = _nested_calls()
    tracer = Tracer()
    patcher = Patcher()
    for name in ("leaf", "middle", "top"):
        patcher.set(mod, name, tracer.wrap(f"toy.{name}", getattr(mod, name)))
    t0 = time.perf_counter()
    for i in range(5):
        tracer.request = i
        mod.top(1.0)
    wall = time.perf_counter() - t0
    patcher.restore()

    own = tracer.self_times()
    assert (own >= 0.0).all()
    assert own.sum() <= wall
    totals = tracer.totals()
    assert totals["toy.leaf"][0] == 15 and totals["toy.top"][0] == 5
    # self time excludes the children: top does no work of its own
    assert totals["toy.top"][2] < 0.2 * totals["toy.top"][1]
    assert tracer.calls_within("toy.leaf", "toy.middle") == 10
    assert set(tracer.request_id) == set(range(5))


def test_tracer_patches_every_import_site_and_restores_it():
    sct = workloads.import_sct()
    originals = {m: dict(vars(m)) for m in (sct, sct.paths, sct.fluctuations,
                                            sct.thermo, sct.cli)}
    tracer = Tracer()
    patcher = Patcher()
    tracer.install(patcher)
    try:
        for module in (sct.paths, sct.fluctuations, sct.thermo):
            assert module.jacobi_sn_cn_dn.__wrapped__ is originals[sct.paths]["jacobi_sn_cn_dn"]
        assert sct.thermo._det_longitudinal_closed.__wrapped__ is \
            originals[sct.fluctuations]["_det_longitudinal_closed"]
        assert sct.cli.z2_quartic is sct.thermo.z2_quartic is sct.z2_quartic
    finally:
        patcher.restore()
    for module, before in originals.items():
        assert all(vars(module)[k] is v for k, v in before.items())
    assert "__wrapped__" not in vars(sct.paths.QuarticPath.position)


def test_gate_trips_on_a_perturbed_pinned_value():
    workloads.import_sct()
    references = workloads.WORKLOADS["references"]
    pins = workloads.load_pins()
    checks, bad = references.gates()
    dev, off = workloads.compare_pins(checks, pins["references"])
    assert not bad and not off and dev <= 1.0

    key, value, tol = checks[0]
    perturbed = dict(pins["references"], **{key: value + 2.0 * tol})
    dev, off = workloads.compare_pins(checks, perturbed)
    assert dev > 1.0 and len(off) == 1 and off[0].startswith(key)

    _, off = workloads.compare_pins(checks, {})
    assert len(off) == len(checks)

    dev, bad = workloads.run_gates(references, dict(pins, references=perturbed))
    assert dev > 1.0 and bad
