"""Self-tests of the benchmark harness, at tiny instance sizes.

    python3 -m pytest -q benchmarks/test_selftest.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_program()

import workloads  # noqa: E402
from commopt import commsim  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_workload_emits_every_metric(name):
    result, detail = run.run(name, seed=3, seconds=0.01, trace=False, tiny=True)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == list(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())

    result, detail = run.run(name, seed=3, seconds=0.01, trace=True, tiny=True)
    assert result["correct"] and detail["deterministic"]
    assert list(result["metrics"]) == list(run.PER_LAYER_UNITS)


def test_corrupted_outcome_raises_fail_frac(monkeypatch):
    original = commsim.run_protocol

    def corrupted(name, instance, **kwargs):
        outcome, transcript = original(name, instance, **kwargs)
        if name == "lp-clarkson" and outcome.value is not None:
            outcome.value += 1
        return outcome, transcript

    monkeypatch.setattr(commsim, "run_protocol", corrupted)
    result, detail = run.run("lp-exact", seed=3, seconds=0.01, trace=False, tiny=True)
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["pass_frac"]["value"] < 1.0
    assert {f["protocol"] for f in detail["failures"]} == {"lp-clarkson"}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_and_untraced_outcomes_identical(name):
    runs, insts, _, _, _ = run.make_instances(workloads.WORKLOADS[name], 5, tiny=True)
    untraced = run.execute(runs, insts, 5)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.execute(runs, insts, 5)
    finally:
        tracer.uninstall()
    assert run.fingerprint(traced) == run.fingerprint(untraced)
    assert tracer.snapshot()["layers"]["commsim.validate_transcript"]["calls"] == len(runs)
    # Every wrapper is gone again.
    assert not hasattr(commsim.run_protocol, "__wrapped__")


def test_clock_scales_each_step_by_the_slices_around_it(monkeypatch):
    import calib

    slices = iter([0.002, 0.002, 0.004])
    monkeypatch.setattr(calib, "ref_slice", lambda: next(slices))
    clock = calib.Clock()
    clock.start()
    raw, scaled = clock.stop()
    assert scaled == pytest.approx(raw * calib.REF_NOMINAL_S / 0.002)
    clock.start()
    raw, scaled = clock.stop()  # slices 0.002 before, 0.004 after
    assert scaled == pytest.approx(raw * calib.REF_NOMINAL_S / 0.003)


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert len(spec["per_layer"]) <= 128


def test_protocol_functions_match_registry():
    from commopt import registry

    for proto, name in run.PROTOCOL_FUNCS.items():
        fn = registry.lookup(proto).fn
        assert f"{fn.__module__.split('.')[-1]}.{fn.__name__}" == name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "lp-exact", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
