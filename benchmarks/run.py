"""commopt benchmark: workloads measured end to end or traced per layer.

    python3 benchmarks/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from ./src.
The workload's fixed run list is generated from --seed, then executed back to
back by a single caller (closed loop, nothing concurrent) in repeated passes
until --seconds have been measured.  Every pass times each protocol run and,
separately, each centralized oracle check of its outcome; `wall_s` and
`check_s` sum, over the run list, each call's median time across passes.
Every timed step is scaled to reference machine speed by the reference slices
taken around it (see calib.py).

With --trace 0 the last stdout line holds the end-to-end metrics.  With
--trace 1 half the time is measured untraced and half with every public
function of the traced modules wrapped in a span; the last line then holds
the per-layer metrics.  Machine details and full results are printed before
the last line and written to .bench_out/.
"""

from __future__ import annotations

import os

# One thread for every BLAS/OpenMP pool, set before numpy is first imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calib  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

WORKLOAD_NAMES = ("linsys-exact", "lp-exact", "regression-sampled", "cog-hit-and-run")
MIN_PASSES = 3
SETUP_REPEATS = 3
# The import is timed in this process and again in this many fresh ones.
IMPORT_PROBES = 2

END_TO_END_UNITS = {
    "wall_s": "s",
    "check_s": "s",
    "setup_s": "s",
    "bits": "bit",
    "rounds": "count",
    "max_msg_bits": "bit",
    "pass_frac": "frac",
    "peak_rss_mb": "MB",
}

# Protocol name -> the module function the registry dispatches to.
PROTOCOL_FUNCS = {
    "linsys-det": "linsys.det_solve",
    "linsys-feas-rand": "linsys.rand_feasibility",
    "linsys-solve-rand": "linsys.rand_solve",
    "l2-exact": "regression.l2_exact",
    "leverage": "rowsample.leverage_protocol_entry",
    "lewis": "rowsample.lewis_protocol_entry",
    "l2-sampled": "regression.l2_sampled",
    "l1-simple": "regression.l1_simple",
    "l1-lewis": "regression.l1_lewis",
    "l1-agd": "regression.l1_agd",
    "lp-embed": "regression.lp_regression",
    "lp-clarkson": "lpsolve.clarkson",
    "lp-seidel": "lpsolve.seidel",
    "lp-smoothed": "lpsolve.smoothed_clarkson",
    "linf": "regression.linf_regression",
    "lp-cog": "lpsolve.center_of_gravity",
}

# Layer functions reported with .calls and .self_s.
LAYER_FUNCS = (
    "exactnum.RowBasis.insert",
    "exactnum.AugmentedBasis.classify",
    "exactnum.rank_and_solve",
    "exactnum.min_norm_least_squares",
    "exactnum.leverage_scores",
    "exactnum.BitCostModel.matrix_bits",
    "exactnum.BitCostModel.vector_bits",
    "commsim.Network.payload_bits",
    "commsim.validate_transcript",
    "lpsolve.solve_lp",
    "lpsolve.lp_exact_oracle",
    "lpsolve.solve_lp_enumerate",
    "regression.l1_minimize_exact",
    "regression.l1_exact_oracle",
    "regression.gradient_exchange",
    "regression.lp_embed_reduce",
    "rowsample.leverage_scores_float",
    "rowsample.lewis_weights_local",
    "rowsample.leverage_protocol",
    "instances.Instance.rows_of",
)

PER_LAYER_UNITS = {}
for _f in LAYER_FUNCS:
    PER_LAYER_UNITS[f"{_f}.calls"] = "count"
    PER_LAYER_UNITS[f"{_f}.self_s"] = "s"
for _f in PROTOCOL_FUNCS.values():
    PER_LAYER_UNITS[f"{_f}.self_s"] = "s"
PER_LAYER_UNITS.update(
    {
        "commsim.msgs": "count",
        "rng.Stream.draws": "count",
        "rng.Stream.self_s": "s",
        "lpsolve.oracle.subsets": "count",
        "lpsolve.cog.round_s": "s",
        "linsys.probe_accept_ratio": "ratio",
        "instances.gen_random.self_s": "s",
        "instances.json_roundtrip_s": "s",
        "unattributed_s": "s",
        "trace.overhead_s": "s",
    }
)
for _p in PROTOCOL_FUNCS:
    PER_LAYER_UNITS[f"proto.{_p}.run_s"] = "s"
    PER_LAYER_UNITS[f"proto.{_p}.bits"] = "bit"


class SetupError(RuntimeError):
    """The program cannot be imported from this checkout."""


def import_program():
    """Import commopt from ROOT/src and the benchmark's own modules; returns seconds taken."""
    started = time.perf_counter()
    src = ROOT / "src"
    if not (src / "commopt" / "__init__.py").is_file():
        raise SetupError(f"no commopt package under {src}")
    sys.path.insert(0, str(src))
    import commopt

    if Path(commopt.__file__).resolve().parent != (src / "commopt").resolve():
        raise SetupError(f"commopt imported from {commopt.__file__}, not from {src}")
    for mod in ("commsim", "exactnum", "instances", "linsys", "lpsolve", "regression", "rowsample", "rng"):
        importlib.import_module(f"commopt.{mod}")
    importlib.import_module("scipy.optimize")  # lp-embed imports it on first use
    importlib.import_module("workloads")
    return time.perf_counter() - started


# A fresh interpreter imports the program and prints the seconds it took.
_IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import run; print(run.import_program())"


def import_seconds(probes: int) -> list:
    """Import time of the program in `probes` fresh interpreters, one after another.

    The times stay raw: import time follows none of the reference slices
    (see calib.py).
    """
    seconds = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(BENCH_DIR)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        seconds.append(float(proc.stdout.splitlines()[-1]))
    return seconds


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


# ---------------------------------------------------------------------------
# Setup and passes
# ---------------------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def make_instances(wl, seed: int, tiny: bool = False):
    """Generate the workload's instances and pass them through the JSON format.

    Returns (runs, instances, generation seconds, round-trip seconds, round-trip
    ok); each time is a pair (raw, at reference speed).
    """
    from commopt import instances
    import workloads

    clock = calib.Clock(slices=3)
    clock.start()
    recipes, runs = wl.build(seed, tiny)
    generated = {key: workloads.make_instance(r) for key, r in recipes.items()}
    gen = clock.stop()
    clock.start()
    loaded = {
        key: instances.instance_from_json(instances.instance_to_json(inst))
        for key, inst in generated.items()
    }
    roundtrip = clock.stop()
    same = all(loaded[key] == generated[key] for key in generated)
    return runs, loaded, gen, roundtrip, same


def proto_seed(seed: int, i: int) -> int:
    return 1_000_003 * seed + i


def execute(runs, insts, seed: int):
    """One pass: run every protocol back to back, then check every outcome.

    Returns the pass's wall and check seconds and one summary per run: its
    run and check seconds, bits, rounds, largest message, signature, pass/fail.
    Times are at reference speed; the raw ones are kept under `raw_*`.
    """
    from commopt import commsim
    import workloads

    records = []
    gc.collect()  # every pass starts from the same collector state
    clock = calib.Clock()
    for i, run in enumerate(runs):
        clock.start()
        try:
            outcome, transcript = commsim.run_protocol(
                run.protocol, insts[run.inst], mode=run.mode, seed=proto_seed(seed, i), **dict(run.params)
            )
            error = None
        except Exception as exc:  # a raising run is a failed operation, not a crash
            outcome, transcript, error = None, None, f"{type(exc).__name__}: {exc}"
        records.append([run, outcome, transcript, error, clock.stop()])

    checker = workloads.Checker(insts)
    summaries = []
    for run, outcome, transcript, error, (raw, elapsed) in records:
        clock.start()
        ok = False
        if error is None:
            try:
                ok = bool(checker.check(run, outcome))
            except Exception:  # an outcome the oracle cannot read fails its check
                pass
        raw_check, check = clock.stop()
        summary = {
            "protocol": run.protocol,
            "ok": ok,
            "time_s": elapsed,
            "check_s": check,
            "raw_time_s": raw,
            "raw_check_s": raw_check,
        }
        if error is not None:
            summary["error"] = error
        else:
            msgs = transcript.messages
            summary.update(
                bits=sum(m.bits for m in msgs),
                rounds=transcript.rounds,
                max_msg_bits=max((m.bits for m in msgs), default=0),
                msgs=len(msgs),
                promote=sum(1 for m in msgs if m.kind == "promote"),
                probes=sum(1 for m in msgs if m.kind == "combo-mod-p"),
                signature=outcome.signature(),
            )
        summaries.append(summary)
    return {
        "wall_s": sum(r["time_s"] for r in summaries),
        "check_s": sum(r["check_s"] for r in summaries),
        "raw_s": sum(r["raw_time_s"] + r["raw_check_s"] for r in summaries),
        "runs": summaries,
    }


def fingerprint(p: dict) -> list:
    keys = ("protocol", "bits", "rounds", "max_msg_bits", "signature", "ok", "error")
    return [tuple(r.get(k) for k in keys) for r in p["runs"]]


def measure(runs, insts, seed: int, seconds: float, min_passes: int):
    """Passes back to back until `seconds` are used, never fewer than min_passes."""
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(execute(runs, insts, seed))
        used = time.perf_counter() - started
        if len(passes) >= min_passes and used + used / len(passes) > seconds:
            return passes


def misses_allowed(summaries) -> bool:
    """Exact paths may miss nothing; approximate ones their acceptance allowance."""
    import workloads

    attempts: dict[str, int] = {}
    misses: dict[str, int] = {}
    for r in summaries:
        if "error" in r:
            return False
        attempts[r["protocol"]] = attempts.get(r["protocol"], 0) + 1
        misses[r["protocol"]] = misses.get(r["protocol"], 0) + (not r["ok"])
    for proto, n in attempts.items():
        share = workloads.MISS_ALLOWANCE.get(proto, 0.0)
        if misses[proto] > math.ceil(share * n):
            return False
    return True


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def robust_time(passes, key: str) -> float:
    """Sum over the run list of each run's median time across passes.

    Identical passes differ only by machine noise, which comes in bursts; a
    per-run median discards a burst that hits one run in a minority of passes.
    """
    per_run = zip(*[[r[key] for r in p["runs"]] for p in passes])
    return sum(statistics.median(times) for times in per_run)


def end_to_end(passes, setup_s: float):
    """End-to-end metric values, runs attempted and runs failed."""
    first = passes[0]["runs"]
    attempted = len(first) * len(passes)
    failed = sum(not r["ok"] for p in passes for r in p["runs"])
    values = {
        "wall_s": robust_time(passes, "time_s"),
        "check_s": robust_time(passes, "check_s"),
        "setup_s": setup_s,
        "bits": sum(r.get("bits", 0) for r in first),
        "rounds": sum(r.get("rounds", 0) for r in first),
        "max_msg_bits": max((r.get("max_msg_bits", 0) for r in first), default=0),
        "pass_frac": 1.0 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, attempted, failed


def per_protocol(passes) -> dict:
    """Median per-run seconds and per-pass bits of each protocol."""
    out = {}
    for p in PROTOCOL_FUNCS:
        times = [r["time_s"] for ps in passes for r in ps["runs"] if r["protocol"] == p]
        bits = sum(r.get("bits", 0) for r in passes[0]["runs"] if r["protocol"] == p)
        out[p] = {"run_s": median(times), "bits": bits, "runs": len(times) // len(passes)}
    return out


def per_layer(untraced, traced, snapshots, setup_gen_snapshot, json_s) -> dict:
    first = snapshots[0]["layers"]
    values = {}
    for f in LAYER_FUNCS:
        values[f"{f}.calls"] = first.get(f, {}).get("calls", 0)
        values[f"{f}.self_s"] = median([s["layers"].get(f, {}).get("self_s", 0.0) for s in snapshots])
    for f in PROTOCOL_FUNCS.values():
        values[f"{f}.self_s"] = median([s["layers"].get(f, {}).get("self_s", 0.0) for s in snapshots])
    runs0 = untraced[0]["runs"]
    promote = sum(r.get("promote", 0) for r in runs0 if r["protocol"] == "linsys-solve-rand")
    probes = sum(r.get("probes", 0) for r in runs0 if r["protocol"] == "linsys-solve-rand")
    cog_rounds = sum(r.get("rounds", 0) for r in runs0 if r["protocol"] == "lp-cog")
    cog_times = [
        sum(r["time_s"] for r in p["runs"] if r["protocol"] == "lp-cog") for p in untraced
    ]
    values.update(
        {
            "commsim.msgs": sum(r.get("msgs", 0) for r in runs0),
            "rng.Stream.draws": snapshots[0]["stream_draws"],
            "rng.Stream.self_s": median([s["stream_self_s"] for s in snapshots]),
            "lpsolve.oracle.subsets": snapshots[0]["oracle_subsets"],
            "lpsolve.cog.round_s": median(cog_times) / cog_rounds if cog_rounds else 0.0,
            "linsys.probe_accept_ratio": promote / probes if probes else 0.0,
            "instances.gen_random.self_s": setup_gen_snapshot["layers"]
            .get("instances.gen_random", {})
            .get("self_s", 0.0),
            "instances.json_roundtrip_s": json_s,
            "unattributed_s": median(
                [p["wall_s"] + p["check_s"] - s["total_self_s"] for p, s in zip(traced, snapshots)]
            ),
            "trace.overhead_s": robust_time(traced, "time_s") - robust_time(untraced, "time_s"),
        }
    )
    for p, info in per_protocol(untraced).items():
        values[f"proto.{p}.run_s"] = info["run_s"]
        values[f"proto.{p}.bits"] = info["bits"]
    return values


def scaled_snapshot(snap: dict, factor: float) -> dict:
    """A tracer snapshot with every self time multiplied by `factor`."""
    return {
        **snap,
        "layers": {
            name: {"calls": v["calls"], "self_s": v["self_s"] * factor} for name, v in snap["layers"].items()
        },
        "stream_self_s": snap["stream_self_s"] * factor,
        "total_self_s": snap["total_self_s"] * factor,
    }


def with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, import_s: float = 0.0, tiny: bool = False):
    """Set up and measure one workload; returns (result line, details).

    `import_s` is the program's import time, counted in `setup_s`.  `tiny`
    shrinks every instance so the self-tests can run each workload in a
    second; the benchmark itself always runs the full sizes.
    """
    import workloads

    wl = workloads.WORKLOADS[workload]
    setups = [make_instances(wl, seed, tiny) for _ in range(SETUP_REPEATS)]
    runs, insts = setups[-1][0], setups[-1][1]
    roundtrip_ok = all(s[4] for s in setups)
    json_s = median([s[3][1] for s in setups])
    warm = execute(runs[:1], insts, seed)
    warm_s = warm["wall_s"] + warm["check_s"]
    setup_s = import_s + median([s[2][1] + s[3][1] for s in setups]) + warm_s

    if not trace:
        passes = measure(runs, insts, seed, seconds, MIN_PASSES)
        traced = snapshots = []
    else:
        from tracer import Tracer

        passes = measure(runs, insts, seed, seconds / 2, 2)
        tracer = Tracer()
        tracer.install()
        try:
            gen = make_instances(wl, seed, tiny)[2]
            setup_snapshot = scaled_snapshot(tracer.snapshot(), gen[1] / gen[0])
            traced, snapshots = [], []
            started = time.perf_counter()
            while not traced or time.perf_counter() - started < seconds / 2:
                tracer.reset()
                p = execute(runs, insts, seed)
                traced.append(p)
                snapshots.append(scaled_snapshot(tracer.snapshot(), (p["wall_s"] + p["check_s"]) / p["raw_s"]))
        finally:
            tracer.uninstall()

    reference = fingerprint(passes[0])
    deterministic = all(fingerprint(p) == reference for p in passes + traced) and (
        fingerprint(warm) == reference[:1]
    )
    e2e, attempted, failed = end_to_end(passes, setup_s)
    correct = roundtrip_ok and deterministic and misses_allowed(passes[0]["runs"])
    if trace:
        metrics = with_units(per_layer(passes, traced, snapshots, setup_snapshot, json_s), PER_LAYER_UNITS)
        attempted += len(runs) * len(traced)
        failed += sum(not r["ok"] for p in traced for r in p["runs"])
    else:
        metrics = with_units(e2e, END_TO_END_UNITS)
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(),
        "setup": {
            "import_s": import_s,
            "generate_s": [s[2] for s in setups],
            "json_roundtrip_s": [s[3] for s in setups],
            "warmup_s": warm_s,
            "repeats": SETUP_REPEATS,
        },
        "ref_nominal_s": calib.REF_NOMINAL_S,
        "passes": len(passes),
        "run_times_s": [[r["time_s"] for r in p["runs"]] for p in passes],
        "check_times_s": [[r["check_s"] for r in p["runs"]] for p in passes],
        "raw_run_times_s": [[r["raw_time_s"] for r in p["runs"]] for p in passes],
        "raw_check_times_s": [[r["raw_check_s"] for r in p["runs"]] for p in passes],
        "traced_passes": len(traced),
        "deterministic": deterministic,
        "json_roundtrip_ok": roundtrip_ok,
        "end_to_end": e2e,
        "protocols": per_protocol(passes),
        "failures": [r for r in passes[0]["runs"] if not r["ok"]],
    }
    if trace:
        detail["layers"] = snapshots[0]["layers"]
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(str(OUT_DIR / f"spans-{workload}-seed{seed}.json"))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
        help="one workload, or all of them in turn in this process",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        first_import_s = import_program()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    imports = [first_import_s] + import_seconds(IMPORT_PROBES)
    import_s = median(imports)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    OUT_DIR.mkdir(exist_ok=True)
    results = {}
    for name in names:
        result, detail = run(name, args.seed, args.seconds, bool(args.trace), import_s)
        detail["setup"]["import_samples_s"] = imports
        results[name] = result
        out_file = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out_file.write_text(json.dumps({"result": result, "detail": detail}, indent=1, default=str) + "\n")
        print("env " + json.dumps(detail["env"], sort_keys=True))
        for proto, info in detail["protocols"].items():
            if info["runs"]:
                print(f"{name} protocol {proto}: {info['runs']} runs/pass, median run {info['run_s']:.6f} s, {info['bits']} bits")
        for metric, m in result["metrics"].items():
            print(f"{name} {metric} = {m['value']} {m['unit']}")
        print(f"{name}: correct {result['correct']}, {result['failed']} of {result['attempted']} runs failed, "
              f"{detail['passes']} passes, {detail['traced_passes']} traced passes, details in {out_file}")
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
