"""CLI surface: gen / run / bench, exit codes, CSV outputs."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from commopt.cli import main
from commopt.config import DEFAULTS, Constants

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(args):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "commopt.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return proc


def test_every_constant_is_scaled_by_a_multiplier():
    """Every Constants field is reachable from the --mult-c/-k/-r flags."""
    scaled = DEFAULTS.with_multipliers(2, 2, 2)
    for field in dataclasses.fields(Constants):
        assert getattr(scaled, field.name) != getattr(DEFAULTS, field.name), field.name


def test_gen_writes_file_with_hash(tmp_path):
    out = tmp_path / "a.json"
    code = main(["gen", "--kind", "linsys", "--n", "8", "--d", "3", "--L", "8",
                 "--s", "2", "--seed", "1", "-o", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["n"] == 8 and doc["d"] == 3


def test_gen_deterministic_hash(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    main(["gen", "--kind", "linsys", "--n", "8", "--d", "3", "--L", "8", "--s", "2",
          "--seed", "1", "-o", str(out1)])
    first = capsys.readouterr().out
    main(["gen", "--kind", "linsys", "--n", "8", "--d", "3", "--L", "8", "--s", "2",
          "--seed", "1", "-o", str(out2)])
    second = capsys.readouterr().out
    assert first.split("sha256=")[1] == second.split("sha256=")[1]


def test_gen_underdetermined_accepted(tmp_path):
    out = tmp_path / "u.json"
    code = main(["gen", "--kind", "linsys", "--n", "2", "--d", "3", "--L", "4",
                 "--s", "1", "-o", str(out)])
    assert code == 0


def test_run_prints_solution_and_bits(tmp_path, capsys):
    inst = tmp_path / "a.json"
    main(["gen", "--kind", "linsys", "--n", "6", "--d", "2", "--L", "6", "--s", "2",
          "--seed", "3", "-o", str(inst)])
    capsys.readouterr()
    code = main(["run", "--protocol", "linsys-det", "--input", str(inst)])
    out = capsys.readouterr().out
    assert code == 0
    assert "status:     SOLVED" in out
    assert "total_bits:" in out
    bits = int(next(l for l in out.splitlines() if l.startswith("total_bits")).split()[1])
    assert bits > 0


def test_run_objective_matches_recomputation(tmp_path, capsys):
    inst_path = tmp_path / "r.json"
    main(["gen", "--kind", "regression", "--n", "10", "--d", "2", "--L", "5", "--s", "2",
          "--seed", "5", "-o", str(inst_path)])
    capsys.readouterr()
    main(["run", "--protocol", "l2-exact", "--input", str(inst_path)])
    out = capsys.readouterr().out
    printed = float(next(l for l in out.splitlines() if l.startswith("objective")).split()[1])

    from commopt.commsim import run_protocol
    from commopt.instances import read_instance

    outcome, _ = run_protocol("l2-exact", read_instance(str(inst_path)))
    assert printed == outcome.value


def test_run_deterministic(tmp_path, capsys):
    inst = tmp_path / "lp.json"
    main(["gen", "--kind", "lp", "--n", "12", "--d", "2", "--L", "5", "--s", "2",
          "--seed", "2", "-o", str(inst)])
    capsys.readouterr()
    main(["run", "--protocol", "lp-clarkson", "--input", str(inst), "--seed", "7"])
    first = capsys.readouterr().out
    main(["run", "--protocol", "lp-clarkson", "--input", str(inst), "--seed", "7"])
    second = capsys.readouterr().out

    def strip_wall(text):
        return [l for l in text.splitlines() if not l.startswith("wall_time")]

    assert strip_wall(first) == strip_wall(second)


def test_run_infeasible_exits_zero(tmp_path):
    doc = {
        "kind": "linsys", "n": 2, "d": 1, "L": 2, "s": 2,
        "A": [["1"], ["1"]], "b": ["1", "2"], "c": None,
        "partition": [1, 2], "sense": "max",
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--protocol", "linsys-det", "--input", str(path)]) == 0


def test_env_var_default_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COMMOPT_SEED", "42")
    out1 = tmp_path / "a.json"
    main(["gen", "--kind", "linsys", "--n", "6", "--d", "2", "--L", "5", "--s", "2",
          "-o", str(out1)])
    monkeypatch.setenv("COMMOPT_SEED", "43")
    out2 = tmp_path / "b.json"
    main(["gen", "--kind", "linsys", "--n", "6", "--d", "2", "--L", "5", "--s", "2",
          "-o", str(out2)])
    capsys.readouterr()
    assert out1.read_text() != out2.read_text()


def test_exit_codes(tmp_path):
    usage = run_cli(["run", "--protocol", "nonsense", "--input", "x.json"])
    assert usage.returncode == 2  # argparse rejects unknown choice
    parse = run_cli(["run", "--protocol", "linsys-det", "--input", "/nonexistent.json"])
    assert parse.returncode == 3

    big = tmp_path / "big.json"
    main(["gen", "--kind", "lp", "--n", "200", "--d", "4", "--L", "5", "--s", "2",
          "--seed", "1", "-o", str(big)])
    guard = run_cli(["run", "--protocol", "lp-oracle", "--input", str(big)])
    assert guard.returncode == 4

    reg = tmp_path / "reg.json"
    main(["gen", "--kind", "regression", "--n", "6", "--d", "2", "--L", "4", "--s", "2",
          "--seed", "10", "-o", str(reg)])
    for flags in (["lp-embed", "--p", "2"], ["lp-embed", "--eps", "1.5"], ["l2-sampled", "--eps", "3"]):
        assert main(["run", "--input", str(reg), "--protocol", *flags]) == 2, flags
    # sum |r|^400 at the least-squares fit overflows doubles
    assert main(["run", "--input", str(reg), "--protocol", "lp-embed", "--p", "400"]) == 4


def test_transcript_csv_is_strict_rfc4180(tmp_path, capsys):
    inst = tmp_path / "a.json"
    main(["gen", "--kind", "linsys", "--n", "6", "--d", "2", "--L", "6", "--s", "2",
          "--seed", "3", "-o", str(inst)])
    trans = tmp_path / "t.csv"
    main(["run", "--protocol", "linsys-det", "--input", str(inst), "--csv", str(trans)])
    capsys.readouterr()
    with open(trans, newline="") as fh:
        rows = list(csv.reader(fh, strict=True))
    assert rows[0] == ["index", "from", "to", "kind", "bits"]
    assert rows[-1][0] == "total"


def test_bench_csv_shape(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main([
        "bench", "--protocol", "linsys-det", "--sweep", "s", "--values", "2,3,4",
        "--seeds", "2", "--kind", "linsys", "--n", "12", "--d", "3", "--L", "6",
        "-o", str(out),
    ])
    assert code == 0
    capsys.readouterr()
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh, strict=True))
    assert rows[0] == ["protocol", "sweep", "value", "seed", "total_bits", "rounds", "correct"]
    assert len(rows) == 1 + 3 * 2
    assert all(row[6] == "1" for row in rows[1:])


def test_bench_bits_column_matches_transcript(tmp_path, capsys):
    bench_out = tmp_path / "b.csv"
    main([
        "bench", "--protocol", "linsys-det", "--sweep", "s", "--values", "3",
        "--seeds", "1", "--kind", "linsys", "--n", "12", "--d", "3", "--L", "6",
        "--seed-base", "0", "-o", str(bench_out),
    ])
    capsys.readouterr()
    with open(bench_out, newline="") as fh:
        row = list(csv.reader(fh))[1]

    from commopt.commsim import run_protocol
    from commopt.instances import GenSpec, gen_random

    inst = gen_random(GenSpec("linsys", n=12, d=3, L=6, s=3, seed=0)).repartitioned(3)
    _, transcript = run_protocol("linsys-det", inst, seed=0)
    assert int(row[4]) == transcript.total_bits


@pytest.mark.parametrize("sweep, values", [("s", "2,0"), ("s", "2,-2"), ("L", "0"), ("d", "x")])
def test_bench_rejects_bad_values_as_usage_errors(capsys, sweep, values):
    code = main([
        "bench", "--protocol", "linsys-det", "--sweep", sweep, "--values", values,
        "--seeds", "1", "--kind", "linsys", "--n", "12", "--d", "3", "--L", "6",
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_bench_maps_protocol_value_errors_to_usage(capsys):
    # linsys-solve-rand runs in coordinator mode only: run_protocol raises ProtocolError.
    code = main([
        "bench", "--protocol", "linsys-solve-rand", "--sweep", "s", "--values", "2",
        "--seeds", "1", "--mode", "blackboard", "--n", "12", "--d", "3", "--L", "6",
    ])
    assert code == 2
    assert "does not support mode" in capsys.readouterr().err


@pytest.mark.parametrize(
    "protocol, kind, n, d, L",
    [("leverage", "regression", 12, 2, 4), ("lp-cog", "lp", 6, 1, 3)],
)
def test_bench_judges_each_protocol_by_its_own_oracle(tmp_path, capsys, protocol, kind, n, d, L):
    out = tmp_path / "bench.csv"
    code = main([
        "bench", "--protocol", protocol, "--sweep", "s", "--values", "2", "--seeds", "2",
        "--kind", kind, "--n", str(n), "--d", str(d), "--L", str(L), "-o", str(out),
    ])
    assert code == 0
    capsys.readouterr()
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh, strict=True))[1:]
    assert len(rows) == 2
    assert all(row[6] == "1" for row in rows)


def test_run_does_not_mask_type_errors_inside_a_protocol(tmp_path, monkeypatch, capsys):
    from commopt import registry

    def unpriceable(instance, net, stream, cfg):
        net.to_coordinator(1, "text", "not a number")

    inst = tmp_path / "a.json"
    main(["gen", "--kind", "linsys", "--n", "4", "--d", "2", "--L", "4", "--s", "2", "-o", str(inst)])
    table = {name: registry.lookup(name) for name in registry.names()}
    table["linsys-det"] = registry.Entry(unpriceable, registry.BOTH)
    monkeypatch.setattr(registry, "_REGISTRY", table)
    with pytest.raises(TypeError, match="unpriceable payload"):
        main(["run", "--protocol", "linsys-det", "--input", str(inst)])
