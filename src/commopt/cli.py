"""Command-line harness: instance generation, protocol runs, benchmark sweeps judged by `oracles.check`.

Exit codes: 0 completed (including INFEASIBLE verdicts), 2 usage errors,
3 parse failures, 4 internal size guards.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import os
import sys
import time

from . import oracles, registry
from .commsim import run_protocol
from .config import DEFAULTS
from .instances import GenSpec, gen_random, read_instance, write_instance
from .lpsolve import SizeGuardError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_GUARD = 4


def _default_seed() -> int:
    return int(os.environ.get("COMMOPT_SEED", "0"))


def cmd_gen(args) -> int:
    spec = GenSpec(
        kind=args.kind,
        n=args.n,
        d=args.d,
        L=args.L,
        s=args.s,
        seed=args.seed,
        feasible=not args.infeasible,
        partition_policy=args.partition,
    )
    try:
        inst = gen_random(spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    digest = write_instance(inst, args.output)
    print(f"wrote {args.output} ({inst.n}x{inst.d}, s={inst.s}) sha256={digest}")
    return EXIT_OK


def cmd_run(args) -> int:
    try:
        inst = read_instance(args.input)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    cfg = DEFAULTS.with_multipliers(args.mult_c, args.mult_k, args.mult_r)
    params = {}
    if args.eps is not None:
        params["eps"] = args.eps
    if args.p is not None:
        params["p"] = args.p
    try:
        inspect.signature(registry.lookup(args.protocol).fn).bind(inst, None, None, cfg, **params)
    except TypeError as exc:
        print(f"error: protocol {args.protocol!r} rejects these flags: {exc}", file=sys.stderr)
        return EXIT_USAGE
    started = time.perf_counter()
    try:
        outcome, transcript = run_protocol(
            args.protocol, inst, mode=args.mode, seed=args.seed, cfg=cfg, **params
        )
    except ValueError as exc:  # a ProtocolError, or a parameter out of range
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    elapsed = time.perf_counter() - started

    print(f"protocol:   {args.protocol} [{args.mode}]")
    print(f"status:     {outcome.status}")
    if outcome.x is not None:
        shown = ", ".join(str(v) for v in outcome.x[:8])
        more = " ..." if len(outcome.x) > 8 else ""
        print(f"solution:   ({shown}{more})")
    if outcome.value is not None:
        print(f"objective:  {outcome.value}")
    print(f"total_bits: {transcript.total_bits}")
    print(f"rounds:     {transcript.rounds}")
    print(f"wall_time:  {elapsed:.4f}s")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            fh.write(transcript.to_csv())
        print(f"transcript: {args.csv}")
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = DEFAULTS.with_multipliers(args.mult_c, args.mult_k, args.mult_r)
    try:
        values = [int(v) for v in args.values.split(",")]
        if min(values) < 1:
            raise ValueError
    except ValueError:
        print("error: --values must be a comma-separated list of positive integers", file=sys.stderr)
        return EXIT_USAGE

    sig = inspect.signature(registry.lookup(args.protocol).fn).parameters.values()
    params = {p.name: p.default for p in sig if p.default is not p.empty}
    cache: dict = {}
    rows_out = ["protocol,sweep,value,seed,total_bits,rounds,correct"]
    base_spec = GenSpec(args.kind, args.n, args.d, args.L, args.s, args.seed_base)
    for value in values:
        # An s-sweep deals one instance body, generated for the largest s, to `value` servers.
        swept = {"s": max(values)} if args.sweep == "s" else {args.sweep: value}
        for seed in range(args.seeds):
            spec = dataclasses.replace(base_spec, seed=args.seed_base + seed, **swept)
            try:
                try:
                    inst = gen_random(spec)
                    if args.sweep == "s":
                        inst = inst.repartitioned(value)
                    outcome, transcript = run_protocol(
                        args.protocol, inst, mode=args.mode, seed=seed, cfg=cfg
                    )
                except ValueError as exc:  # a bad spec, a ProtocolError, or a parameter out of range
                    print(f"error: {exc}", file=sys.stderr)
                    return EXIT_USAGE
                ok = oracles.check(args.protocol, inst, outcome, params, cache)
            except SizeGuardError as exc:
                print(f"size guard: {exc}", file=sys.stderr)
                return EXIT_GUARD
            rows_out.append(
                f"{args.protocol},{args.sweep},{value},{seed},{transcript.total_bits},{transcript.rounds},{int(ok)}"
            )
    text = "\r\n".join(rows_out) + "\r\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(f"wrote {args.output} ({len(rows_out) - 1} rows)")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commopt",
        description="Distributed optimization protocols with bit-exact communication accounting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance file")
    g.add_argument("--kind", required=True, choices=["linsys", "linsys-feasible", "regression", "lp"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--L", type=int, required=True)
    g.add_argument("--s", type=int, required=True)
    g.add_argument("--seed", type=int, default=_default_seed())
    g.add_argument("--infeasible", action="store_true")
    g.add_argument("--partition", default="round-robin", choices=["round-robin", "random", "one-heavy"])
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(fn=cmd_gen)

    r = sub.add_parser("run", help="run a protocol on an instance file")
    r.add_argument("--protocol", required=True, choices=registry.names())
    r.add_argument("--input", required=True)
    r.add_argument("--mode", default="coordinator", choices=["coordinator", "blackboard"])
    r.add_argument("--seed", type=int, default=_default_seed())
    r.add_argument("--eps", type=float, default=None)
    r.add_argument("--p", type=float, default=None)
    r.add_argument("--csv", default=None, help="write the transcript CSV here")
    r.add_argument("--mult-c", type=float, default=1.0)
    r.add_argument("--mult-k", type=float, default=1.0)
    r.add_argument("--mult-r", type=float, default=1.0)
    r.set_defaults(fn=cmd_run)

    b = sub.add_parser("bench", help="sweep a parameter and emit a CSV")
    b.add_argument("--protocol", required=True, choices=registry.names())
    b.add_argument("--sweep", required=True, choices=["s", "d", "L"])
    b.add_argument("--values", required=True, help="comma-separated sweep values")
    b.add_argument("--seeds", type=int, default=5)
    b.add_argument("--kind", default="linsys")
    b.add_argument("--n", type=int, default=16)
    b.add_argument("--d", type=int, default=4)
    b.add_argument("--L", type=int, default=8)
    b.add_argument("--s", type=int, default=2)
    b.add_argument("--seed-base", type=int, default=_default_seed())
    b.add_argument("--mode", default="coordinator", choices=["coordinator", "blackboard"])
    b.add_argument("--mult-c", type=float, default=1.0)
    b.add_argument("--mult-k", type=float, default=1.0)
    b.add_argument("--mult-r", type=float, default=1.0)
    b.add_argument("-o", "--output", default=None)
    b.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
