"""Command-line harness: instance generation, protocol runs, benchmark sweeps.

Exit codes: 0 completed (including INFEASIBLE verdicts), 2 usage errors,
3 parse failures, 4 internal size guards.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import registry
from .commsim import run_protocol
from .config import DEFAULTS
from .exactnum import INFEASIBLE, dot, leverage_scores, min_norm_least_squares, rank_and_solve
from .instances import GenSpec, gen_random, read_instance, write_instance
from .lpsolve import SizeGuardError, lp_exact_oracle, solve_lp_enumerate
from .regression import l1_exact_oracle, l2_sq_norm, linf_lp_instance
from .rowsample import lewis_weights_local

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_GUARD = 4

# Relative slack for lp-cog's float point and objective value.
COG_TOL = 1e-9


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


def _lp_norm_opt(inst, p: float) -> float:
    """min_x ||Ax - b||_p in floats: BFGS on the convex sum of |r_i|^p."""
    import numpy as np
    from scipy.optimize import minimize

    a = np.array(inst.A, dtype=float)
    b = np.array(inst.b, dtype=float)
    x0 = np.linalg.lstsq(a, b, rcond=None)[0]
    res = minimize(lambda x: float(np.sum(np.abs(a @ x - b) ** p)), x0, method="BFGS", tol=1e-12)
    return float(res.fun) ** (1.0 / p)


def _bench_oracle_check(name: str, inst, outcome, params: dict) -> bool:
    """Judge an outcome of protocol `name` against an independent oracle, with
    the tolerance that protocol guarantees; `params` are the protocol's own."""
    if name.startswith("linsys"):
        _, _, x = rank_and_solve(inst.A, inst.b)
        feasible = x != INFEASIBLE
        if outcome.status == INFEASIBLE:
            return not feasible
        if outcome.status == "FEASIBLE":
            return feasible
        if outcome.x is None:
            return False
        return all(dot(row, outcome.x) == b for row, b in zip(inst.A, inst.b))
    if name in ("leverage", "lewis"):
        # Most entries within a factor 8 of the exact scores / local weights.
        rows = [inst.A[i] for sid in range(1, inst.s + 1) for i in inst.rows_of(sid)]
        if name == "leverage":
            got = outcome.extra["scores"]
            truth = [float(t) for t in leverage_scores(rows, base=list(inst.A))]
        else:
            got = outcome.extra["weights"]
            truth = list(lewis_weights_local(rows))
            if not (all(0.0 < w <= 1.0 for w in got) and inst.d / 2 <= sum(got) <= 2 * inst.d):
                return False
        good = sum(g < 1e-9 if t == 0.0 else 0.125 <= g / t <= 8.0 for g, t in zip(got, truth))
        return len(got) == len(truth) and good >= 0.9 * len(truth)
    if name == "l2-exact":
        return list(outcome.x) == min_norm_least_squares(inst.A, inst.b)
    if name == "l2-sampled":
        best = math.sqrt(float(l2_sq_norm(inst.A, inst.b, min_norm_least_squares(inst.A, inst.b))))
        return best - 1e-9 <= outcome.value <= (1 + params["eps"]) * best + 1e-9
    if name in ("l1-simple", "l1-lewis"):
        best = l1_exact_oracle(list(inst.A), list(inst.b)).value
        return best <= outcome.value <= (1 + Fraction(params["eps"])) * best
    if name == "l1-agd":
        # Judged on the rows it sampled, the guarantee its descent gives.
        rows = [r for view in outcome.extra["sampled_views"] for r in view]
        best = l1_exact_oracle([r[:-1] for r in rows], [r[-1] for r in rows]).value
        return outcome.extra["sampled_value"] <= (1 + params["eps"]) * float(best) + 1e-9
    if name == "lp-embed":
        best = _lp_norm_opt(inst, params["p"])
        return best * (1 - 1e-9) <= outcome.value <= (1 + 3 * params["eps"]) * best
    if name == "linf":
        status, x, _ = lp_exact_oracle(linf_lp_instance(inst))
        return outcome.status == status == "SOLVED" and outcome.value == x[inst.d]
    if name == "lp-smoothed":
        c = [Fraction(v) for v in inst.c]
        status, _, value = solve_lp_enumerate(outcome.extra["perturbed"].rows, c)
    else:
        status, _, value = lp_exact_oracle(inst)
    if name == "lp-cog":
        # Float point and value; returning no point is right only for an empty LP.
        if outcome.x is None or status != "SOLVED":
            return outcome.x is None and status != "SOLVED"
        x = [Fraction(v) for v in outcome.x]
        if any(dot(row, x) > beta + COG_TOL * (1 + abs(beta)) for row, beta in zip(inst.A, inst.b)):
            return False
        return outcome.value is None or outcome.value <= float(value) + COG_TOL * (1 + abs(float(value)))
    return outcome.status == status and (status != "SOLVED" or outcome.value == value)


def cmd_bench(args) -> int:
    cfg = DEFAULTS.with_multipliers(args.mult_c, args.mult_k, args.mult_r)
    try:
        values = [int(v) for v in args.values.split(",")]
    except ValueError:
        print("error: --values must be a comma-separated integer list", file=sys.stderr)
        return EXIT_USAGE

    sig = inspect.signature(registry.lookup(args.protocol).fn).parameters.values()
    params = {p.name: p.default for p in sig if p.default is not p.empty}
    rows_out = ["protocol,sweep,value,seed,total_bits,rounds,correct"]
    base_spec = GenSpec(args.kind, args.n, args.d, args.L, args.s, args.seed_base)
    for value in values:
        for seed in range(args.seeds):
            spec = base_spec
            if args.sweep == "s":
                spec = GenSpec(args.kind, args.n, args.d, args.L, max(values), args.seed_base + seed)
            elif args.sweep == "d":
                spec = GenSpec(args.kind, args.n, value, args.L, args.s, args.seed_base + seed)
            elif args.sweep == "L":
                spec = GenSpec(args.kind, args.n, args.d, value, args.s, args.seed_base + seed)
            else:
                print(f"error: unknown sweep {args.sweep!r}", file=sys.stderr)
                return EXIT_USAGE
            inst = gen_random(spec)
            if args.sweep == "s":
                # Fixed instance body, re-partitioned round-robin over `value` servers.
                inst = inst.repartitioned(value)
            try:
                outcome, transcript = run_protocol(
                    args.protocol, inst, mode=args.mode, seed=seed, cfg=cfg
                )
                ok = _bench_oracle_check(args.protocol, inst, outcome, params)
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
