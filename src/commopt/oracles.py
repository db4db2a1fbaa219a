"""Oracle checks: `check` asks whether an outcome meets its protocol's guarantee,
of a centralized oracle that shares no code path with the protocol."""

from __future__ import annotations

import math
from fractions import Fraction

from .exactnum import INFEASIBLE, dot, leverage_scores, min_norm_least_squares, rank_and_solve
from .linsys import verify_solution
from .lpsolve import lp_exact_oracle, solve_lp_enumerate
from .regression import l1_exact_oracle, l2_sq_norm, linf_lp_instance
from .rowsample import lewis_weights_local

# Relative slack for lp-cog's float point and objective value.
COG_TOL = 1e-9


def _lp_norm_opt(inst, p: float) -> float:
    """min_x ||Ax - b||_p in floats: BFGS on the convex sum of |r_i|^p."""
    import numpy as np
    from scipy.optimize import minimize

    a = np.array(inst.A, dtype=float)
    b = np.array(inst.b, dtype=float)
    x0 = np.linalg.lstsq(a, b, rcond=None)[0]
    res = minimize(lambda x: float(np.sum(np.abs(a @ x - b) ** p)), x0, method="BFGS", tol=1e-12)
    return float(res.fun) ** (1.0 / p)


def _cached(cache: dict, key: tuple, compute):
    """The oracle answer stored under `key`: the oracle's name and every field it reads."""
    if key not in cache:
        cache[key] = compute()
    return cache[key]


def check(name: str, inst, outcome, params: dict, cache: dict) -> bool:
    """Whether `outcome` of protocol `name` on `inst` meets its guarantee; KeyError for an unknown name.

    `params` are the protocol's defaults overridden by the run's.  `cache` keeps each oracle's
    answer under every field it reads, for re-partitioned copies of one instance body to share."""
    A, b = inst.A, inst.b
    if name in ("linsys-det", "linsys-solve-rand", "linsys-feas-rand"):
        _, _, x = _cached(cache, ("rank", A, b), lambda: rank_and_solve(A, b))
        if x == INFEASIBLE:
            return outcome.status == INFEASIBLE
        if name == "linsys-feas-rand":
            return outcome.status == "FEASIBLE"
        return outcome.status == "SOLVED" and verify_solution(inst, outcome.x)
    if name in ("leverage", "lewis"):
        # Most entries within a factor 8 of the exact ones, of the rows in server order.
        rows = tuple(A[i] for sid in range(1, inst.s + 1) for i in inst.rows_of(sid))
        if name == "leverage":
            got = outcome.extra["scores"]
            truth = _cached(cache, ("leverage", rows), lambda: [float(t) for t in leverage_scores(rows)])
        else:
            got = outcome.extra["weights"]
            truth = _cached(cache, ("lewis", rows), lambda: lewis_weights_local(rows).tolist())
            if not (all(0.0 < w <= 1.0 for w in got) and inst.d / 2 <= sum(got) <= 2 * inst.d):
                return False
        good = sum(g < 1e-9 if t == 0.0 else 0.125 <= g / t <= 8.0 for g, t in zip(got, truth))
        return len(got) == len(truth) and good >= 0.9 * len(truth)
    if name in ("l2-exact", "l2-sampled"):
        x = _cached(cache, ("mnls", A, b), lambda: min_norm_least_squares(A, b))
        if name == "l2-exact":
            return list(outcome.x) == x
        best = math.sqrt(float(l2_sq_norm(A, b, x)))
        return best - 1e-9 <= outcome.value <= (1 + params["eps"]) * best + 1e-9
    if name in ("l1-simple", "l1-lewis"):
        best = _cached(cache, ("l1", A, b), lambda: l1_exact_oracle(list(A), list(b)).value)
        return best <= outcome.value <= (1 + Fraction(params["eps"])) * best
    if name == "l1-agd":
        # Judged on the rows it sampled, the guarantee its descent gives.
        rows = [r for view in outcome.extra["sampled_views"] for r in view]
        sa, sb = tuple(r[:-1] for r in rows), tuple(r[-1] for r in rows)
        best = _cached(cache, ("l1", sa, sb), lambda: l1_exact_oracle(list(sa), list(sb)).value)
        return outcome.extra["sampled_value"] <= (1 + params["eps"]) * float(best) + 1e-9
    if name == "lp-embed":
        p = params["p"]
        best = _cached(cache, ("lp-norm", A, b, p), lambda: _lp_norm_opt(inst, p))
        return best * (1 - 1e-9) <= outcome.value <= (1 + 3 * params["eps"]) * best
    if name == "linf":
        status, x, _ = _cached(cache, ("linf", A, b, inst.L), lambda: lp_exact_oracle(linf_lp_instance(inst)))
        return outcome.status == status == "SOLVED" and outcome.value == x[inst.d]
    if name == "lp-smoothed":  # its perturbed rows belong to this run alone
        status, _, value = solve_lp_enumerate(outcome.extra["perturbed"].rows, [Fraction(v) for v in inst.c])
    elif name in ("lp-clarkson", "lp-seidel", "lp-oracle", "lp-cog"):
        status, _, value = _cached(cache, ("lp", A, b, inst.c, inst.L), lambda: lp_exact_oracle(inst))
    else:
        raise KeyError(f"no oracle check for protocol {name!r}")
    if name != "lp-cog":
        return outcome.status == status and (status != "SOLVED" or outcome.value == value)
    # A float point, only when the LP has an optimum: SOLVED, or FEASIBLE when c = 0.
    if outcome.x is None or status != "SOLVED":
        return outcome.x is None and status != "SOLVED"
    x = [Fraction(v) for v in outcome.x]
    inside = all(dot(row, x) <= beta + COG_TOL * (1 + abs(beta)) for row, beta in zip(A, b))
    below = outcome.value is None or outcome.value <= float(value) + COG_TOL * (1 + abs(float(value)))
    return inside and below and outcome.status == ("SOLVED" if any(inst.c or ()) else "FEASIBLE")
