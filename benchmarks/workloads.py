"""Workloads of the commopt benchmark: instance recipes, run lists and oracle checks.

A workload is a fixed list of `run_protocol` calls on instances generated from
the workload seed.  Every outcome is checked against a centralized oracle that
does not share the protocol's code path.  The reasons each workload exists are
in benchmarks/README.md.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

from commopt import commsim, exactnum, instances, linsys, lpsolve, regression, rowsample

COORD = commsim.COORDINATOR_MODE
BOARD = commsim.BLACKBOARD_MODE

# Share of runs per protocol that may miss the acceptance ratio, copied from the
# acceptance suite's own pass counts (e.g. criterion 05 wants 90/100 for
# l2-sampled).  A protocol not listed here is exact and may miss none.
MISS_ALLOWANCE = {
    "linsys-feas-rand": 0.02,
    "linsys-solve-rand": 0.01,
    "leverage": 0.10,
    "lewis": 0.10,
    "l2-sampled": 0.10,
    "l1-simple": 0.10,
    "l1-lewis": 0.10,
    "l1-agd": 0.20,
    "lp-embed": 0.20,
    "lp-smoothed": 0.05,
}

# lp-cog runs in floats; its point must satisfy every constraint, and its value
# may not beat the exact optimum, up to this relative tolerance.
COG_TOL = 1e-9


@dataclasses.dataclass(frozen=True)
class Recipe:
    """How to make one instance: a generator spec plus the fat-LP lift."""

    spec: instances.GenSpec
    fat: bool = False


@dataclasses.dataclass(frozen=True)
class Run:
    protocol: str
    inst: str
    mode: str = COORD
    params: tuple = ()


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: object  # (seed, tiny) -> (dict[str, Recipe], list[Run])


def make_instance(recipe: Recipe) -> instances.Instance:
    inst = instances.gen_random(recipe.spec)
    if not recipe.fat:
        return inst
    # Lift every generated right-hand side so the origin is strictly interior
    # (the first hit-and-run centroid is feasible), and keep the objective
    # nonzero so every run spends its full round budget optimizing.
    n_gen = recipe.spec.n
    lift = 1 << (recipe.spec.L - 1) if recipe.spec.L > 1 else 1
    b = tuple(v + lift if i < n_gen else v for i, v in enumerate(inst.b))
    c = inst.c if any(inst.c) else (1,) + (0,) * (inst.d - 1)
    return dataclasses.replace(inst, b=b, c=c)


def _seed(seed: int, k: int) -> int:
    return 7919 * seed + k


# ---------------------------------------------------------------------------
# Run lists
# ---------------------------------------------------------------------------


def build_linsys(seed: int, tiny: bool):
    dims = [(3, 6)] if tiny else [(8, 16), (10, 24), (12, 32)]
    s = 4 if tiny else 16
    recipes, runs = {}, []
    k = 0
    for d, L in dims:
        for policy in ("round-robin", "one-heavy"):
            for feasible in (True, False):
                key = f"ls-d{d}-{policy}-{'feas' if feasible else 'infeas'}"
                recipes[key] = Recipe(
                    instances.GenSpec("linsys", 2 * s, d, L, s, _seed(seed, k), feasible, policy)
                )
                mode = COORD if k % 2 == 0 else BOARD
                runs.append(Run("linsys-det", key, mode))
                runs.append(Run("linsys-feas-rand", key, BOARD if mode == COORD else COORD))
                runs.append(Run("linsys-solve-rand", key, COORD))
                k += 1
            key = f"l2-d{d}-{policy}"
            recipes[key] = Recipe(
                instances.GenSpec("regression", 2 * s, d, L, s, _seed(seed, k), True, policy)
            )
            runs.append(Run("l2-exact", key, COORD if k % 2 == 0 else BOARD))
            k += 1
    return recipes, runs


def build_lp(seed: int, tiny: bool):
    # (d, n, partition policy, protocols).  Many small LPs average out the
    # per-instance spread of Clarkson iterations and Seidel broadcasts.  d=3
    # runs only Clarkson: d=3 Seidel broadcasts vary by half from one
    # instance to the next.  The lp-smoothed LPs are split round-robin, so
    # their perturbed constraint blocks, the largest messages here, have a
    # fixed row count.
    both = ("lp-clarkson", "lp-seidel")
    smoothed = both + ("lp-smoothed",)
    if tiny:
        plan = [(2, 8, "round-robin", smoothed), (3, 6, "random", both)]
        linf = [(2, 6)]
    else:
        plan = [(2, 20, "round-robin", smoothed)] * 20 + [(2, 60, "random", both)] * 4
        plan += [(3, 12, "random", ("lp-clarkson",))] * 2
        linf = [(2, 6)] * 2
    s = 3 if tiny else 4
    recipes, runs = {}, []
    k = 0
    for d, n, policy, protocols in plan:
        key = f"lp{k}-d{d}-n{n}"
        recipes[key] = Recipe(instances.GenSpec("lp", n, d, 8, s, _seed(seed, k), True, policy))
        for j, proto in enumerate(protocols):
            mode = COORD if (k + j) % 2 == 0 else BOARD
            params = (("sigma", 0.25), ("t", 60)) if proto == "lp-smoothed" else ()
            runs.append(Run(proto, key, mode, params))
        k += 1
    for d, n in linf:
        key = f"linf{k}-d{d}-n{n}"
        recipes[key] = Recipe(
            instances.GenSpec("regression", n, d, 8, s, _seed(seed, k), True, "random")
        )
        runs.append(Run("linf", key, COORD if k % 2 == 0 else BOARD))
        k += 1
    return recipes, runs


def build_regression(seed: int, tiny: bool):
    n_big, d_big = (80, 3) if tiny else (1000, 4)
    n_l1, d_l1 = (40, 2) if tiny else (200, 2)
    # The exact l1 descent's time varies from instance to instance (at d=3 its
    # standard deviation is 0.64 of its mean, at d=2 0.21), so the l1
    # protocols run at d=2 on several instances rather than one large one.
    l1_count, embed_count = (1, 1) if tiny else (8, 2)
    recipes = {
        "big-s8": Recipe(instances.GenSpec("regression", n_big, d_big, 6, 8, _seed(seed, 0))),
        "big-s16": Recipe(
            instances.GenSpec("regression", n_big, d_big, 6, 16, _seed(seed, 1), True, "random")
        ),
    }
    eps = (("eps", 0.5),)
    runs = [
        Run("leverage", "big-s8", COORD),
        Run("lewis", "big-s8", BOARD),
        Run("l2-sampled", "big-s8", COORD, eps),
        Run("l2-sampled", "big-s16", BOARD, eps),
    ]
    for k in range(l1_count):
        key = f"l1-{k}"
        recipes[key] = Recipe(instances.GenSpec("regression", n_l1, d_l1, 5, 8, _seed(seed, 10 + k)))
        runs.append(Run("l1-simple", key, COORD if k % 2 == 0 else BOARD, eps))
        runs.append(Run("l1-lewis", key, BOARD if k % 2 == 0 else COORD, eps))
        runs.append(Run("l1-agd", key, COORD, (("eps", 0.25),)))
    for k in range(embed_count):
        key = f"embed-{k}"
        recipes[key] = Recipe(instances.GenSpec("regression", 4, 1, 4, 2, _seed(seed, 20 + k)))
        runs.append(Run("lp-embed", key, COORD if k % 2 == 0 else BOARD, (("p", 4.0), ("eps", 0.5))))
    return recipes, runs


def build_cog(seed: int, tiny: bool):
    # Eight short runs instead of two full-budget ones: the share of rounds
    # that end in a broadcast cut varies by instance, so bits average out over
    # more instances at the same total of 64 rounds.
    count, rounds = (1, 2) if tiny else (8, 8)
    recipes, runs = {}, []
    for k in range(count):
        key = f"cog{k}"
        recipes[key] = Recipe(
            instances.GenSpec("lp", 6, 2, 1, 2, _seed(seed, k), True, "random"), fat=True
        )
        runs.append(Run("lp-cog", key, COORD if k % 2 == 0 else BOARD, (("rounds_cap", rounds),)))
    return recipes, runs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "linsys-exact",
            "exact Fraction elimination over d=8-12, L=16-32, s=16 linear systems and l2 normal equations",
            build_linsys,
        ),
        Workload(
            "lp-exact",
            "exact LP engines in the protocols against vertex enumeration in the oracle, d=2-3",
            build_lp,
        ),
        Workload(
            "regression-sampled",
            "sampling and l1 regression at n=200-1000: large row-set payloads and the exact l1 descent",
            build_regression,
        ),
        Workload(
            "cog-hit-and-run",
            "lp-cog: sequential hit-and-run over keyed-stream draws with no Fraction work",
            build_cog,
        ),
    )
}


# ---------------------------------------------------------------------------
# Oracle checks
# ---------------------------------------------------------------------------


class Checker:
    """Checks outcomes against centralized oracles, caching each oracle once."""

    def __init__(self, insts: dict):
        self.insts = insts
        self._cache: dict = {}

    def _oracle(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def check(self, run: Run, outcome) -> bool:
        inst = self.insts[run.inst]
        params = dict(run.params)
        return _CHECKS[run.protocol](self, run, inst, outcome, params)

    # -- linear systems -------------------------------------------------------

    def _linsys_truth(self, run, inst):
        _, _, x = self._oracle(("rank", run.inst), lambda: exactnum.rank_and_solve(inst.A, inst.b))
        return x != exactnum.INFEASIBLE

    def linsys_solution(self, run, inst, out, params):
        if not self._linsys_truth(run, inst):
            return out.status == exactnum.INFEASIBLE
        return out.status == "SOLVED" and linsys.verify_solution(inst, out.x)

    def linsys_verdict(self, run, inst, out, params):
        feasible = self._linsys_truth(run, inst)
        return out.status == ("FEASIBLE" if feasible else exactnum.INFEASIBLE)

    # -- l2 -------------------------------------------------------------------

    def _l2_opt(self, run, inst):
        return self._oracle(
            ("mnls", run.inst), lambda: exactnum.min_norm_least_squares(inst.A, inst.b)
        )

    def l2_exact(self, run, inst, out, params):
        return list(out.x) == self._l2_opt(run, inst)

    def l2_sampled(self, run, inst, out, params):
        best = math.sqrt(float(regression.l2_sq_norm(inst.A, inst.b, self._l2_opt(run, inst))))
        eps = params["eps"]
        return best - 1e-9 <= out.value <= (1 + eps) * best + 1e-9

    # -- row sampling -----------------------------------------------------------

    def _view_order(self, inst):
        return [i for sid in range(1, inst.s + 1) for i in inst.rows_of(sid)]

    def leverage(self, run, inst, out, params):
        rows = [inst.A[i] for i in self._view_order(inst)]
        exact = self._oracle(
            ("leverage", run.inst), lambda: exactnum.leverage_scores(rows, base=list(inst.A))
        )
        good = 0
        for approx, truth in zip(out.extra["scores"], exact):
            t = float(truth)
            if t == 0.0:
                good += approx < 1e-9
            elif math.isfinite(approx):
                good += 0.125 <= approx / t <= 8.0
        return len(exact) == len(out.extra["scores"]) and good >= 0.9 * len(exact)

    def lewis(self, run, inst, out, params):
        rows = [inst.A[i] for i in self._view_order(inst)]
        local = self._oracle(("lewis", run.inst), lambda: rowsample.lewis_weights_local(rows))
        weights = out.extra["weights"]
        if len(weights) != len(local) or not all(0.0 < w <= 1.0 for w in weights):
            return False
        if not inst.d / 2 <= sum(weights) <= 2 * inst.d:
            return False
        good = sum(0.125 <= w / float(t) <= 8.0 for w, t in zip(weights, local))
        return good >= 0.9 * len(local)

    # -- l1 ---------------------------------------------------------------------

    def _l1_opt(self, rows, rhs):
        key = ("l1", tuple(rows), tuple(rhs))
        return self._oracle(key, lambda: regression.l1_exact_oracle(list(rows), list(rhs)).value)

    def l1_sketch(self, run, inst, out, params):
        best = self._l1_opt(inst.A, inst.b)
        return best <= out.value <= (1 + Fraction(params["eps"])) * best

    def l1_agd(self, run, inst, out, params):
        sampled = [r for view in out.extra["sampled_views"] for r in view]
        best = self._l1_opt([r[:-1] for r in sampled], [r[-1] for r in sampled])
        return out.extra["sampled_value"] <= (1 + params["eps"]) * float(best) + 1e-9

    def lp_embed(self, run, inst, out, params):
        best = self._oracle(("lp-norm", run.inst), lambda: _lp_norm_opt_1d(inst, params["p"]))
        return best * (1 - 1e-9) <= out.value <= (1 + 3 * params["eps"]) * best

    # -- LP -----------------------------------------------------------------------

    def _lp_opt(self, run, inst):
        return self._oracle(("lp", run.inst), lambda: lpsolve.lp_exact_oracle(inst))

    def lp_exact(self, run, inst, out, params):
        status, _, value = self._lp_opt(run, inst)
        return out.status == status and (status != "SOLVED" or out.value == value)

    def lp_smoothed(self, run, inst, out, params):
        c = [Fraction(v) for v in inst.c]
        status, _, value = lpsolve.solve_lp_enumerate(out.extra["perturbed"].rows, c)
        return out.status == status == "SOLVED" and out.value == value

    def linf(self, run, inst, out, params):
        status, x, _ = self._oracle(
            ("linf", run.inst), lambda: lpsolve.lp_exact_oracle(regression.linf_lp_instance(inst))
        )
        return out.status == status == "SOLVED" and out.value == x[inst.d]

    def lp_cog(self, run, inst, out, params):
        status, _, value = self._lp_opt(run, inst)
        if out.status != "SOLVED" or status != "SOLVED":
            return False
        x = [Fraction(v) for v in out.x]
        for row, beta in zip(inst.A, inst.b):
            if exactnum.dot(row, x) > beta + COG_TOL * (1 + abs(beta)):
                return False
        return out.value <= float(value) + COG_TOL * (1 + abs(float(value)))


def _lp_norm_opt_1d(inst, p: float) -> float:
    """min_x ||a x - b||_p for one column, by ternary search on the convex objective."""
    pairs = [(float(r[0]), float(b)) for r, b in zip(inst.A, inst.b)]

    def f(x):
        return sum(abs(a * x - b) ** p for a, b in pairs)

    roots = [b / a for a, b in pairs if a != 0.0] or [0.0]
    lo, hi = min(roots) - 1.0, max(roots) + 1.0
    for _ in range(200):
        m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        lo, hi = (lo, m2) if f(m1) < f(m2) else (m1, hi)
    return f((lo + hi) / 2) ** (1.0 / p)


_CHECKS = {
    "linsys-det": Checker.linsys_solution,
    "linsys-solve-rand": Checker.linsys_solution,
    "linsys-feas-rand": Checker.linsys_verdict,
    "l2-exact": Checker.l2_exact,
    "l2-sampled": Checker.l2_sampled,
    "leverage": Checker.leverage,
    "lewis": Checker.lewis,
    "l1-simple": Checker.l1_sketch,
    "l1-lewis": Checker.l1_sketch,
    "l1-agd": Checker.l1_agd,
    "lp-embed": Checker.lp_embed,
    "lp-clarkson": Checker.lp_exact,
    "lp-seidel": Checker.lp_exact,
    "lp-smoothed": Checker.lp_smoothed,
    "linf": Checker.linf,
    "lp-cog": Checker.lp_cog,
}
