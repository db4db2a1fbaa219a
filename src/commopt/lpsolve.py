"""Distributed linear programming.

All LPs are `max c.x subject to A x <= b` over exact rationals.  Two local
exact engines back the protocols:

* ``lp_exact_oracle``  - vertex enumeration over d-subsets of constraints,
  the reference solver used by tests (size-guarded).  It runs on integers
  only: each vertex is the integer Cramer ratio num / |det| of one subset,
  found by fraction-free Bareiss elimination (``exactnum.int_solve``);
* ``solve_lp``         - exact incremental solver (randomized insertion with
  recursion on violated constraints), fast for d <= 6, used as the
  subproblem solver inside the protocols.

Both bound the feasible region with the box |x_j| <= d! 2^(dL) + 1, which is
valid for every vertex of an L-bit LP by the Cramer bound, so INFEASIBLE /
UNBOUNDED are decided exactly.

Halfspaces hold ints wherever the data is integer (instance and box rows).
Rational rows (perturbed coefficients, the l1 direction LP, cog cuts) are
cleared to integers once, by ``exactnum.clear_denominators``, on entry to
either engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .commsim import Network, ProtocolOutcome
from .config import Constants
from .exactnum import INFEASIBLE, clear_denominators, dot, int_solve
from .instances import Instance
from .rng import Stream


class SizeGuardError(RuntimeError):
    """Raised when an exact computation would exceed its budget."""


Halfspace = tuple[tuple, int | Fraction]  # (coefficients a, rhs beta) meaning a.x <= beta


def cramer_bound(d: int, L: int) -> int:
    """Every vertex coordinate of an L-bit LP is a ratio of integers <= d! 2^(dL)."""
    return math.factorial(d) * (1 << (d * L))


def _int_rows(rows: list[Halfspace]) -> list[Halfspace]:
    """Each constraint as an integer row (positive scaling keeps its direction)."""
    cleared = [clear_denominators((*a, beta)) for a, beta in rows]
    return [(tuple(r[:-1]), r[-1]) for r in cleared]


def effective_bitlength(rows: list[Halfspace], c=None) -> int:
    longest = 1
    for coeffs, beta in rows:
        for v in list(coeffs) + [beta]:
            longest = max(longest, abs(v.numerator).bit_length())
    if c is not None:
        for v in c:
            longest = max(longest, abs(int(v)).bit_length())
    return longest


def instance_halfspaces(inst: Instance) -> list[Halfspace]:
    return [(tuple(row), b) for row, b in zip(inst.A, inst.b)]


def box_halfspaces(d: int, bound) -> list[Halfspace]:
    """|x_j| <= bound as the rows +e_j, -e_j for j = 0 .. d-1, in that order."""
    rows = []
    for j in range(d):
        for sign in (1, -1):
            e = [0] * d
            e[j] = sign
            rows.append((tuple(e), bound))
    return rows


# ---------------------------------------------------------------------------
# Reference solver: vertex enumeration
# ---------------------------------------------------------------------------

# Basis-enumeration oracle guard: C(n, d) must stay below this.
ORACLE_GUARD = 10**6


def _as_int(v) -> int:
    k = int(v)
    if k != v:
        raise ValueError(f"vertex enumeration needs integer constraints, got {v!r}")
    return k


def _lex_smaller(num, den, other_num, other_den) -> bool:
    """Whether num/den < other_num/other_den lexicographically (positive dens)."""
    for v, w in zip(num, other_num):
        p, q = v * other_den, w * den
        if p != q:
            return p < q
    return False


def _enumerate_vertices(rows: list[Halfspace], c, guard: int):
    """Best feasible vertex of the (boxed) system, or None when infeasible.

    Returns ``(c.x, x)`` with the largest value, ties broken toward the
    lexicographically smallest x.  The rows must be integer-valued: every
    nonsingular d-subset is solved by integer Cramer (`int_solve`), and a
    candidate vertex num/den is ranked against the incumbent by integer
    cross-multiplication before the O(n) feasibility scan, so a Fraction is
    built only for the returned vertex.
    """
    d = len(c)
    n = len(rows)
    if math.comb(n, d) > guard:
        raise SizeGuardError(f"C({n},{d}) exceeds the enumeration guard {guard}")
    a_int = [tuple(_as_int(v) for v in a) for a, _ in rows]
    b_int = [_as_int(beta) for _, beta in rows]
    c_int = clear_denominators(c)  # a positive rescaling ranks vertices the same way

    best = None  # (c_int . num, num, den) of the incumbent vertex num / den
    for subset in combinations(range(n), d):
        sol = int_solve([a_int[i] for i in subset], [b_int[i] for i in subset])
        if sol is None:
            continue
        num, den = sol
        cx = dot(c_int, num)
        if best is not None:
            best_cx, best_num, best_den = best
            lhs, rhs = cx * best_den, best_cx * den
            if lhs < rhs:
                continue
            if lhs == rhs and not _lex_smaller(num, den, best_num, best_den):
                continue
        if any(dot(a, num) > beta * den for a, beta in zip(a_int, b_int)):
            continue
        best = (cx, num, den)
    if best is None:
        return None
    x = [Fraction(v, best[2]) for v in best[1]]
    return dot(c, x), x


def solve_lp_enumerate(rows: list[Halfspace], c, L: int | None = None):
    """Exact LP solve by basis enumeration.

    Returns (status, x, value) with status SOLVED / INFEASIBLE / UNBOUNDED.
    Ties are broken toward the lexicographically smallest optimal vertex.
    """
    rows = _int_rows(rows)
    d = len(c)
    if L is None:
        L = effective_bitlength(rows, c)
    bound = cramer_bound(d, L) + 1
    boxed = rows + box_halfspaces(d, bound)
    best = _enumerate_vertices(boxed, c, ORACLE_GUARD)
    if best is None:
        return INFEASIBLE, None, None
    value, x = best
    if any(abs(v) == bound for v in x):
        # Optimum touches the guard box: decide boundedness by recession check.
        rec_rows = [(a, 0) for a, _ in rows] + box_halfspaces(d, 1)
        rec = _enumerate_vertices(rec_rows, c, ORACLE_GUARD)
        if rec is not None and rec[0] > 0:
            return "UNBOUNDED", None, None
    return "SOLVED", tuple(x), value


def lp_exact_oracle(inst: Instance):
    """Reference oracle on an LP instance; see solve_lp_enumerate."""
    c = inst.c if inst.c is not None else tuple([0] * inst.d)
    return solve_lp_enumerate(instance_halfspaces(inst), [Fraction(v) for v in c], inst.L)


# ---------------------------------------------------------------------------
# Exact incremental solver (local computation)
# ---------------------------------------------------------------------------


def _solve_1d(cons: list[Halfspace], c, bound: Fraction):
    lo, hi = -bound, bound
    for (a,), beta in cons:
        if a > 0:
            hi = min(hi, Fraction(beta, a))
        elif a < 0:
            lo = max(lo, Fraction(beta, a))
        elif beta < 0:
            return None
    if lo > hi:
        return None
    if c[0] > 0:
        return [hi]
    return [lo]


def _solve_rec(cons: list[Halfspace], c, bound: Fraction):
    d = len(c)
    if d == 1:
        return _solve_1d(cons, c, bound)
    x = [bound if cj > 0 else -bound for cj in c]
    for i, (a, beta) in enumerate(cons):
        if dot(a, x) > beta:
            x = _solve_eq(cons[:i], c, bound, a, beta)
            if x is None:
                return None
    return x


def _solve_eq(cons: list[Halfspace], c, bound: Fraction, a, beta):
    """Optimum of the prefix subject to a.x = beta, via variable elimination."""
    d = len(c)
    k = next((j for j, v in enumerate(a) if v), None)
    if k is None:
        return None  # 0 = beta with beta != 0 is unreachable here; beta < 0 means empty
    ak = Fraction(a[k])  # every quotient below stays exact on integer rows
    rest = [j for j in range(d) if j != k]

    def reduce_row(g, h):
        gk = g[k]
        return (
            tuple(g[j] - gk * a[j] / ak for j in rest),
            h - gk * beta / ak,
        )

    # The eliminated variable's box turns into two explicit rows.
    box_k = box_halfspaces(d, bound)[2 * k : 2 * k + 2]
    new_cons = [reduce_row(g, h) for g, h in box_k + cons]

    c_red = [c[j] - c[k] * a[j] / ak for j in rest]
    y = _solve_rec(new_cons, c_red, bound)
    if y is None:
        return None
    x = list(y)
    x.insert(k, (beta - sum(a[j] * v for j, v in zip(rest, y))) / ak)
    return x


def solve_lp(rows: list[Halfspace], c, stream: Stream | None = None, L: int | None = None):
    """Exact incremental LP solve (value-correct for any insertion order).

    Returns (status, x, value); the box bound makes the solver total, and an
    optimum pinned to the box triggers the same recession test as the
    enumeration oracle.
    """
    rows = _int_rows(rows)
    d = len(c)
    if L is None:
        L = effective_bitlength(rows, c)
    bound = Fraction(cramer_bound(d, L) + 1)
    order = list(range(len(rows)))
    if stream is not None:
        stream.shuffle(order)
    cons = [rows[i] for i in order]
    c = [Fraction(v) for v in c]
    x = _solve_rec(cons, c, bound)
    if x is None:
        return INFEASIBLE, None, None
    if any(abs(v) == bound for v in x):
        rec_rows = [(a, 0) for a, _ in rows]
        rec = _solve_rec(rec_rows, c, Fraction(1))
        if rec is not None and dot(c, rec) > 0:
            return "UNBOUNDED", None, None
    return "SOLVED", tuple(x), dot(c, x)


# ---------------------------------------------------------------------------
# Clarkson's algorithm
# ---------------------------------------------------------------------------

# Clarkson iteration cap factor: cap = CLARKSON_CAP * d * log2(n+2).
CLARKSON_CAP = 50


def _distribute_objective(inst: Instance, net: Network):
    if inst.c is not None:
        net.to_all_servers("objective", list(inst.c))


def clarkson(
    instance: Instance,
    net: Network,
    stream: Stream,
    cfg: Constants,
    rows_override: list[list[Halfspace]] | None = None,
    solution_encoder=None,
) -> ProtocolOutcome:
    """Sample 9d^2 constraints, solve, double the weight of violated ones.

    `rows_override` lets callers (the smoothed variant, regression paths)
    substitute per-server constraint lists; `solution_encoder` maps the exact
    solution to the payload actually shipped to servers plus the point that
    servers test violations against.
    """
    d = instance.d
    c = [Fraction(v) for v in (instance.c if instance.c is not None else [0] * d)]
    server_rows = rows_override
    if server_rows is None:
        halfspaces = instance_halfspaces(instance)
        server_rows = [
            [halfspaces[i] for i in instance.rows_of(sid)] for sid in range(1, instance.s + 1)
        ]
    L = max(effective_bitlength([r for rs in server_rows for r in rs], c), 1)
    n_total = sum(len(rs) for rs in server_rows)
    if n_total == 0:
        return ProtocolOutcome("SOLVED", x=tuple([Fraction(0)] * d), value=Fraction(0))

    _distribute_objective(instance, net)
    # Multiplicities: one weight per (server, local row).
    mult = [[1] * len(rs) for rs in server_rows]
    sizes = [len(rs) for rs in server_rows]
    for sid in range(1, instance.s + 1):
        net.to_coordinator(sid, "h-size", sizes[sid - 1])

    sample_target = 9 * d * d
    cap = math.ceil(CLARKSON_CAP * d * math.log2(n_total + 2))
    take_all = n_total <= sample_target
    history = []

    for iteration in range(1, cap + 1):
        net.mark_round()
        # -- sample R ------------------------------------------------------
        if take_all:
            net.gather("constraints", [[(*a, b) for a, b in rows] for rows in server_rows])
            sampled = [h for rows in server_rows for h in rows]
            drawn = [dict.fromkeys(range(len(rows)), 1) for rows in server_rows]
        else:
            sampled, drawn = [], [{} for _ in range(instance.s)]
            weights = [float(sum(m)) for m in mult]
            counts = stream.split("counts", iteration).multinomial(sample_target, weights)
            for sid in range(1, instance.s + 1):
                net.to_server(sid, "sample-count", counts[sid - 1])
                if counts[sid - 1] == 0:
                    continue
                local = stream.split("draw", iteration, sid)
                for i in local.draw_weighted(mult[sid - 1], counts[sid - 1]):
                    drawn[sid - 1][i] = drawn[sid - 1].get(i, 0) + 1
                chosen = sorted(drawn[sid - 1])
                rows = [server_rows[sid - 1][i] for i in chosen]
                net.to_coordinator(sid, "constraints", [list(a) + [b] for a, b in rows])
                sampled.extend(rows)

        # -- solve the subproblem -------------------------------------------
        status, x_r, _ = solve_lp(sampled, c, stream.split("solve", iteration), L)
        if status == INFEASIBLE:
            net.verdict(None, "verdict")
            return ProtocolOutcome(INFEASIBLE, iterations=iteration)
        if status == "UNBOUNDED":
            net.verdict(None, "verdict")
            return ProtocolOutcome("UNBOUNDED", iterations=iteration)

        if solution_encoder is None:
            payload, test_point = list(x_r), x_r
        else:
            payload, test_point = solution_encoder(x_r)
        net.to_all_servers("solution", payload)

        # -- violation counts over H \ R: rows that entered the sample are
        # excluded, so grid rounding of the solution cannot re-flag the
        # sample's own binding constraints.
        violated_idx: list[list[int]] = []
        v_total = 0
        h_total = 0
        for sid in range(1, instance.s + 1):
            rows = server_rows[sid - 1]
            vi = [
                i
                for i, (a, beta) in enumerate(rows)
                if drawn[sid - 1].get(i, 0) == 0 and dot(a, test_point) > beta
            ]
            v_count = sum(mult[sid - 1][i] for i in vi)
            net.to_coordinator(sid, "violation-count", v_count)
            violated_idx.append(vi)
            v_total += v_count
            h_total += sum(mult[sid - 1])
        net.to_all_servers("v-total", v_total)

        updated = False
        if v_total == 0:
            history.append((v_total, h_total, updated))
            return ProtocolOutcome(
                "SOLVED",
                x=tuple(x_r),
                value=dot(c, x_r),
                iterations=iteration,
                extra={"history": history, "n": n_total},
            )
        if v_total <= Fraction(2 * h_total, 9 * d - 1):
            # H_i <- H_i union V_i: violated unsampled constraints double.
            updated = True
            for sid in range(1, instance.s + 1):
                for i in violated_idx[sid - 1]:
                    mult[sid - 1][i] *= 2
        history.append((v_total, h_total, updated))

    return ProtocolOutcome("PRESUMED_INFEASIBLE", iterations=cap, extra={"history": history})


# ---------------------------------------------------------------------------
# Smoothed analysis
# ---------------------------------------------------------------------------

# Extra guard bits in the smoothed-Clarkson rounding grid delta.
SMOOTHED_DELTA_SLACK = 40


def trunc_to_grid(value: Fraction, grid: Fraction) -> Fraction:
    """Round to the nearest integer multiple of the grid, ties toward +inf."""
    k = (value / grid + Fraction(1, 2)).__floor__()
    return k * grid


def sample_discrete_gaussian(sigma: float, t: int, stream: Stream) -> Fraction:
    """trunc_t of an N(0, sigma^2) draw: nearest multiple of 2^-t."""
    if not 0 < sigma <= 1:
        raise ValueError("sigma must be in (0, 1]")
    if t < 1:
        raise ValueError("t must be at least 1")
    g = sigma * stream.gauss()
    return trunc_to_grid(Fraction(g), Fraction(1, 1 << t))


@dataclass(frozen=True)
class PerturbedLP:
    base: Instance
    sigma: float
    t: int
    noise: tuple  # rows of Fractions, multiples of 2^-t

    @property
    def rows(self) -> list[Halfspace]:
        return [
            (tuple(v + g for v, g in zip(row, g_row)), beta)
            for row, g_row, beta in zip(self.base.A, self.noise, self.base.b)
        ]


def perturb_lp_stream(base: Instance, sigma: float, t: int, stream: Stream) -> PerturbedLP:
    """Add i.i.d. truncated Gaussian noise to every matrix entry."""
    min_t = math.ceil(math.log2(base.n * base.d / sigma) + base.L)
    if t < min_t:
        raise ValueError(f"t={t} below the guard {min_t} for this instance")
    noise = tuple(
        tuple(sample_discrete_gaussian(sigma, t, stream.split(i, j)) for j in range(base.d))
        for i in range(base.n)
    )
    return PerturbedLP(base, sigma, t, noise)


def smoothed_delta(n: int, d: int, L: int, sigma: float) -> Fraction:
    bits = 2 * L + math.ceil(math.log2(n * d)) + math.ceil(math.log2(1 / sigma)) + SMOOTHED_DELTA_SLACK
    return Fraction(1, 1 << bits)


def smoothed_clarkson(
    instance: Instance,
    net: Network,
    stream: Stream,
    cfg: Constants,
    sigma: float = 0.25,
    t: int = 60,
) -> ProtocolOutcome:
    """Clarkson on a noise-perturbed LP, shipping grid-rounded solutions.

    Each server perturbs its own rows from the shared noise stream, so the
    perturbation itself costs no communication.  Violation tests run against
    the delta-rounded broadcast point; the final answer is the unrounded
    optimum of the terminating iteration.
    """
    plp = perturb_lp_stream(instance, sigma, t, stream.split("smoothed-noise"))
    delta = smoothed_delta(instance.n, instance.d, instance.L, sigma)
    rows = plp.rows
    per_server = [
        [rows[i] for i in instance.rows_of(sid)] for sid in range(1, instance.s + 1)
    ]

    def encoder(x_r):
        rounded = [trunc_to_grid(v, delta) for v in x_r]
        payload = [int(v / delta) for v in rounded]  # integers on the delta grid
        return payload, rounded

    outcome = clarkson(instance, net, stream, cfg, rows_override=per_server, solution_encoder=encoder)
    outcome.extra["sigma"] = sigma
    outcome.extra["t"] = t
    outcome.extra["delta"] = delta
    outcome.extra["perturbed"] = plp
    return outcome


# ---------------------------------------------------------------------------
# Center of gravity
# ---------------------------------------------------------------------------

# Cutting-plane round budget factor: T = ceil(COG_C3 * d^2 * L * log2(d+2)).
COG_C3 = 4
# Hit-and-run samples per round (COG_SAMPLES_PER_D * d) and burn-in steps
# before them (COG_BURNIN_PER_D2 * d^2).
COG_SAMPLES_PER_D = 1000
COG_BURNIN_PER_D2 = 8


def _chord(offs: list, ax: list, au: list) -> tuple:
    """(t_lo, t_hi) such that x + t u stays in {y : normals @ y <= offs} for t in between.

    `ax` and `au` are normals @ x and normals @ u.  Rows with |au| <= 1e-300
    are parallel to the line and bound nothing; a side no row bounds stays
    infinite.  Python floats round `-` and `/` exactly as numpy float64 does,
    and the strict compares keep the first of equal bounds, as min/max do.
    """
    t_lo, t_hi = -math.inf, math.inf
    for off, a_x, a_u in zip(offs, ax, au):
        if a_u > 1e-300:
            t = (off - a_x) / a_u
            if t < t_hi:
                t_hi = t
        elif a_u < -1e-300:
            t = (off - a_x) / a_u
            if t > t_lo:
                t_lo = t
    return t_lo, t_hi


def center_of_gravity(
    instance: Instance,
    net: Network,
    stream: Stream,
    cfg: Constants,
    rounds_cap: int | None = None,
) -> ProtocolOutcome:
    """Cutting-plane feasibility / optimization with rounded cut directions.

    Every server replays the same hit-and-run chain from the shared stream,
    so centroid and covariance estimates are replicated for free; only the
    rounded direction of a violated constraint is ever broadcast.
    """
    d = instance.d
    eps_round = 0.09 / d ** 1.5  # the rounding analysis needs it below 0.1 / d^1.5
    optimize = instance.c is not None and any(instance.c)

    L = max(instance.L, 1)
    box = float(min(cramer_bound(d, L) + 1, 10.0 ** 12))
    if rounds_cap is None:
        rounds_cap = math.ceil(COG_C3 * d * d * L * math.log2(d + 2))
    n_samples = COG_SAMPLES_PER_D * d
    burnin = COG_BURNIN_PER_D2 * d * d

    _distribute_objective(instance, net)

    # P as float halfspaces normals @ x <= offsets; each cut appends one row.
    normals = np.array([a for a, _ in box_halfspaces(d, 1)], dtype=float)
    offsets = np.full(2 * d, box)
    rows_by_server = [
        [(np.array([float(v) for v in instance.A[i]]), float(instance.b[i])) for i in instance.rows_of(sid)]
        for sid in range(1, instance.s + 1)
    ]
    c_vec = np.array([float(v) for v in instance.c]) if optimize else None

    z = np.zeros(d)
    best_z = None
    best_val = -math.inf
    survival: list[float] = []
    chain = z.copy()

    for rnd in range(1, rounds_cap + 1):
        net.mark_round()
        sampler = stream.split("hit-and-run", rnd)
        samples = np.empty((n_samples, d))
        x = chain.copy()
        total_steps = burnin + n_samples
        offs = offsets.tolist()
        for step in range(total_steps):
            u = np.array([sampler.gauss() for _ in range(d)])
            # The three reductions stay in numpy, or the chain's bits change.
            # Pure-Python dots round differently from BLAS in the last bit:
            # over 20,000 random d=2 draws with 4-140 rows (OpenBLAS 0.3.31,
            # x86-64), 19,593 products normals @ u and 3,212 squared norms
            # differed, and one fused product for x and u differed in 19,991.
            # u.dot(u) is exactly what np.linalg.norm computes for a 1-D array.
            norm = math.sqrt(u.dot(u))
            if norm == 0.0:
                continue
            u /= norm
            t_lo, t_hi = _chord(offs, (normals @ x).tolist(), (normals @ u).tolist())
            if not (t_lo <= t_hi) or math.isinf(t_hi) or math.isinf(t_lo):
                continue
            x = x + (t_lo + (t_hi - t_lo) * sampler.random()) * u
            if step >= burnin:
                samples[step - burnin] = x
        chain = x
        z = samples.mean(axis=0)
        cov = np.cov(samples, rowvar=False).reshape(d, d)
        cov += np.eye(d) * (1e-12 * (1.0 + float(np.trace(cov))))

        # First violated constraint wins the round.
        violated = None
        for sid in range(1, instance.s + 1):
            for a, beta in rows_by_server[sid - 1]:
                if float(a @ z) > beta:
                    violated = (sid, a, beta)
                    break
            if violated:
                break

        if violated is None:
            for sid in range(1, instance.s + 1):
                net.verdict(sid, "point-ok")
            if not optimize:
                return ProtocolOutcome(
                    "FEASIBLE",
                    x=tuple(float(v) for v in z),
                    iterations=rnd,
                    extra={"cut_survival": survival, "polytope": list(zip(normals.tolist(), offsets.tolist()))},
                )
            val = float(c_vec @ z)
            if val > best_val:
                best_val, best_z = val, z.copy()
            cut_a, cut_b = -c_vec, -val  # objective cut: c.x >= val
        else:
            sid, a, beta = violated
            evals, evecs = np.linalg.eigh(cov)
            evals = np.clip(evals, 1e-18, None)
            b_half = evecs @ np.diag(np.sqrt(evals)) @ evecs.T
            u = b_half.T @ a
            u = u / np.linalg.norm(u)
            grid = np.floor(u / eps_round).astype(np.int64)
            net.server_broadcast(sid, "cut-direction", [int(v) for v in grid])
            a_tilde = grid * eps_round
            inv_half = evecs @ np.diag(1.0 / np.sqrt(evals)) @ evecs.T
            w = inv_half @ a_tilde
            # a_tilde is a rounded unit vector in the isotropic frame, so the
            # shifted cut sits at isotropic distance eps * d^1.5 <= 0.1 from
            # the centroid; a constant volume fraction falls off every round.
            shift = eps_round * d ** 1.5
            cut_a, cut_b = w, float(w @ z) + shift

        inside = samples @ cut_a <= cut_b
        survival.append(float(inside.mean()))
        normals = np.vstack([normals, cut_a])
        offsets = np.append(offsets, cut_b)
        if not (float(cut_a @ chain) <= cut_b):
            chain = z.copy()

    extra = {"cut_survival": survival, "polytope": list(zip(normals.tolist(), offsets.tolist()))}
    if optimize and best_z is not None:
        return ProtocolOutcome(
            "SOLVED",
            x=tuple(float(v) for v in best_z),
            value=best_val,
            iterations=rounds_cap,
            extra=extra,
        )
    return ProtocolOutcome("EMPTY", iterations=rounds_cap, extra=extra)


# ---------------------------------------------------------------------------
# Seidel's algorithm, distributed
# ---------------------------------------------------------------------------


def seidel(instance: Instance, net: Network, stream: Stream, cfg: Constants) -> ProtocolOutcome:
    """Incremental insertion in a fixed server-major order.

    Constraint order is shuffled once per server and never re-randomized in
    recursive calls.  A violated constraint is broadcast unless server 1 owns
    it and the whole current equality stack is already known to server 1, in
    which case server 1 re-solves privately; recomputed optima are always
    broadcast.
    """
    d = instance.d
    if d > 6:
        raise SizeGuardError("seidel recursion is limited to d <= 6")
    c = [Fraction(v) for v in (instance.c if instance.c is not None else [0] * d)]
    all_rows = instance_halfspaces(instance)
    L = max(effective_bitlength(all_rows, c), 1)
    bound = Fraction(cramer_bound(d, L) + 1)

    _distribute_objective(instance, net)

    order: list[int] = []
    for sid in range(1, instance.s + 1):
        local = instance.rows_of(sid)
        stream.split("order", sid).shuffle(local)
        order.extend(local)
    cons = [all_rows[i] for i in order]
    owner = [instance.partition[i] for i in order]

    broadcast_rows: set[int] = set()
    broadcasts = {"constraint": 0, "solution": 0}

    def base_optimum(eqs: list[Halfspace]):
        """Box optimum under the equality stack (local exact computation)."""
        if not eqs:
            return [bound if cj > 0 else -bound for cj in c]
        rows: list[Halfspace] = []
        for a, beta in eqs:
            rows.append((a, beta))
            rows.append((tuple(-v for v in a), -beta))
        return _solve_rec(rows, c, bound)

    def rec(prefix: int, eqs: list[Halfspace]) -> list[Fraction] | None:
        x = base_optimum(eqs)
        if x is None:
            return None
        for idx in range(prefix):
            a, beta = cons[idx]
            if dot(a, x) <= beta:
                continue
            o = owner[idx]
            # Server 1 never broadcasts its own violated constraint: every
            # other stacked equality has been broadcast already, so server 1
            # can recompute privately and publish only the new optimum.
            if o != 1 and idx not in broadcast_rows:
                net.server_broadcast(o, "constraint", list(a) + [beta])
                broadcast_rows.add(idx)
                broadcasts["constraint"] += 1
            x = rec(idx, eqs + [(a, beta)])
            if x is None:
                return None
            net.server_broadcast(o, "solution", list(x))
            broadcasts["solution"] += 1
        return x

    x = rec(len(cons), [])
    for sid in range(1, instance.s + 1):
        net.verdict(sid, "segment-done")
    if x is None:
        return ProtocolOutcome(INFEASIBLE, extra={"broadcasts": dict(broadcasts)})
    return ProtocolOutcome(
        "SOLVED",
        x=tuple(x),
        value=dot(c, x),
        extra={"broadcasts": dict(broadcasts)},
    )


# ---------------------------------------------------------------------------
# Oracle as a protocol
# ---------------------------------------------------------------------------


def lp_oracle_entry(instance: Instance, net: Network, stream: Stream, cfg: Constants) -> ProtocolOutcome:
    """Ship everything to the coordinator and run the enumeration oracle."""
    _distribute_objective(instance, net)
    net.gather("constraints", [instance.server_aug_rows(sid) for sid in range(1, instance.s + 1)])
    status, x, value = lp_exact_oracle(instance)
    return ProtocolOutcome(status, x=x, value=value)
