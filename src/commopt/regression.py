"""Distributed regression protocols for the l2, l1, lp, and l-infinity norms.

The exact paths (normal equations, l1 via its LP geometry, l-infinity via a
linear program) run over rationals end to end.  The sampling and gradient
paths run in doubles: their guarantees are approximation statements, so
float error is dominated by design.  The lp path (p > 2) also runs in
doubles: it gathers the rows and minimizes sum |r_i|^p by damped Newton.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .commsim import Network, ProtocolOutcome
from .config import Constants
from .exactnum import (
    dot,
    first_basis_solve,
    int_solve,
    min_norm_least_squares,
    solve_normal,
    transpose,
)
from .instances import Instance
from .lpsolve import (
    SizeGuardError,
    box_halfspaces,
    clarkson,
    solve_lp,
)
from .rng import Stream
from .rowsample import (
    _distributed_sample,
    _shared_gram,
    leverage_protocol,
    lewis_protocol,
    lewis_weights_local,
    make_plan,
)


@dataclass(frozen=True)
class RegressionResult:
    x: tuple
    value: object  # Fraction on exact paths, float elsewhere


# ---------------------------------------------------------------------------
# Residual norms
# ---------------------------------------------------------------------------


def l2_sq_norm(rows, rhs, x) -> Fraction:
    return sum((dot(row, x) - b) ** 2 for row, b in zip(rows, rhs))


# ---------------------------------------------------------------------------
# Exact l2 via normal equations
# ---------------------------------------------------------------------------


def _value_round(instance: Instance, net: Network, x, kind: str, power: int) -> Fraction:
    """Broadcast x; each server sends the sum of |residual|**power over its rows.

    x (ints or Fractions) is cleared once to integers num / den, so a server
    sums the integer residuals |A_i num - den b_i|**power and divides by
    den**power once.
    """
    net.to_all_servers("solution", list(x))
    den = math.lcm(*(v.denominator for v in x))
    num = [v.numerator * (den // v.denominator) for v in x]
    total = Fraction(0)
    for sid in range(1, instance.s + 1):
        local = sum(
            abs(dot(instance.A[i], num) - den * instance.b[i]) ** power for i in instance.rows_of(sid)
        )
        total += net.to_coordinator(sid, kind, Fraction(local, den ** power))
    return total


def l2_exact(instance: Instance, net: Network, stream: Stream, cfg: Constants) -> ProtocolOutcome:
    """Each server with rows sends the Gram of its rows [A | b] through
    `_shared_gram`, unshared, and the coordinator solves.

    That Gram's upper triangle holds G = A^T A, y = A^T b and b^T b.  Every x
    with G x = y, the minimum-norm one of a singular G included, has
    ||Ax - b||^2 = b^T b - x.y, so the exact value needs no second round.
    """
    d = instance.d
    views = [(sid, instance.server_aug_rows(sid)) for sid in range(1, instance.s + 1)]
    g_aug, _ = _shared_gram(views, d + 1, net, "gram", share=False)
    y = [row[d] for row in g_aug[:d]]
    x = solve_normal([row[:d] for row in g_aug[:d]], y)
    value = math.sqrt(float(g_aug[d][d] - dot(x, y)))
    return ProtocolOutcome("SOLVED", x=tuple(x), value=value)


def l2_sampled(
    instance: Instance, net: Network, stream: Stream, cfg: Constants, eps: float = 0.5
) -> ProtocolOutcome:
    """Leverage-score sampling of O(d/eps + d log d) rows, then an exact solve."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    d, n = instance.d, instance.n
    target = math.ceil(cfg.sampling_c * (d / eps + d * math.log2(d + 1)))
    aug_views = [instance.server_aug_rows(sid) for sid in range(1, instance.s + 1)]

    if n <= target:
        # Below the sampling budget the coordinator holds every row; solve exactly.
        sampled = net.gather("rows", aug_views)
    else:
        views = [instance.server_rows(sid) for sid in range(1, instance.s + 1)]
        _, taus = leverage_protocol(views, d, net, stream.split("lev"), cfg)
        plans = _coordinated_plans(taus, target, "l2", net)
        sampled = _distributed_sample(aug_views, plans, net, stream.split("sample"), "l2samp")
    rows, rhs = [r[:-1] for r in sampled], [r[-1] for r in sampled]
    x = min_norm_least_squares(rows, rhs)
    if n > target:  # the sample's residual is not the instance's
        sq = _value_round(instance, net, x, "residual-sq", 2)
    else:
        sq = l2_sq_norm(rows, rhs, x)
    value = math.sqrt(float(sq))
    return ProtocolOutcome(
        "SOLVED", x=tuple(x), value=value, extra={"sampled": len(sampled)}
    )


def _coordinated_plans(per_server_scores, target: float, norm: str, net: Network):
    """Agree on globally normalized sampling plans (one scalar per server)."""
    capped = [
        [1.0 if math.isinf(float(t)) else min(float(t), 1.0) for t in scores]
        for scores in per_server_scores
    ]
    masses = [float(sum(c)) for c in capped]
    for sid, mass in enumerate(masses, start=1):
        net.to_coordinator(sid, "score-mass", mass)
    total = sum(masses) or 1.0
    net.to_all_servers("score-total", total)
    return [make_plan(c, target * sum(c) / total, norm) if c else None for c in capped]


# ---------------------------------------------------------------------------
# Exact l1 minimization (certified float basis, else descent over interpolation bases)
# ---------------------------------------------------------------------------

# Size guard of the exact l1 solver on n*d (rows before merging).
L1_ORACLE_GUARD = 4000


def _l1_descent_direction(g, zero_rows, weights, d):
    """Exact steepest-descent subproblem at a kink point.

    Minimizes <g, v> + sum_i m_i |<A^i, v>| over the box |v_j| <= 1 as a
    small LP.  A zero optimum certifies global optimality of the current
    point; otherwise the optimal v strictly decreases the objective.
    Parallel kink rows fold together first (m |<A, v>| is positively
    homogeneous in A), which keeps the slack dimension near d in practice.
    """
    folded: dict[tuple, Fraction] = {}
    for row, m in zip(zero_rows, weights):
        lead = next((v for v in row if v), None)
        if lead is None:
            continue
        canon = tuple(Fraction(v) / abs(lead) for v in row)
        folded[canon] = folded.get(canon, Fraction(0)) + m * abs(lead)
    rows_z = list(folded)
    w_z = [folded[r] for r in rows_z]
    z = len(rows_z)
    if d + z > 10:
        raise SizeGuardError(f"l1 direction subproblem too degenerate: {z} kink rows")

    halfspaces = []
    for k, row in enumerate(rows_z):
        slack = tuple(-1 if j == k else 0 for j in range(z))
        halfspaces.append((row + slack, 0))
        halfspaces.append((tuple(-v for v in row) + slack, 0))
    halfspaces += box_halfspaces(d + z, 1)[: 2 * d]  # |v_j| <= 1 for j < d
    c = [-Fraction(v) for v in g] + [-w for w in w_z]
    status, sol, value = solve_lp(halfspaces, c, None, L=8)
    if status != "SOLVED":
        raise RuntimeError(f"l1 direction LP ended {status}")
    return -value, list(sol[:d])


def _l1_certified_optimum(rows, rhs, mult, d):
    """Integer certificate for a unique minimizer of sum_i m_i |a_i.x - b_i|.

    HiGHS solves the dual, max b.u subject to A^T u = 0 and |u_i| <= m_i, in
    floats; minus its equality marginals guess x.  The d independent rows Z
    of smallest guessed residual fix x = num / den exactly.  It is accepted
    only if no other residual vanishes and A_Z^T u = -g, with g the signed
    weighted sum of the other rows, has |u_k| < m_k.  Then for w = A_Z v the
    one-sided derivative along any v != 0 is sum_k (m_k |w_k| - u_k w_k) > 0,
    so x is the unique minimizer.  Returns (num, den, integer residuals
    a_i.num - b_i.den), or None when the input is not all integers within
    double range or the guess is not certified.
    """
    if any(type(v) is not int for row, b in zip(rows, rhs) for v in (*row, b)):
        return None
    from scipy.optimize import linprog

    try:
        a = np.array(rows, dtype=float)
        b = np.array(rhs, dtype=float)
    except OverflowError:  # entries beyond double range
        return None
    res = linprog(-b, A_eq=a.T, b_eq=np.zeros(d), bounds=[(-m, m) for m in mult], method="highs")
    if res.status != 0:
        return None
    x_guess = -res.eqlin.marginals

    order = np.argsort(np.abs(a @ x_guess - b), kind="stable").tolist()
    picked = first_basis_solve(rows, rhs, order, d)
    if picked is None:
        return None
    z, num, den = picked
    resid = [dot(row, num) - beta * den for row, beta in zip(rows, rhs)]
    if resid.count(0) != d:
        return None

    g = [0] * d
    for row, m, r in zip(rows, mult, resid):
        if r:
            sm = m if r > 0 else -m
            g = [gj + sm * v for gj, v in zip(g, row)]
    u_num, u_den = int_solve(transpose([rows[k] for k in z]), [-v for v in g])
    if any(abs(u) >= mult[k] * u_den for u, k in zip(u_num, z)):
        return None
    return num, den, resid


def l1_minimize_exact(rows, rhs):
    """Exact rational minimizer of ||Ax - b||_1.

    Duplicate rows are merged by weight first, which both shrinks the work
    and removes the most common source of degeneracy in sampled inputs.  On
    integer inputs a float basis guess is tried next (`_l1_certified_optimum`):
    its integer certificate proves the guessed vertex is the unique minimizer,
    so it is the point the descent below would reach, and the value is
    computed from it as the descent computes it.  HiGHS only decides which
    path runs, never the answer.  Otherwise, piecewise-linear descent from
    the l2 point: at each iterate an exact direction LP either certifies
    optimality or produces a strictly descending direction, and an exact
    weighted-median line search takes the step.
    """
    n_raw = len(rows)
    d = len(rows[0])
    if n_raw * d > L1_ORACLE_GUARD:
        raise SizeGuardError(f"l1 oracle guard exceeded: {n_raw}x{d}")

    merged: dict[tuple, int] = {}
    constant = Fraction(0)
    for row, b in zip(rows, rhs):
        key = (*row, b)  # equal values merge whether given as int or Fraction
        if not any(key[:-1]):
            constant += abs(key[-1])  # zero row contributes a fixed cost
            continue
        merged[key] = merged.get(key, 0) + 1
    if not merged:
        return [Fraction(0)] * d, constant
    rowsF = [key[:-1] for key in merged]
    rhsF = [key[-1] for key in merged]
    mult = list(merged.values())
    n = len(rowsF)

    certified = _l1_certified_optimum(rowsF, rhsF, mult, d)
    if certified is not None:
        num, den, resid = certified
        value = Fraction(sum(m * abs(r) for m, r in zip(mult, resid)), den) + constant
        return [Fraction(v, den) for v in num], value

    x = min_norm_least_squares(rowsF, rhsF)

    max_iters = 40 * (n + d) + 200
    for _ in range(max_iters):
        residuals = [dot(row, x) - b for row, b in zip(rowsF, rhsF)]
        if not any(residuals):
            return list(x), constant  # exact fit: global minimum
        g = [Fraction(0)] * d
        zero_rows = []
        zero_weights = []
        for i, r in enumerate(residuals):
            if r > 0:
                for j in range(d):
                    g[j] += mult[i] * rowsF[i][j]
            elif r < 0:
                for j in range(d):
                    g[j] -= mult[i] * rowsF[i][j]
            else:
                zero_rows.append(rowsF[i])
                zero_weights.append(mult[i])

        slope, v = _l1_descent_direction(g, zero_rows, zero_weights, d)
        if slope == 0:
            value = sum(m * abs(r) for m, r in zip(mult, residuals)) + constant
            return list(x), value

        w = [dot(row, v) for row in rowsF]
        deriv = Fraction(0)
        for i, r in enumerate(residuals):
            if r > 0 or (r == 0 and w[i] > 0):
                deriv += mult[i] * w[i]
            elif r < 0 or (r == 0 and w[i] < 0):
                deriv -= mult[i] * w[i]
        if deriv >= 0:  # the direction LP guarantees strict descent
            raise RuntimeError("l1 direction LP returned a non-descending direction")

        events = sorted(
            (-(residuals[i]) / w[i], i)
            for i in range(n)
            if w[i] != 0 and -(residuals[i]) / w[i] > 0
        )
        t_star = None
        for t_i, i in events:
            deriv += 2 * mult[i] * abs(w[i])
            if deriv >= 0:
                t_star = t_i
                break
        if t_star is None:
            raise RuntimeError("l1 objective cannot be unbounded below")
        x = [xi + t_star * vi for xi, vi in zip(x, v)]

    raise RuntimeError("l1 descent failed to converge")


def l1_exact_oracle(rows, rhs) -> RegressionResult:
    x, value = l1_minimize_exact(rows, rhs)
    return RegressionResult(tuple(x), value)


# ---------------------------------------------------------------------------
# l1 protocols
# ---------------------------------------------------------------------------


def _local_l1_sketch(aug_rows, m: int, eps: float, stream: Stream):
    """Lewis-weight sketch of one server's rows, revalidated on probes."""
    n = len(aug_rows)
    if n <= m:
        return list(aug_rows)
    keep = [row for row in aug_rows if any(row)]
    if len(keep) < len(aug_rows):
        aug_rows = keep or aug_rows[:1]
        n = len(aug_rows)
        if n <= m:
            return list(aug_rows)
    w = lewis_weights_local(aug_rows)
    plan = make_plan(list(w), float(m), "l1")
    d_aug = len(aug_rows[0])
    a = np.asarray(aug_rows, dtype=float)
    probes = [np.array([stream.gauss() for _ in range(d_aug)]) for _ in range(12)]
    probes += [np.eye(d_aug)[j] for j in range(d_aug)]
    for attempt in range(32):
        sk = plan.draw(aug_rows, plan.N, stream.split("sketch", attempt))
        sk_f = np.asarray(sk, dtype=float)
        ok = True
        for y in probes:
            full = float(np.abs(a @ y).sum())
            sketched = float(np.abs(sk_f @ y).sum())
            if full > 0 and not ((1 - eps) * full <= sketched <= (1 + eps) * full):
                ok = False
                break
        if ok:
            return sk
    return sk  # best effort after the retry budget


def l1_simple(
    instance: Instance, net: Network, stream: Stream, cfg: Constants, eps: float = 0.5
) -> ProtocolOutcome:
    """Every server sends a locally validated l1 sketch; coordinator solves it."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    d = instance.d
    m = math.ceil(cfg.sampling_c * d * math.log2(d + 1) / (eps * eps))
    stacked: list[tuple] = []
    for sid in range(1, instance.s + 1):
        aug = instance.server_aug_rows(sid)
        if not aug:
            net.verdict(sid, "skip")
            continue
        sketch = _local_l1_sketch(aug, m, eps, stream.split("sketch", sid))
        net.to_coordinator(sid, "sketch", [list(r) for r in sketch])
        stacked.extend(sketch)
    x, _ = l1_minimize_exact([r[:-1] for r in stacked], [r[-1] for r in stacked])
    value = _value_round(instance, net, x, "residual-l1", 1)
    return ProtocolOutcome("SOLVED", x=tuple(x), value=value)


def l1_lewis(
    instance: Instance, net: Network, stream: Stream, cfg: Constants, eps: float = 0.5
) -> ProtocolOutcome:
    """Global Lewis-weight sampling of [A b], exact solve on the sample."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    d, n = instance.d, instance.n
    target = math.ceil(cfg.sampling_c * d * math.log2(d + 1) / (eps * eps))
    aug_views = [instance.server_aug_rows(sid) for sid in range(1, instance.s + 1)]

    if n <= target:  # the coordinator holds every row
        sampled = net.gather("rows", aug_views)
    else:
        weights = lewis_protocol(aug_views, d + 1, instance.L, net, stream.split("lewis"), cfg)
        plans = _coordinated_plans(weights, target, "l1", net)
        sampled = _distributed_sample(aug_views, plans, net, stream.split("sample"), "l1samp")

    x, value = l1_minimize_exact([r[:-1] for r in sampled], [r[-1] for r in sampled])
    if n > target:  # the sample's residual is not the instance's
        value = _value_round(instance, net, x, "residual-l1", 1)
    return ProtocolOutcome(
        "SOLVED", x=tuple(x), value=value, extra={"sampled": len(sampled)}
    )


# ---------------------------------------------------------------------------
# Smoothed accelerated gradient descent for l1
# ---------------------------------------------------------------------------

# Smoothing stages of l1_agd: lambda halves from stage to stage.
AGD_STAGES = 4


def huber_smooth(t, lam: float) -> np.ndarray:
    """Elementwise Huber value: quadratic near zero, linear in the tails; C^1 at |t| = lam."""
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) <= lam, t * t / (2.0 * lam), np.abs(t) - lam / 2.0)


def smoothed_value(server_sa, server_sb, r_inv, z, lam, sigma, z0) -> float:
    """The l1-agd objective sum_i f_lam(<(SA)^i R^-1, z> - Sb_i) + sigma/2 |z - z0|^2."""
    u = r_inv @ z
    diff = z - z0
    data = sum(
        float(np.sum(huber_smooth(sa @ u - sb, lam))) for sa, sb in zip(server_sa, server_sb)
    )
    return data + 0.5 * sigma * float(diff @ diff)


def gradient_exchange(server_sa, server_sb, r_inv, z, lam, k):
    """One distributed gradient round: the piece each server computes.

    Every row's Huber derivative h'_i = clip(r_i / lam, -1, 1) enters the
    gradient R^-T sum_i h'_i a_i + sigma (z - z0) of `smoothed_value` in z.
    A server's piece is the integer d-vector sum_i round(2^k h'_i) a_i over
    its rows, exact when `server_sa` holds int64 rows within `l1_agd`'s guard;
    what travels is its difference from the server's previous piece, or a
    1-bit `None` if equal.  Decoded as 2^-k R^-T (sum of the pieces) +
    sigma (z - z0), the pieces give a gradient whose error e obeys, for
    x = R^-1 z and any x' = R^-1 z',

        |<e, z - z'>| <= 2^-(k+1) (||SA x - Sb||_1 + ||SA x' - Sb||_1),

    because each h'_i moves by at most 2^-(k+1) and |<a_i, x - x'>| is at most
    the two residuals' sum.
    """
    u = r_inv @ z
    pieces = []
    for sa, sb in zip(server_sa, server_sb):
        h = np.clip((sa @ u - sb) / lam, -1.0, 1.0)
        pieces.append((np.rint(h * 2.0**k).astype(np.int64) @ sa).tolist())
    return pieces


def _delta_send(prev: list, new: list, send, *address) -> list:
    """Send int vector `new` as `send(*address, new - prev)`, or 1-bit `None` if
    unchanged, and return what the receiver decodes: prev plus the difference."""
    diff = [a - b for a, b in zip(new, prev)]
    got = send(*address, diff if any(diff) else None)
    return prev if got is None else [a + b for a, b in zip(prev, got)]


def l1_agd(
    instance: Instance, net: Network, stream: Stream, cfg: Constants, eps: float = 0.25
) -> ProtocolOutcome:
    """Lewis sample, precondition, then smoothed accelerated gradient descent.

    The sampled rows [SA | Sb] stay on their servers, which share the exact
    Gram of them through `_shared_gram` (`gram`).  Every party reads
    (SA)^T(SA) and (SA)^T Sb off it, solves the normal equations for the warm
    start x0 and factors (SA)^T(SA) into the preconditioner R, so neither x0
    nor R travels in another message.

    Each of the N = ceil(agd_c2 d / eps) iterations is one round: every server
    computes its `gradient_exchange` piece, the integer d-vector
    sum_i round(2^k h'_i) a_i, and sends its difference from the server's
    previous piece (`grad`); the coordinator adds each to that server's
    previous piece and broadcasts the sum's difference from its previous sum
    (`grad-total`), an all-zero difference as a 1-bit `None`, all from zero
    at the start.  Every party decodes the exact sum, in Python ints, and the
    gradient 2^-k R^-T sum + sigma (z - z0), so R^-1 never travels, and takes
    the accelerated step.

    No iteration sends a value.  Within a stage the objective F is
    `smoothed_value` under that stage's lam and sigma, smooth with constant
    beta = top_eig / lam + sigma, and the stage runs the fast gradient method
    with step 1 / beta from y = z and theta = 1.  Its error bound
    F(z_j) - F* <= 2 beta |z_start - z*|^2 / (j + 1)^2 holds for the last
    iterate z_j itself (Beck & Teboulle, SIAM J. Imaging Sci. 2, 2009), so no
    step needs to be compared or rejected; with the grid's delta-inexact
    oracle the bound gains at most N delta (below).  The one l1 round comes at
    each stage's end: every server sends its float sampled l1 piece at
    x = R^-1 z (`stage-value`), and the coordinator keeps the x with the least
    total, starting from x0 and warm_val.  That pick guards against a stage
    whose smoothing or prox term leaves it worse in l1 than an earlier stage
    or than the warm start.

    The grid.  Rounding every h'_i to a multiple of 2^-k moves the gradient
    by an e with |<e, z - z'>| <= 2^-(k+1) (l1(x) + l1(x')) for x = R^-1 z,
    x' = R^-1 z' (see `gradient_exchange`), so the oracle is
    (delta, beta)-inexact in the sense of Devolder, Glineur & Nesterov
    (Math. Program. 146, 2014) with delta = 2^(1-k) M, where M bounds the
    sampled l1 values of the points queried; M = 2 warm_val is assumed.  A
    fast gradient method accumulates that error at most linearly, O(N delta)
    after N steps, and k is the least integer with

        N * 2^(1-k) * (2 warm_val) <= eps * opt_est / 8.

    The coordinator, which alone holds warm_val, broadcasts k once (`grid`).
    Servers form their gradient pieces in int64, which stays exact while
    2^k sum_i max_j |a_ij| < 2^63; past that the protocol raises
    `SizeGuardError`.

    `extra["sampled_value"]` is the least of those totals (`warm-value` or
    `stage-value`), the float sampled l1 value already sent at the returned x.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    d, n = instance.d, instance.n
    if all(not any(row) for row in instance.A):
        raise ValueError("zero matrix")
    target = math.ceil(cfg.sampling_c * d * math.log2(n + 1) / (eps * eps))
    aug_views = [
        [row for row in instance.server_aug_rows(sid) if any(row)]
        for sid in range(1, instance.s + 1)
    ]

    # -- Lewis sampling; sampled rows stay on their servers. -----------------
    if n <= target:
        sampled_views = aug_views
    else:
        weights = lewis_protocol(aug_views, d + 1, instance.L, net, stream.split("lewis"), cfg)
        plans = _coordinated_plans(weights, target, "l1", net)
        sampled_views = [
            plan.draw(view, max(1, round(sum(plan.values))), stream.split("agd-draw", sid))
            if plan else []
            for sid, (plan, view) in enumerate(zip(plans, aug_views), start=1)
        ]

    sa_views = [[r[:-1] for r in view] for view in sampled_views]
    sb_views = [[r[-1] for r in view] for view in sampled_views]
    n_sampled = sum(len(v) for v in sa_views)

    # -- Warm start: exact l2 on the sampled system, which every party solves
    # from the shared Gram of the sampled [SA | Sb].
    g_aug, _ = _shared_gram(enumerate(sampled_views, start=1), d + 1, net, "gram")
    g_sum = [row[:d] for row in g_aug[:d]]
    x0_exact = solve_normal(g_sum, [row[d] for row in g_aug[:d]])
    x0 = np.array([float(v) for v in x0_exact])

    # -- Precondition: every party factors the shared Gram (SA)^T(SA).  The
    # shift scales with the trace so a rank-deficient Gram still factors.
    g = np.asarray(g_sum, dtype=float)
    r_factor = np.linalg.cholesky(g + 1e-12 * (1.0 + np.trace(g)) * np.eye(d)).T
    r_inv = np.linalg.inv(r_factor)

    sa_float = [np.asarray(v, dtype=float) if v else np.zeros((0, d)) for v in sa_views]
    sb_float = [np.asarray(v, dtype=float) if v else np.zeros(0) for v in sb_views]

    def sampled_l1(xv: np.ndarray, kind: str) -> float:
        """Each server sends its sampled l1 residual at xv under `kind`; the
        coordinator sums the pieces in server order."""
        total = 0.0
        for sid, (sa, sb) in enumerate(zip(sa_float, sb_float), start=1):
            total += net.to_coordinator(sid, kind, float(np.abs(sa @ xv - sb).sum()))
        return total

    # -- Constant-factor presolve for the target scale. -----------------------
    m_pres = math.ceil(cfg.sampling_c * d * math.log2(d + 1))
    presolve_rows = net.gather("presolve-sketch", [
        _local_l1_sketch(view, m_pres, 0.9, stream.split("presolve", sid)) if view else []
        for sid, view in enumerate(sampled_views, start=1)
    ])
    xp, _ = l1_minimize_exact([r[:-1] for r in presolve_rows], [r[-1] for r in presolve_rows])
    xp_float = net.to_all_servers("presolve-solution", [float(v) for v in xp])
    opt_est = net.to_all_servers("presolve-total", sampled_l1(np.array(xp_float), "presolve-value"))
    warm_val = sampled_l1(x0, "warm-value")
    if warm_val == 0.0 or opt_est == 0.0:
        value = float(
            _value_round(instance, net, [Fraction(v) for v in x0_exact], "residual-l1", 1)
        )
        return ProtocolOutcome(
            "SOLVED",
            x=tuple(float(v) for v in x0),
            value=value,
            extra={"sampled_value": warm_val, "warm_start": True, "sampled_views": sampled_views},
        )

    total_iters = math.ceil(cfg.agd_c2 * d / eps)
    per_stage = max(1, math.ceil(total_iters / AGD_STAGES))

    # -- The fixed-point grid (see the docstring). ----------------------------
    k = math.ceil(math.log2(32 * total_iters * warm_val / (eps * opt_est)))
    net.to_all_servers("grid", k)
    if 2**k * sum(max(map(abs, row), default=0) for rows in sa_views for row in rows) >= 2**63:
        raise SizeGuardError("l1-agd gradient pieces would reach 2^63 and overflow int64")
    sa_int = [np.asarray(v, dtype=np.int64).reshape(-1, d) for v in sa_views]

    delta = eps * opt_est
    theta = (d / max(n_sampled, d)) * opt_est * opt_est
    z0 = r_factor @ x0
    z = z0.copy()

    w_mat = r_inv.T @ g @ r_inv
    top_eig = float(np.linalg.eigvalsh(w_mat)[-1])

    lam_final = max(2.0 * delta / max(n_sampled, 1), 1e-12)
    lam_start = lam_final * (2.0 ** (AGD_STAGES - 1))

    best_x, best_l1 = x0, warm_val
    sent, sent_total = [[0] * d for _ in sa_int], [0] * d  # last pieces and total, as decoded
    for stage in range(AGD_STAGES):
        lam = lam_start / (2.0 ** stage)
        sigma = delta / max(theta, 1e-12) / (2.0 ** stage)
        beta = top_eig / lam + sigma
        step = 1.0 / beta
        y = z.copy()
        theta_k = 1.0
        for _ in range(per_stage):
            net.mark_round()
            pieces = gradient_exchange(sa_int, sb_float, r_inv, y, lam, k)
            for sid, piece in enumerate(pieces, start=1):
                sent[sid - 1] = _delta_send(sent[sid - 1], piece, net.to_coordinator, sid, "grad")
            grad_sum = [sum(col) for col in zip(*sent)]
            sent_total = _delta_send(sent_total, grad_sum, net.to_all_servers, "grad-total")
            grad = 2.0**-k * (r_inv.T @ np.array(sent_total, dtype=float)) + sigma * (y - z0)
            z_new = y - step * grad
            theta_new = (1.0 + math.sqrt(1.0 + 4.0 * theta_k * theta_k)) / 2.0
            y = z_new + ((theta_k - 1.0) / theta_new) * (z_new - z)
            z, theta_k = z_new, theta_new
        x_stage = r_inv @ z
        l1_stage = sampled_l1(x_stage, "stage-value")
        if l1_stage < best_l1:
            best_x, best_l1 = x_stage, l1_stage

    value = float(
        _value_round(instance, net, [Fraction(float(v)) for v in best_x], "residual-l1", 1)
    )
    return ProtocolOutcome(
        "SOLVED",
        x=tuple(float(v) for v in best_x),
        value=value,
        iterations=total_iters,
        extra={"sampled_value": best_l1, "sampled_views": sampled_views},
    )


# ---------------------------------------------------------------------------
# l-infinity and lp regression via linear programming
# ---------------------------------------------------------------------------


def linf_lp_instance(instance: Instance) -> Instance:
    """The 2n-constraint, (d+1)-variable LP whose optimum is the minimax fit."""
    d = instance.d
    rows = []
    rhs = []
    part = []
    for i, (row, b) in enumerate(zip(instance.A, instance.b)):
        owner = instance.partition[i]
        rows.append(tuple(row) + (-1,))
        rhs.append(b)
        part.append(owner)
        rows.append(tuple(-v for v in row) + (-1,))
        rhs.append(-b)
        part.append(owner)
    c = tuple([0] * d + [-1])  # maximize -v
    return Instance(
        "linf-lp", len(rows), d + 1, instance.L, instance.s,
        tuple(rows), tuple(rhs), c, tuple(part),
    )


def linf_regression(
    instance: Instance, net: Network, stream: Stream, cfg: Constants
) -> ProtocolOutcome:
    lp = linf_lp_instance(instance)
    out = clarkson(lp, net, stream, cfg)
    if out.status != "SOLVED":
        return out
    x = out.x[: instance.d]
    return ProtocolOutcome("SOLVED", x=x, value=out.x[instance.d], iterations=out.iterations)


# Bounds on `lp_norm_fit`'s loops.  Away from an exact fit the descent stopped
# within 16 steps on GenSpec regression instances (n <= 2000, d <= 4,
# 2.5 <= p <= 10).  On an exact fit each Newton step only shrinks the residual
# by (p-2)/(p-1), and the step bound ends that crawl.  60 halvings take a step
# past double resolution for any step comparable to x.
LP_NEWTON_STEPS = 50
LP_HALVINGS = 60


def lp_norm_fit(rows: np.ndarray, p: float) -> tuple[np.ndarray, float]:
    """(x, sum |a x - b|^p) over the rows [a | b] at the minimizer for p > 2, by
    damped Newton from least squares.

    The gradient is a^T(sign(r)|r|^(p-1)) and the Hessian (p-1) a^T diag(|r|^(p-2)) a
    (second-order steps as in Adil, Kyng, Peng & Sachdeva, SODA 2019).  The
    Hessian is singular on an exact fit and on rank-deficient `a`, so the Newton
    system is solved by least squares.  A step is halved until the objective
    does not rise; the descent stops once it no longer falls or reaches 0.
    Rows with a = 0 add the constant sum |b|^p whatever x is, so they stay out
    of the descent: beside a large constant, the test that the objective falls
    would only see changes above the constant's last bit and stop early.
    """
    zero = ~rows[:, :-1].any(axis=1)
    with np.errstate(over="ignore"):
        constant = float(np.sum(np.abs(rows[zero, -1]) ** p))
    fit = rows[~zero]
    a, b = fit[:, :-1], fit[:, -1]

    def objective(x):
        with np.errstate(over="ignore"):
            return float(np.sum(np.abs(a @ x - b) ** p))

    x = np.linalg.lstsq(a, b, rcond=None)[0]
    fx = objective(x)
    if not math.isfinite(fx + constant):
        raise SizeGuardError(f"sum |r|^{p} at the least-squares fit overflows doubles")
    for _ in range(LP_NEWTON_STEPS):
        if fx == 0.0:
            break
        r = a @ x - b
        w = np.abs(r) ** (p - 2)
        step = np.linalg.lstsq((p - 1) * (a.T * w) @ a, a.T @ (w * r), rcond=None)[0]
        for _ in range(LP_HALVINGS):
            f_new = objective(x - step)
            if f_new <= fx:
                break
            step = step / 2
        if not f_new < fx:
            break
        x, fx = x - step, f_new
    return x, fx + constant


def lp_regression(
    instance: Instance,
    net: Network,
    stream: Stream,
    cfg: Constants,
    p: float = 4.0,
    eps: float = 0.5,
) -> ProtocolOutcome:
    """Gather the input, minimize ||Ax-b||_p at the coordinator in doubles, report it.

    A max-stability embedding into l-infinity blocks (Woodruff & Zhang, COLT
    2013) saves communication only beside an l-infinity protocol whose cost
    does not grow with n.  There is none here, so the servers send their rows
    once and the coordinator solves directly (`lp_norm_fit`).  That meets the
    (1+3 eps) guarantee callers check for every eps in (0, 1).
    """
    if p <= 2:
        raise ValueError("lp-embed needs p > 2")
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    views = [instance.server_aug_rows(sid) for sid in range(1, instance.s + 1)]
    x, total = lp_norm_fit(np.array(net.gather("rows", views), dtype=float), p)
    return ProtocolOutcome("SOLVED", x=tuple(float(v) for v in x), value=total ** (1.0 / p))
