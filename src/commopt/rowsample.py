"""Row sampling: leverage-score halving, Lewis-weight iteration, sampling plans.

Each level of the recursion shares one exact d x d Gram through
`_shared_gram`, the package's one Gram exchange: every server sends the upper
triangle of the integer Gram of its sampled, integer-rescaled rows and the
coordinator sends back the summed triangle, which the servers score against
in double precision (the protocols only ever need constant-factor accuracy).
A final sample goes to the coordinator alone as rows, since it solves on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .commsim import Network, ProtocolOutcome
from .config import Constants
from .exactnum import gram
from .instances import Instance
from .rng import Stream

MAX_RESCALE = 1 << 40
# Leverage-score recursion bottoms out at LEVERAGE_C0 * d * ceil(log2(d+1)) rows.
LEVERAGE_C0 = 4
# Lewis-weight clamp floor exponent multiplier: B = LEWIS_C1 * L * ceil(log2(n*d)).
LEWIS_C1 = 2
# An eigenvalue of the Gram counts as nonzero above EIG_RTOL * d * lambda_max:
# eigh errs by about 2.2e-16 * d * lambda_max, 1e4 below it.  The Gram squares
# the rows' condition number, so rows conditioned beyond ~1e6 / sqrt(d) lose
# their weakest directions.
EIG_RTOL = 1e-12
# A row escapes the kept eigenspace (tau = +inf) when ||a||^2 - ||V^T a||^2
# exceeds ESCAPE_RTOL * ||a||^2: rounding leaves ~1e-15 * ||a||^2 for a row
# inside it, and eigenvector error adds about (2.2e-16 * condition of G)^2,
# which stays under 1e-9 while that condition stays under ~1e11.
ESCAPE_RTOL = 1e-9


def _exponent(m) -> int:
    """Binary exponent of the largest |entry| of a float array or integer rows."""
    if isinstance(m, np.ndarray):
        return math.frexp(float(np.abs(m).max(initial=0.0)))[1]
    return max((abs(v) for row in m for v in row), default=0).bit_length()


def _scaled_floats(m, k: int) -> np.ndarray:
    """m * 2^-k in doubles; integer entries are divided exactly, then rounded once."""
    if isinstance(m, np.ndarray):
        return np.ldexp(m, -k)
    return np.array([[v / (1 << k) for v in row] for row in m], dtype=float)


def leverage_scores_float(a_rows, g) -> np.ndarray:
    """Generalized leverage scores a^T G^+ a of the rows of A, where G = B^T B
    is the Gram of some rows B (exact integers or a float array), in doubles.

    Rows outside the row space of B get +inf, matching the exact scorer, and
    zero rows get 0.  An empty G (no rows B) scores every nonzero row +inf.
    """
    if len(g) == 0:
        return np.array([np.inf if any(row) else 0.0 for row in a_rows])
    try:
        a = np.asarray(a_rows, dtype=float)
    except OverflowError:  # integer entries beyond double range
        a = a_rows
    # One shift: a * 2^-k and G * 2^-2k leave every tau unchanged.  k > 0 only
    # when an entry would leave double range; it brings a under 2^500 and G
    # under 2^1000, so squares and sums of them stay finite.
    k = max(0, _exponent(a) - 500, (_exponent(g) - 999) // 2)
    a = _scaled_floats(a, k).reshape(-1, len(g))
    lam, vec = np.linalg.eigh(_scaled_floats(g, 2 * k))
    keep = lam > max(lam[-1], 0.0) * EIG_RTOL * len(lam)
    proj = a @ vec[:, keep]
    norms = np.einsum("ij,ij->i", a, a)
    resid = norms - np.einsum("ij,ij->i", proj, proj)
    tau = np.einsum("ij,ij->i", proj, proj / lam[keep])
    tau[resid > ESCAPE_RTOL * norms] = np.inf
    tau[norms == 0.0] = 0.0
    return tau


# ---------------------------------------------------------------------------
# Sampling plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SamplingPlan:
    """Per-row sampling values with power-of-two rescale factors."""

    values: tuple  # p_i, each an exact power of two in [2^-80, 1]
    norm: str  # "l2" | "l1"
    N: int

    def rescale(self, i: int) -> int:
        p = self.values[i]
        r = 1.0 / math.sqrt(p) if self.norm == "l2" else 1.0 / p
        return int(round(r))

    def draw(self, rows, k: int, stream: Stream) -> list[tuple]:
        """k independent draws of rows by value, each times its integer rescale."""
        return [
            tuple(v * self.rescale(i) for v in rows[i])
            for i in stream.draw_weighted(self.values, k)
        ]


def _pow2_round_up(p: float, norm: str) -> float:
    """Round the sampling value up so its rescale factor is a power of two."""
    if p >= 1.0:
        return 1.0
    r = 1.0 / math.sqrt(p) if norm == "l2" else 1.0 / p
    r2 = 2 ** math.floor(math.log2(r))  # rescale rounds down => p rounds up
    r2 = min(max(r2, 1), MAX_RESCALE)
    return 1.0 / (r2 * r2) if norm == "l2" else 1.0 / r2


def make_plan(scores, target: float, norm: str) -> SamplingPlan:
    """Sampling values proportional to the scores, capped at one row each."""
    finite = [1.0 if math.isinf(t) else max(float(t), 0.0) for t in scores]
    total = sum(finite)
    if total <= 0.0:
        raise ValueError("all sampling scores vanish")
    vals = []
    for t, f in zip(scores, finite):
        raw = 1.0 if math.isinf(t) else min(1.0, f * target / total)
        vals.append(_pow2_round_up(max(raw, 2 ** -80), norm))
    n = math.ceil(sum(vals))
    return SamplingPlan(tuple(vals), norm, n)


# ---------------------------------------------------------------------------
# Distributed leverage-score approximation (recursive halving)
# ---------------------------------------------------------------------------


def _distributed_draws(server_views, plans, net: Network, stream: Stream, tag: str):
    """Run one sampling round across servers; yields (server id, drawn rows)
    for each server that draws, right after it learns its draw count.

    The number of draws per server is decided by the coordinator from the
    advertised local sampling mass; the caller ships what each server drew.
    """
    masses = [sum(plan.values) if plan else 0.0 for plan in plans]
    for sid, mass in enumerate(masses, start=1):
        net.to_coordinator(sid, f"{tag}-mass", Fraction(mass))
    n_draws = math.ceil(sum(masses))
    if n_draws == 0:
        return
    counts = stream.split(tag, "counts").multinomial(n_draws, masses)
    for sid, (view, plan, count) in enumerate(zip(server_views, plans, counts), start=1):
        net.to_server(sid, f"{tag}-count", count)
        if count and plan:
            yield sid, plan.draw(view, count, stream.split(tag, "draw", sid))


def _distributed_sample(server_views, plans, net: Network, stream: Stream, tag: str):
    """One sampling round whose sampled, integer-rescaled rows all go to the
    coordinator; returns them stacked in server order."""
    gathered: list[tuple] = []
    for sid, rows in _distributed_draws(server_views, plans, net, stream, tag):
        net.to_coordinator(sid, f"{tag}-rows", [list(r) for r in rows])
        gathered.extend(rows)
    return gathered


def _shared_gram(server_rows, d: int, net: Network, kind: str, share: bool = True):
    """The one Gram exchange.  Each server with rows sends the upper triangle
    of its exact Gram (row i holds entries i..d-1); the coordinator sums the
    triangles and, if `share`, sends every server the summed triangle.
    Returns (the full symmetric sum, row count), or ([], 0)."""
    total = [[0] * (d - i) for i in range(d)]
    count = 0
    for sid, rows in server_rows:
        if rows:
            g = gram(rows)
            local = net.to_coordinator(sid, kind, [g[i][i:] for i in range(d)])
            total = [[u + v for u, v in zip(tr, lr)] for tr, lr in zip(total, local)]
            count += len(rows)
    if not count:
        return [], 0
    if share:
        net.to_all_servers(kind, total)
    return [[total[min(i, j)][abs(i - j)] for j in range(d)] for i in range(d)], count


def _halving_gram(server_views, d: int, net: Network, stream: Stream, cfg: Constants, depth: int = 0):
    """(Gram every party holds, number of rows behind it).

    Each level draws rows scored against the level below's Gram, with the
    unsampled-row correction, and shares their Gram; it keeps the level
    below's when it draws none.  The base case shares the Gram of every row.
    """
    n = sum(len(v) for v in server_views)
    threshold = LEVERAGE_C0 * d * max(1, math.ceil(math.log2(d + 1)))
    if n <= threshold:
        return _shared_gram(enumerate(server_views, start=1), d, net, "base-gram")

    # Halve locally, recurse on the sampled halves.
    child_views = []
    sampled_masks = []
    for sid, view in enumerate(server_views, start=1):
        idx = list(range(len(view)))
        stream.split("half", depth, sid).shuffle(idx)
        keep = sorted(idx[: len(view) // 2])
        mask = np.zeros(len(view), dtype=bool)
        mask[keep] = True
        sampled_masks.append(mask)
        child_views.append([view[i] for i in keep])
    g_prime, rows_prime = _halving_gram(child_views, d, net, stream, cfg, depth + 1)

    plans = []
    log_d = max(1.0, math.log2(d + 1))
    for view, mask in zip(server_views, sampled_masks):
        if not view:
            plans.append(None)
            continue
        tau = leverage_scores_float(view, g_prime)
        eff = np.where(
            mask,
            tau,
            np.where(np.isinf(tau), 1.0, np.where(tau == 0.0, 0.0, 1.0 / (1.0 + 1.0 / np.maximum(tau, 1e-300)))),
        )
        raw = [
            1.0 if math.isinf(t) else min(1.0, cfg.sampling_c * float(t) * log_d)
            for t in eff
        ]
        vals = tuple(_pow2_round_up(max(r, 2 ** -80), "l2") for r in raw)
        plans.append(SamplingPlan(vals, "l2", math.ceil(sum(vals))))

    draws = _distributed_draws(server_views, plans, net, stream, f"lev{depth}")
    g_level, rows_level = _shared_gram(draws, d, net, f"lev{depth}-gram")
    return (g_level, rows_level) if rows_level else (g_prime, rows_prime)


def leverage_protocol(server_views, d: int, net: Network, stream: Stream, cfg: Constants):
    """Approximate leverage scores by recursive halving.

    Returns (number of rows behind the shared Gram, per-server score arrays).
    The shared Gram approximates the stacked view's in the spectral sense;
    each server scores its rows against it.
    """
    g, n_rows = _halving_gram(server_views, d, net, stream, cfg)
    taus = [
        leverage_scores_float(view, g) if view else np.zeros(0)
        for view in server_views
    ]
    return n_rows, taus


# ---------------------------------------------------------------------------
# Lewis weights
# ---------------------------------------------------------------------------


def lewis_iterations(n: int) -> int:
    return math.ceil(math.log2(math.log2(max(n, 4)))) + 3


def lewis_protocol(server_views, d: int, L: int, net: Network, stream: Stream, cfg: Constants):
    """Distributed fixed-point iteration w <- sqrt(w * tau(W^(-1/2) A)).

    Weight scalings travel as integers (rounded w^(-1/2)), so the leverage
    subprotocol only ever ships integer rows.  Weights stay in (0, 1].
    """
    n = sum(len(v) for v in server_views)
    for view in server_views:
        for row in view:
            if not any(row):
                raise ValueError("lewis weights need every row to have a nonzero entry")
    floor_exp = LEWIS_C1 * max(L, 1) * max(1, math.ceil(math.log2(max(n * d, 2))))
    w_floor = max(2.0 ** -min(floor_exp, 1000), 5e-324)

    weights = [np.ones(len(view)) for view in server_views]
    for t in range(lewis_iterations(n)):
        scaled_views = []
        for view, w in zip(server_views, weights):
            scales = [max(1, round(1.0 / math.sqrt(wi))) for wi in w]
            scaled_views.append(
                [tuple(v * s for v in row) for row, s in zip(view, scales)]
            )
        _, taus = leverage_protocol(scaled_views, d, net, stream.split("lewis", t), cfg)
        for sid in range(len(server_views)):
            tau = np.where(np.isfinite(taus[sid]), taus[sid], 1.0)
            tau = np.clip(tau, 0.0, 1.0)
            weights[sid] = np.clip(np.sqrt(weights[sid] * tau), w_floor, 1.0)
    return weights


def lewis_weights_local(rows) -> np.ndarray:
    """Local Lewis-weight iteration with float leverage scores (no messages)."""
    a = np.asarray(rows, dtype=float)
    w = np.ones(len(a))
    for _ in range(lewis_iterations(len(a))):
        scaled = a / np.sqrt(w)[:, None]
        tau = leverage_scores_float(scaled, scaled.T @ scaled)
        tau = np.clip(np.where(np.isfinite(tau), tau, 1.0), 0.0, 1.0)
        w = np.clip(np.sqrt(w * tau), 1e-300, 1.0)
    return w


# ---------------------------------------------------------------------------
# Registry entry points
# ---------------------------------------------------------------------------


def _views_from_instance(instance: Instance):
    return [instance.server_rows(sid) for sid in range(1, instance.s + 1)]


def leverage_protocol_entry(
    instance: Instance, net: Network, stream: Stream, cfg: Constants
) -> ProtocolOutcome:
    views = _views_from_instance(instance)
    _, taus = leverage_protocol(views, instance.d, net, stream, cfg)
    flat = [float(t) for tau in taus for t in tau]
    return ProtocolOutcome(
        "OK",
        value=float(sum(min(t, 1.0) for t in flat)),
        extra={"scores": flat},
    )


def lewis_protocol_entry(
    instance: Instance, net: Network, stream: Stream, cfg: Constants
) -> ProtocolOutcome:
    views = _views_from_instance(instance)
    weights = lewis_protocol(views, instance.d, instance.L, net, stream, cfg)
    flat = [float(w) for ws in weights for w in ws]
    return ProtocolOutcome("OK", value=float(sum(flat)), extra={"weights": flat})
