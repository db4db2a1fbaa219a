"""Regression protocols: exact paths, sampled paths, AGD, and the lp solve."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commopt import regression
from commopt.cli import _lp_norm_opt
from commopt.commsim import COORDINATOR, MODES, Network, run_protocol, server
from commopt.exactnum import dot, gram, solve_normal
from commopt.instances import GenSpec, Instance, gen_random
from commopt.lpsolve import SizeGuardError, lp_exact_oracle
from commopt.regression import (
    _value_round,
    gradient_exchange,
    huber_smooth,
    l1_exact_oracle,
    l2_sq_norm,
    linf_lp_instance,
    smoothed_value,
)
from commopt.rng import Stream


def huber_smooth_grad(t, lam: float) -> np.ndarray:
    """Reference derivative of `huber_smooth` in t, elementwise."""
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) <= lam, t / lam, np.sign(t))


def reference_gradient(server_sa, server_sb, r_inv, z, lam, sigma, z0) -> np.ndarray:
    """Reference float gradient of `smoothed_value` in z."""
    u = r_inv @ z
    h_sum = sum(
        (huber_smooth_grad(sa @ u - sb, lam) @ sa for sa, sb in zip(server_sa, server_sb)),
        np.zeros(len(z)),
    )
    return r_inv.T @ h_sum + sigma * (z - z0)


def decoded_gradient(pieces, r_inv, z, sigma, z0, k) -> np.ndarray:
    """The gradient every l1-agd party decodes from the servers' integer pieces."""
    total = np.array([sum(col) for col in zip(*pieces)], dtype=float)
    return 2.0**-k * (r_inv.T @ total) + sigma * (z - z0)


def reg_instance(rows, rhs, partition, kind="regression", c=None, L=None):
    s = max(partition)
    d = len(rows[0])
    if L is None:
        L = max(max(abs(v).bit_length() for row in rows for v in row), 1)
    return Instance(kind, len(rows), d, L, s, tuple(tuple(r) for r in rows), tuple(rhs), c, tuple(partition))


# -- l2 ----------------------------------------------------------------------


def test_l2_exact_identity():
    inst = reg_instance([[1, 0], [0, 1]], [1, 2], [1, 2])
    out, _ = run_protocol("l2-exact", inst)
    assert out.x == (1, 2)
    assert out.value == 0.0


def test_l2_exact_mean():
    inst = reg_instance([[1], [1]], [0, 2], [1, 2])
    out, _ = run_protocol("l2-exact", inst)
    assert out.x == (1,)


def test_l2_exact_overdetermined():
    inst = reg_instance([[1, 0], [0, 1], [1, 1]], [1, 1, 0], [1, 1, 2])
    out, _ = run_protocol("l2-exact", inst)
    assert out.x == (Fraction(1, 3), Fraction(1, 3))


@st.composite
def l2_runs(draw):
    """Small integer instances, some with a dependent column or idle servers, and a mode."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    entry = st.integers(-6, 6)
    rows = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=n, max_size=n))
    if d > 1 and draw(st.booleans()):
        k = draw(st.integers(-2, 2))
        rows = [row[:-1] + [k * row[0]] for row in rows]  # G = A^T A is singular
    rhs = draw(st.lists(entry, min_size=n, max_size=n))
    partition = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    inst = reg_instance(rows, rhs, partition)
    inst = dataclasses.replace(inst, s=inst.s + draw(st.integers(0, 2)))
    return inst, draw(st.sampled_from(MODES))


@settings(max_examples=300, deadline=None)
@given(l2_runs())
def test_l2_exact_value_is_residual_of_its_x(case):
    # The value comes from b^T b - x.A^T b, never from a broadcast x.
    inst, mode = case
    out, transcript = run_protocol("l2-exact", inst, mode)
    assert out.value == math.sqrt(float(l2_sq_norm(inst.A, inst.b, out.x)))
    assert transcript.count_kind("solution") == 0


@settings(max_examples=100, deadline=None)
@given(l2_runs())
def test_l2_exact_sends_one_gram_triangle_per_server(case):
    # One `gram` message from each server that holds rows and nothing else:
    # the triangles sum to the upper triangle of the stacked [A | b]'s Gram.
    inst, mode = case
    _, transcript = run_protocol("l2-exact", inst, mode)
    assert [(m.kind, m.sender.index) for m in transcript.messages] == [
        ("gram", sid) for sid in sorted(set(inst.partition))
    ]
    total = [
        [sum(col) for col in zip(*rows)] for rows in zip(*(m.payload for m in transcript.messages))
    ]
    full = gram([(*a, b) for a, b in zip(inst.A, inst.b)])
    assert total == [row[i:] for i, row in enumerate(full)]


COORDS = st.one_of(
    st.integers(-9, 9),
    st.fractions(max_denominator=60),
    st.floats(-1e6, 1e6, allow_nan=False).map(Fraction),  # denominators up to 2**1074
)


@settings(max_examples=300, deadline=None)
@given(l2_runs(), st.data())
def test_value_round_equals_fraction_residual_sums(case, data):
    inst, mode = case
    x = data.draw(st.lists(COORDS, min_size=inst.d, max_size=inst.d))
    for power, kind in ((1, "residual-l1"), (2, "residual-sq")):
        net = Network(mode, inst.s)
        total = _value_round(inst, net, x, kind, power)
        pieces = [m.payload for m in net.transcript.messages if m.kind == kind]
        assert len(pieces) == inst.s  # idle servers send 0
        for sid, piece in enumerate(pieces, start=1):
            rows = inst.rows_of(sid)
            assert piece == sum(abs(dot(inst.A[i], x) - inst.b[i]) ** power for i in rows)
        assert total == sum(pieces)
    assert total == l2_sq_norm(inst.A, inst.b, x)


def test_l2_sampled_exact_fit_zero():
    stream = Stream(3).split("fit")
    d = 3
    x0 = [stream.randint(-4, 4) for _ in range(d)]
    rows = [tuple(stream.randint(-8, 8) for _ in range(d)) for _ in range(120)]
    rhs = [sum(a * x for a, x in zip(row, x0)) for row in rows]
    inst = reg_instance(rows, rhs, [(i % 3) + 1 for i in range(120)])
    out, _ = run_protocol("l2-sampled", inst, seed=5, eps=0.5)
    assert out.value == 0.0


def coordinator_kinds(transcript) -> set:
    return {m.kind for m in transcript.messages if m.sender.kind == "coordinator"}


def test_l2_sampled_below_budget_equals_exact():
    # The coordinator holds every row, so the gather is the only round.
    inst = gen_random(GenSpec("regression", n=12, d=3, L=6, s=2, seed=4))
    exact, _ = run_protocol("l2-exact", inst)
    for mode in MODES:
        sampled, transcript = run_protocol("l2-sampled", inst, mode, seed=8, eps=0.5)
        assert sampled.x == exact.x
        assert sampled.value == exact.value
        assert sampled.value == math.sqrt(float(l2_sq_norm(inst.A, inst.b, sampled.x)))
        assert {m.kind for m in transcript.messages} == {"rows"}


def test_l2_sampled_approximation_quality():
    good = 0
    runs = 20
    for seed in range(runs):
        inst = gen_random(GenSpec("regression", n=500, d=4, L=6, s=4, seed=600 + seed))
        exact, _ = run_protocol("l2-exact", inst)
        sampled, transcript = run_protocol("l2-sampled", inst, seed=seed, eps=0.5)
        # The sample goes to the coordinator only; nothing sends it back down.
        assert transcript.count_kind("l2samp-rows") > 0
        assert "l2samp-rows" not in coordinator_kinds(transcript)
        assert sampled.value >= exact.value - 1e-9  # sanity floor
        good += sampled.value <= 1.5 * exact.value + 1e-9
    assert good >= 0.9 * runs


# -- l1 oracle ----------------------------------------------------------------


def test_l1_oracle_median():
    res = l1_exact_oracle([[1], [1], [1]], [0, 1, 5])
    assert res.x == (1,)
    assert res.value == 5


def test_l1_oracle_exact_fit():
    res = l1_exact_oracle([[1, 0], [0, 1]], [3, 4])
    assert res.x == (3, 4)
    assert res.value == 0


def test_l1_oracle_flat_optimum():
    res = l1_exact_oracle([[1], [1]], [0, 2])
    assert res.value == 2
    assert 0 <= res.x[0] <= 2


def test_l1_oracle_matches_slack_lp():
    # Independent cross-check: minimize the sum of slacks as an explicit LP,
    # solved by the exact incremental LP engine.
    from commopt.lpsolve import solve_lp

    stream = Stream(21).split("l1lp")
    for trial in range(10):
        n, d = 4, 2
        rows = [[stream.randint(-5, 5) for _ in range(d)] for _ in range(n)]
        rhs = [stream.randint(-5, 5) for _ in range(n)]
        res = l1_exact_oracle(rows, rhs)
        halfspaces = []
        for i in range(n):
            slack = tuple(Fraction(-1 if j == i else 0) for j in range(n))
            halfspaces.append(
                (tuple(Fraction(v) for v in rows[i]) + slack, Fraction(rhs[i]))
            )
            halfspaces.append(
                (tuple(Fraction(-v) for v in rows[i]) + slack, Fraction(-rhs[i]))
            )
        c = [Fraction(0)] * d + [Fraction(-1)] * n
        status, _, value = solve_lp(halfspaces, c, stream.split("order", trial))
        assert status == "SOLVED"
        assert res.value == -value


def l1_paths(rows, rhs):
    """`l1_minimize_exact`'s answer, the descent's alone, and whether the certificate fired."""
    helper = regression._l1_certified_optimum
    fired = []

    def spy(*args):
        out = helper(*args)
        fired.append(out is not None)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regression, "_l1_certified_optimum", spy)
        got = regression.l1_minimize_exact(rows, rhs)
        mp.setattr(regression, "_l1_certified_optimum", lambda *args: None)
        descent = regression.l1_minimize_exact(rows, rhs)
    return got, descent, any(fired)


@st.composite
def l1_inputs(draw):
    """Small l1 inputs rich in duplicate, tied and zero rows and exact fits.

    At most seven nonzero rows keep the descent's kink subproblem within its
    degeneracy guard, so both paths always return.
    """
    d = draw(st.integers(1, 3))
    entry = st.integers(-3, 3)
    rows = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=1, max_size=5))
    rhs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
    for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2)):
        rows.append(list(rows[i]))  # a duplicate, or a tie with another right-hand side
        rhs.append(rhs[i] if draw(st.booleans()) else draw(entry))
    if draw(st.booleans()):
        x0 = draw(st.lists(entry, min_size=d, max_size=d))
        rhs = [dot(row, x0) for row in rows]  # exact fit
    if draw(st.booleans()):
        rows.append([0] * d)
        rhs.append(draw(entry))
    if draw(st.booleans()):
        rhs = [Fraction(b, 2) for b in rhs]
    return rows, rhs


@settings(max_examples=300, deadline=None)
@given(l1_inputs())
def test_l1_certificate_matches_descent(case):
    rows, rhs = case
    got, descent, certified = l1_paths(rows, rhs)
    assert repr(got) == repr(descent)
    if any(isinstance(b, Fraction) for b in rhs):
        assert not certified  # rational inputs take the descent


@pytest.mark.parametrize("rows,rhs,certified", [
    ([[1], [1]], [0, 2], False),  # flat optimum: every x in [0, 2]
    ([[1], [1], [1], [1]], [0, 0, 2, 2], False),  # even count of equal rows, merged
    ([[1, 0], [1, 0], [0, 1]], [0, 2, 5], False),  # flat in the first coordinate
    ([[1], [1], [1]], [0, 1, 5], True),  # weighted median
    ([[1], [1], [1], [2]], [1, 1, 4, 1], True),  # duplicate rows merge to weight 2
    ([[1, 0], [0, 1]], [3, 4], True),  # exact fit, n = d
    ([[1, 0], [0, 1], [1, 1]], [3, 4, 7], False),  # exact fit, n > d
    ([[0, 0], [1, 0], [0, 1], [0, 0]], [5, 3, 4, -2], True),  # zero rows
    ([[1, 1], [2, 2]], [3, 1], False),  # rank below d
    ([[1], [1], [1]], [Fraction(1, 2), 1, 5], False),  # rational input
    ([[10**400], [1], [1]], [0, 1, 5], False),  # beyond double range
])
def test_l1_certificate_cases(rows, rhs, certified):
    got, descent, fired = l1_paths(rows, rhs)
    assert repr(got) == repr(descent)
    assert fired == certified


def test_l1_certificate_fires_on_generic_inputs():
    stream = Stream(14).split("l1cert")
    trials = 60
    fired = 0
    for t in range(trials):
        d = 2 + t % 2
        rows = [[stream.randint(-20, 20) for _ in range(d)] for _ in range(12)]
        rhs = [stream.randint(-20, 20) for _ in range(12)]
        got, descent, certified = l1_paths(rows, rhs)
        assert repr(got) == repr(descent)
        fired += certified
    assert fired >= 0.8 * trials


# -- l1 protocols -------------------------------------------------------------


def test_l1_simple_lossless_equals_oracle():
    inst = gen_random(GenSpec("regression", n=24, d=3, L=5, s=2, seed=11))
    out, _ = run_protocol("l1-simple", inst, seed=2, eps=0.5)
    oracle = l1_exact_oracle(list(inst.A), list(inst.b))
    assert out.value == oracle.value


def test_l1_simple_exact_fit_zero():
    stream = Stream(6).split("fit1")
    x0 = [2, -1, 3]
    rows = [tuple(stream.randint(-6, 6) for _ in range(3)) for _ in range(150)]
    rhs = [sum(a * x for a, x in zip(row, x0)) for row in rows]
    inst = reg_instance(rows, rhs, [(i % 4) + 1 for i in range(150)])
    out, _ = run_protocol("l1-simple", inst, seed=1, eps=0.5)
    assert out.value == 0


def test_l1_simple_approximation():
    good = 0
    runs = 15
    for seed in range(runs):
        inst = gen_random(GenSpec("regression", n=200, d=3, L=5, s=4, seed=700 + seed))
        oracle = l1_exact_oracle(list(inst.A), list(inst.b))
        out, _ = run_protocol("l1-simple", inst, seed=seed, eps=0.5)
        assert out.value >= oracle.value
        good += out.value <= Fraction(3, 2) * oracle.value
    assert good >= 0.9 * runs


def test_l1_lewis_budget_covers_everything():
    # The coordinator holds every row, so the gather is the only round.
    inst = gen_random(GenSpec("regression", n=30, d=3, L=5, s=3, seed=13))
    oracle = l1_exact_oracle(list(inst.A), list(inst.b))
    for mode in MODES:
        out, transcript = run_protocol("l1-lewis", inst, mode, seed=3, eps=0.5)
        assert out.value == oracle.value
        assert {m.kind for m in transcript.messages} == {"rows"}


def test_l1_lewis_true_sampling_path():
    # Above the sample budget the distributed Lewis pipeline really samples,
    # and the sample goes to the coordinator only.
    for seed in range(4):
        inst = gen_random(GenSpec("regression", n=600, d=3, L=5, s=4, seed=5000 + seed))
        out, transcript = run_protocol("l1-lewis", inst, seed=seed, eps=0.5)
        assert out.extra["sampled"] < inst.n
        assert transcript.count_kind("l1samp-rows") > 0
        assert "l1samp-rows" not in coordinator_kinds(transcript)
        oracle = l1_exact_oracle(list(inst.A), list(inst.b))
        assert oracle.value <= out.value <= Fraction(3, 2) * oracle.value


def test_l1_lewis_approximation():
    good = 0
    runs = 12
    for seed in range(runs):
        inst = gen_random(GenSpec("regression", n=300, d=3, L=5, s=4, seed=800 + seed))
        oracle = l1_exact_oracle(list(inst.A), list(inst.b))
        out, _ = run_protocol("l1-lewis", inst, seed=seed, eps=0.5)
        assert out.value >= oracle.value
        good += out.value <= Fraction(3, 2) * oracle.value
    assert good >= 0.85 * runs


# -- smoothing and AGD ---------------------------------------------------------


def test_huber_branches_agree_at_knee():
    lam = 0.7
    assert huber_smooth(lam, lam) == pytest.approx(lam / 2)
    assert huber_smooth(-lam, lam) == pytest.approx(lam / 2)
    assert huber_smooth_grad(lam, lam) == pytest.approx(1.0)
    assert huber_smooth_grad(-lam, lam) == pytest.approx(-1.0)


def test_smoothed_gradient_finite_differences():
    stream = Stream(17).split("fd")
    worst = 0.0
    for trial in range(25):
        n, d = 12, 3
        sa = np.array([[stream.randint(-5, 5) for _ in range(d)] for _ in range(n)], dtype=np.int64)
        sb = np.array([stream.randint(-5, 5) for _ in range(n)], dtype=float)
        r_inv = np.eye(d) + 0.1 * np.array([[stream.gauss() for _ in range(d)] for _ in range(d)])
        z = np.array([stream.gauss() for _ in range(d)])
        z0 = np.zeros(d)
        lam = 2.0 if trial % 2 else 0.05  # exercise both branches
        sigma = 0.3
        # The gradient the protocol uses: decoded from the integer pieces.
        pieces = gradient_exchange([sa], [sb], r_inv, z, lam, 16)
        grad = decoded_gradient(pieces, r_inv, z, sigma, z0, 16)
        h = 1e-6
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            fp = smoothed_value([sa], [sb], r_inv, z + e, lam, sigma, z0)
            fm = smoothed_value([sa], [sb], r_inv, z - e, lam, sigma, z0)
            fd = (fp - fm) / (2 * h)
            denom = max(abs(fd), 1.0)
            worst = max(worst, abs(fd - grad[j]) / denom)
    assert worst < 1e-4


def test_gradient_aggregation_identity():
    # The servers' integer pieces sum, exactly, to the piece of their stacked rows.
    stream = Stream(29).split("agg")
    for _ in range(10):
        d = 3
        server_sa = [
            np.array([[stream.randint(-4, 4) for _ in range(d)] for _ in range(5)], dtype=np.int64)
            for _ in range(3)
        ]
        server_sb = [
            np.array([stream.randint(-4, 4) for _ in range(5)], dtype=float) for _ in range(3)
        ]
        r_inv = np.eye(d) + 0.05 * np.array([[stream.gauss() for _ in range(d)] for _ in range(d)])
        z = np.array([stream.gauss() for _ in range(d)])
        pieces = gradient_exchange(server_sa, server_sb, r_inv, z, 0.8, 16)
        (stacked,) = gradient_exchange(
            [np.vstack(server_sa)], [np.concatenate(server_sb)], r_inv, z, 0.8, 16
        )
        assert [sum(col) for col in zip(*pieces)] == stacked


@st.composite
def grid_cases(draw):
    """Per-server integer rows for one gradient round, with the round's lam set
    so that every row saturates, none does, or some do."""
    d = draw(st.integers(1, 3))
    s = draw(st.integers(1, 3))
    entry = st.integers(-20, 20)
    views = [
        draw(st.lists(st.lists(entry, min_size=d + 1, max_size=d + 1), max_size=6))
        for _ in range(s)
    ]
    views[draw(st.integers(0, s - 1))] = []  # an empty server
    if d == 3 and draw(st.booleans()):
        # Third column c0 - 2 c1: a singular Gram, as in the rank-deficient test.
        views = [[[a, b, a - 2 * b, c] for a, b, _, c in view] for view in views]
    sa = [np.array([r[:-1] for r in v], dtype=np.int64).reshape(-1, d) for v in views]
    sb = [np.array([r[-1] for r in v], dtype=float) for v in views]
    g = sum((a.T @ a for a in sa), np.zeros((d, d))).astype(float)
    r_inv = np.linalg.inv(np.linalg.cholesky(g + 1e-12 * (1.0 + np.trace(g)) * np.eye(d)).T)
    coord = st.floats(-4, 4)
    z, z_other, z0 = (np.array(draw(st.lists(coord, min_size=d, max_size=d))) for _ in range(3))
    res = np.abs(np.concatenate([a @ (r_inv @ z) - b for a, b in zip(sa, sb)]))
    branch = draw(st.sampled_from(["saturated", "quadratic", "mixed"]))
    if branch == "saturated":
        lam = 0.5 * min(res[res > 0], default=1.0)
    elif branch == "quadratic":
        lam = 2.0 * max(res, default=0.0) + 1.0
    else:
        lam = float(np.median(res)) + 1e-3 if len(res) else 1.0
    sigma = draw(st.floats(0, 1))
    return sa, sb, r_inv, z, z_other, z0, lam, sigma, draw(st.integers(0, 24))


@settings(max_examples=300, deadline=None)
@given(grid_cases())
def test_gradient_grid_within_inexact_oracle_bound(case):
    # The gradient decoded from the integer pieces differs from the float
    # reference by an e with |<e, z - z'>| <= 2^-(k+1) (l1(x) + l1(x')), x = R^-1 z.
    sa, sb, r_inv, z, z_other, z0, lam, sigma, k = case
    pieces = gradient_exchange(sa, sb, r_inv, z, lam, k)
    assert all(len(p) == len(z) and all(type(v) is int for v in p) for p in pieces)
    total = [sum(col) for col in zip(*pieces)]
    decoded = decoded_gradient(pieces, r_inv, z, sigma, z0, k)
    grad = reference_gradient(sa, sb, r_inv, z, lam, sigma, z0)

    def l1(zv):
        return sum(float(np.abs(a @ (r_inv @ zv) - b).sum()) for a, b in zip(sa, sb))

    diff = z - z_other
    a_mass = sum((np.abs(a).sum(axis=0) for a in sa), np.zeros(len(z)))
    slack = 1e-9 * (np.abs(r_inv.T) @ a_mass) @ (np.abs(z) + np.abs(z_other) + 1.0)
    bound = 2.0 ** -(k + 1) * (l1(z) + l1(z_other))
    assert abs((decoded - grad) @ diff) <= bound + slack
    # Coordinate by coordinate in x: every row's derivative is rounded to the
    # nearest grid point, so the summed error is at most half a step per row.
    exact = sum((huber_smooth_grad(a @ (r_inv @ z) - b, lam) @ a for a, b in zip(sa, sb)), 0.0)
    err = np.abs(np.array(total, dtype=float) - 2.0**k * exact)
    assert (err <= 0.5 * a_mass + 1e-9 * 2.0**k * (a_mass + 1.0)).all()


def test_l1_agd_exact_fit_warm_start():
    stream = Stream(31).split("agdfit")
    x0 = [1, -2]
    rows = [tuple(stream.randint(-5, 5) for _ in range(2)) for _ in range(60)]
    rows = [r if any(r) else (1, 1) for r in rows]
    rhs = [sum(a * x for a, x in zip(row, x0)) for row in rows]
    inst = reg_instance(rows, rhs, [(i % 2) + 1 for i in range(60)])
    out, _ = run_protocol("l1-agd", inst, seed=2, eps=0.25)
    assert out.value <= 1e-6
    assert out.x[0] == pytest.approx(1.0, abs=1e-6)
    assert out.x[1] == pytest.approx(-2.0, abs=1e-6)


def _agd_warm_start(transcript, d):
    """x0 as every l1-agd party solves it: the normal equations read off the
    coordinator's shared `gram` triangle of the sampled [SA | Sb]."""
    tri = next(m.payload for m in transcript.messages if m.kind == "gram" and m.sender == COORDINATOR)
    full = [[tri[min(i, j)][abs(i - j)] for j in range(d + 1)] for i in range(d + 1)]
    x0 = solve_normal([row[:d] for row in full[:d]], [row[d] for row in full[:d]])
    return [float(v) for v in x0]


def _check_stage_pick(out, transcript, s):
    # The warm start's s `warm-value` pieces and each stage's s `stage-value`
    # pieces, each total summed in server order as the coordinator does.
    # extra["sampled_value"] is the least total, and out.x is the x it was
    # sent at: x0 from the shared `gram` total, or the stage's R^-1 z.
    pieces = {"warm-value": [], "stage-value": []}
    for m in transcript.messages:
        if m.kind in pieces:
            pieces[m.kind].append(m.payload)
    warm, stages = pieces["warm-value"], pieces["stage-value"]
    assert len(warm) == s and len(stages) == s * regression.AGD_STAGES
    totals = []
    for group in [warm] + [stages[i:i + s] for i in range(0, len(stages), s)]:
        total = 0.0
        for piece in group:
            total += piece
        totals.append(total)
    assert out.extra["sampled_value"] == min(totals)
    x = np.array(out.x)
    at_x = [
        float(np.abs(np.asarray(view)[:, :-1] @ x - np.asarray(view)[:, -1]).sum()) if view else 0.0
        for view in out.extra["sampled_views"]
    ]
    best = totals.index(min(totals))
    group = warm if best == 0 else stages[(best - 1) * s:best * s]
    assert at_x == pytest.approx(group, rel=1e-12, abs=1e-12)
    if best == 0:
        assert list(out.x) == _agd_warm_start(transcript, len(out.x))
    return best


def test_l1_agd_picks_least_stage_value():
    picks = []
    for seed in (9, 14, 19, 20):
        inst = gen_random(GenSpec("regression", n=200, d=3, L=6, s=4, seed=33_000 + seed))
        out, transcript = run_protocol("l1-agd", inst, seed=seed, eps=0.25)
        picks.append(_check_stage_pick(out, transcript, inst.s))
    # These runs pick the warm start, an earlier stage and the last stage.
    assert 0 in picks and regression.AGD_STAGES in picks
    assert any(0 < p < regression.AGD_STAGES for p in picks)


def test_l1_agd_near_optimal_on_sample():
    good = 0
    runs = 10
    for seed in range(runs):
        inst = gen_random(GenSpec("regression", n=60, d=2, L=4, s=3, seed=900 + seed))
        out, _ = run_protocol("l1-agd", inst, seed=seed, eps=0.25)
        sampled = [r for view in out.extra["sampled_views"] for r in view]
        oracle = l1_exact_oracle([r[:-1] for r in sampled], [r[-1] for r in sampled])
        achieved = out.extra["sampled_value"]
        assert achieved >= float(oracle.value) - 1e-9
        good += achieved <= 1.25 * float(oracle.value) + 1e-9
    assert good >= 0.8 * runs


def test_l1_agd_sends_presolve_and_warm_values():
    # Servers learn xp, each sends its own piece at xp and at x0, and the
    # coordinator broadcasts the total of the xp pieces, summed in server order.
    inst = gen_random(GenSpec("regression", n=60, d=2, L=4, s=3, seed=900))
    out, transcript = run_protocol("l1-agd", inst, seed=0, eps=0.25)
    by_kind = {}
    for m in transcript.messages:
        by_kind.setdefault(m.kind, []).append(m)
    xp = np.array(by_kind["presolve-solution"][0].payload)
    expected = [
        float(np.abs(np.asarray(view)[:, :-1] @ xp - np.asarray(view)[:, -1]).sum())
        for view in out.extra["sampled_views"]
    ]
    assert [m.sender.index for m in by_kind["presolve-value"]] == [1, 2, 3]
    assert [m.payload for m in by_kind["presolve-value"]] == expected
    total = 0.0
    for piece in expected:
        total += piece
    assert {m.payload for m in by_kind["presolve-total"]} == {total}
    assert [m.sender.index for m in by_kind["warm-value"]] == [1, 2, 3]


def test_l1_agd_sampled_value_is_sent_at_returned_x():
    # extra["sampled_value"] is the sampled l1 at the returned x, and it is the
    # least l1 total the servers sent (see `_check_stage_pick`).
    for seed in range(3):
        inst = gen_random(GenSpec("regression", n=80, d=3, L=5, s=3, seed=950 + seed))
        out, transcript = run_protocol("l1-agd", inst, seed=seed, eps=0.25)
        assert "warm_start" not in out.extra
        x = np.array(out.x)
        expected = 0.0
        for view in out.extra["sampled_views"]:
            if view:
                rows = np.asarray(view)
                expected += float(np.abs(rows[:, :-1] @ x - rows[:, -1]).sum())
        assert out.extra["sampled_value"] == pytest.approx(expected, rel=1e-9)
        _check_stage_pick(out, transcript, inst.s)


def _agd_loop_decoded(transcript, d):
    """Replay l1-agd's delta-coded loop: every `grad` and `grad-total` message,
    in order, with the whole piece or total its receiver decodes, the running
    sum of the differences on that sender-receiver leg."""
    last, decoded = {}, []
    for m in transcript.messages:
        if m.kind in ("grad", "grad-total"):
            leg = (m.kind, m.sender, m.receiver)
            last[leg] = [a + b for a, b in zip(last.get(leg, [0] * d), m.payload or [0] * d)]
            decoded.append((m, last[leg]))
    return decoded


def test_l1_agd_message_shapes():
    # Per iteration: one grad message per server and one grad-total from the
    # coordinator to each; per stage, one float l1 piece per server.  Each grad
    # or grad-total payload is the difference from the sender's previous piece
    # or total on that leg: a d-vector of ints with a nonzero entry, or a 1-bit
    # None when nothing changed.  No value travels per iteration.  Before the
    # loop, each server sends the upper triangle of its sampled [SA | Sb]'s
    # Gram and the coordinator sends each server the summed triangle, once.
    inst = gen_random(GenSpec("regression", n=60, d=2, L=4, s=3, seed=900))
    out, transcript = run_protocol("l1-agd", inst, seed=0, eps=0.25)
    s, d, rounds = inst.s, inst.d, transcript.rounds
    assert rounds == regression.AGD_STAGES * math.ceil(out.iterations / regression.AGD_STAGES)
    by_kind = {}
    for m in transcript.messages:
        by_kind.setdefault(m.kind, []).append(m)

    def ints(payload, size):
        return len(payload) == size and all(type(v) is int for v in payload)

    for kind in ("grad", "grad-total"):
        msgs = by_kind[kind]
        assert len(msgs) == s * rounds
        assert all(m.payload is None or (ints(m.payload, d) and any(m.payload)) for m in msgs)
        assert all(m.bits == 1 for m in msgs if m.payload is None)
    stage_values = by_kind["stage-value"]
    assert len(stage_values) == s * regression.AGD_STAGES
    assert all(type(m.payload) is float for m in stage_values)
    assert not [kind for kind in by_kind if "objective" in kind or kind == "sampled-value"]
    # Each round, servers 1..s send their differences, then every server
    # decodes a total equal to the sum of that round's decoded pieces.
    decoded = _agd_loop_decoded(transcript, d)
    for r in range(rounds):
        grads, totals = decoded[2 * s * r:2 * s * r + s], decoded[2 * s * r + s:2 * s * (r + 1)]
        assert [(m.kind, m.sender.index) for m, _ in grads] == [("grad", i) for i in range(1, s + 1)]
        assert [(m.kind, m.receiver.index) for m, _ in totals] == [
            ("grad-total", i) for i in range(1, s + 1)
        ]
        summed = [sum(col) for col in zip(*(piece for _, piece in grads))]
        assert all(total == summed for _, total in totals)
    grams = by_kind["gram"]
    servers = [server(i) for i in range(1, s + 1)]
    assert [(m.sender, m.receiver) for m in grams] == [(p, COORDINATOR) for p in servers] + [
        (COORDINATOR, p) for p in servers
    ]
    assert all([len(row) for row in m.payload] == list(range(d + 1, 0, -1)) for m in grams)
    assert not {"atb", "btb", "warm-start", "gram-total"} & set(by_kind)
    # After the shared Gram the only matrix payload is the presolve's rows, d + 1 wide.
    after = transcript.messages[transcript.messages.index(grams[-1]) + 1:]
    matrices = [m for m in after if isinstance(m.payload, list) and isinstance(m.payload[0], list)]
    assert {m.kind for m in matrices} == {"presolve-sketch"}
    assert all(len(row) == d + 1 for m in matrices for row in m.payload)


def test_l1_agd_delta_coding_saves_bits():
    # The loop's grad and grad-total messages cost at most 0.85 of what the
    # decoded whole pieces and totals would cost sent as they are (0.65 here).
    inst = gen_random(GenSpec("regression", n=60, d=2, L=4, s=3, seed=900))
    _, transcript = run_protocol("l1-agd", inst, seed=0, eps=0.25)
    decoded = _agd_loop_decoded(transcript, inst.d)
    pricer = Network(transcript.mode, inst.s)
    sent = sum(m.bits for m, _ in decoded)
    whole = sum(pricer.payload_bits(value) for _, value in decoded)
    assert sent <= 0.85 * whole


def test_l1_agd_quiet_server_sends_one_bit_grads():
    # A server with no rows has a zero piece every iteration, so each of its
    # grad messages is a 1-bit None.
    inst = gen_random(GenSpec("regression", n=60, d=2, L=4, s=3, seed=900))
    inst = dataclasses.replace(inst, partition=tuple(1 + i % 2 for i in range(inst.n)))
    out, transcript = run_protocol("l1-agd", inst, seed=0, eps=0.25)
    assert out.status == "SOLVED"
    quiet = [m for m in transcript.messages if m.kind == "grad" and m.sender == server(3)]
    assert len(quiet) == transcript.rounds
    assert all(m.payload is None and m.bits == 1 for m in quiet)


@pytest.mark.parametrize("L", [6, 12, 20])
def test_l1_agd_rank_deficient_gram(L):
    # The third column is c0 - 2 c1, so the sampled Gram is singular; the
    # preconditioner's trace-scaled shift must still factor it at every scale.
    for seed in range(2):
        inst = gen_random(GenSpec("regression", n=200, d=3, L=L, s=4, seed=seed))
        inst = dataclasses.replace(inst, A=tuple((a, b, a - 2 * b) for a, b, _ in inst.A))
        out, _ = run_protocol("l1-agd", inst, seed=seed, eps=0.25)
        assert out.status == "SOLVED"
        sampled = [r for view in out.extra["sampled_views"] for r in view]
        oracle = l1_exact_oracle([r[:-1] for r in sampled], [r[-1] for r in sampled])
        assert out.extra["sampled_value"] <= 1.25 * float(oracle.value) + 1e-9


def test_l1_agd_guards_inexact_float_aggregates():
    # Servers form their gradient pieces in int64.  At L=48 the grid's 2^k
    # times the rows' summed largest entries reaches 2^63, so the pieces could
    # overflow; at L=28 they stay far below it and the protocol runs.
    inst = gen_random(GenSpec("regression", n=12, d=2, L=48, s=2, seed=5))
    with pytest.raises(SizeGuardError):
        run_protocol("l1-agd", inst, seed=1, eps=0.25)
    inst = gen_random(GenSpec("regression", n=12, d=2, L=28, s=2, seed=5))
    out, _ = run_protocol("l1-agd", inst, seed=1, eps=0.25)
    assert out.status == "SOLVED"


# -- l-infinity ----------------------------------------------------------------


def test_linf_exact_fit():
    inst = reg_instance([[1, 0], [0, 1]], [5, 7], [1, 2])
    out, _ = run_protocol("linf", inst)
    assert out.value == 0
    assert out.x == (5, 7)


def test_linf_midpoint():
    inst = reg_instance([[1], [1]], [0, 2], [1, 2])
    out, _ = run_protocol("linf", inst)
    assert out.x == (1,)
    assert out.value == 1


def test_linf_symmetric():
    inst = reg_instance([[1], [-1]], [1, 1], [1, 2])
    out, _ = run_protocol("linf", inst)
    assert out.x == (0,)
    assert out.value == 1


def test_linf_matches_enumeration_oracle():
    for seed in range(10):
        inst = gen_random(GenSpec("regression", n=14, d=2, L=5, s=3, seed=50 + seed))
        out, _ = run_protocol("linf", inst, seed=seed)
        status, x_full, value = lp_exact_oracle(linf_lp_instance(inst))
        assert status == "SOLVED"
        assert out.value == x_full[inst.d]
        assert max(abs(dot(row, out.x) - b) for row, b in zip(inst.A, inst.b)) == out.value


# -- lp ----------------------------------------------------------------------


def test_embed_rejects_small_p():
    inst = reg_instance([[1]], [1], [1])
    with pytest.raises(ValueError):
        run_protocol("lp-embed", inst, p=2.0)


def test_lp_regression_exact_fit():
    stream = Stream(43).split("lpreg")
    x0 = [1, 2]
    rows = [tuple(stream.randint(-4, 4) for _ in range(2)) for _ in range(10)]
    rhs = [sum(a * x for a, x in zip(row, x0)) for row in rows]
    inst = reg_instance(rows, rhs, [(i % 2) + 1 for i in range(10)])
    out, _ = run_protocol("lp-embed", inst, seed=1, p=4.0, eps=0.5)
    assert out.status == "SOLVED"
    assert out.value <= 1e-7


@pytest.mark.parametrize("mode", MODES)
def test_lp_regression_sends_its_input_once(mode):
    # Server 2 holds no rows; the others send theirs in one gather, and
    # nothing else crosses a party boundary.
    inst = reg_instance([[1, 2], [3, -1], [2, 2], [-1, 4]], [4, 5, -3, 1], [1, 1, 3, 3])
    out, transcript = run_protocol("lp-embed", inst, mode, seed=1, p=4.0, eps=0.5)
    assert out.status == "SOLVED"
    gather = Network(mode, inst.s)
    gather.gather("rows", [inst.server_aug_rows(sid) for sid in range(1, inst.s + 1)])
    assert transcript.to_csv() == gather.transcript.to_csv()
    assert [m.sender for m in transcript.messages] == [server(1), server(3)]


def test_lp_regression_one_dimensional_vs_scalar_oracle():
    # Exact scalar minimization of sum |a_i x - b_i|^4 by ternary search.  With
    # |a_i| <= 4 and |b_i| <= 8 the minimizer lies within max |b_i / a_i| <= 8.
    def l4_opt(rows, rhs):
        lo, hi = -10.0, 10.0
        for _ in range(200):
            m1 = lo + (hi - lo) / 3
            m2 = hi - (hi - lo) / 3
            f1 = sum(abs(a[0] * m1 - b) ** 4 for a, b in zip(rows, rhs))
            f2 = sum(abs(a[0] * m2 - b) ** 4 for a, b in zip(rows, rhs))
            if f1 < f2:
                hi = m2
            else:
                lo = m1
        x = (lo + hi) / 2
        return sum(abs(a[0] * x - b) ** 4 for a, b in zip(rows, rhs)) ** 0.25

    stream = Stream(53).split("lp1d")
    good = 0
    runs = 10
    for _ in range(runs):
        n = stream.randint(1, 8)
        rows = [(stream.randint(-4, 4),) for _ in range(n)]
        rhs = [stream.randint(-8, 8) for _ in range(n)]
        inst = reg_instance(rows, rhs, [(i % 2) + 1 for i in range(n)])
        out, _ = run_protocol("lp-embed", inst, p=4.0, eps=0.5)
        opt = l4_opt(inst.A, inst.b)
        assert out.value >= opt - 1e-9
        good += out.value <= (1 + 3 * 0.5) * opt
    assert good >= 0.8 * runs


@st.composite
def lp_fit_cases(draw):
    """(instance, p) with d = 2..4 and n = 1..12, so n < d occurs.  Server 2
    holds no rows; some instances duplicate a column (rank-deficient A) and
    some are exact fits."""
    d = draw(st.integers(2, 4))
    n = draw(st.integers(1, 12))
    rows = [[draw(st.integers(-8, 8)) for _ in range(d)] for _ in range(n)]
    if draw(st.booleans()):
        for row in rows:
            row[-1] = row[0]
    if draw(st.booleans()):
        x0 = [draw(st.integers(-4, 4)) for _ in range(d)]
        rhs = [dot(row, x0) for row in rows]
    else:
        rhs = [draw(st.integers(-16, 16)) for _ in range(n)]
    partition = [draw(st.sampled_from([1, 3])) for _ in range(n - 1)] + [3]
    return reg_instance(rows, rhs, partition), draw(st.sampled_from([3.0, 4.0, 6.0]))


@settings(max_examples=300, deadline=None)
@given(lp_fit_cases())
# Two zero rows add 2^6 to the objective; inside the descent they would hide
# every decrease below ulp(64) and stop it with a gradient of 5e-9 left.
@example((reg_instance([[0, 0, 0], [0, 0, 1], [0, 0, 5], [0, 0, 0]], [2, 0, 1, 0], [1, 1, 1, 3]), 6.0))
def test_lp_regression_matches_bfgs_and_is_stationary(case):
    inst, p = case
    out, _ = run_protocol("lp-embed", inst, p=p, eps=0.5)
    # BFGS is the weaker solver (it can stop slightly above the optimum), so
    # the two values agree within a relative tolerance, not one-sidedly.
    best = _lp_norm_opt(inst, p)
    assert out.value == pytest.approx(best, rel=1e-6, abs=1e-9)
    # First-order condition.  The descent stops once the objective's decrease
    # drops below double resolution; the objective is flat to second order at
    # the optimum, so the gradient left is about sqrt(2^-52) of its scale.
    a = np.array(inst.A, dtype=float)
    r = a @ np.array(out.x) - np.array(inst.b, dtype=float)
    grad = a.T @ (np.sign(r) * np.abs(r) ** (p - 1))
    scale = np.abs(a).T @ (np.abs(r) ** (p - 1))
    assert np.linalg.norm(grad) <= 1e-6 * np.linalg.norm(scale) + 1e-12
