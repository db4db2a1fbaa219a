"""Leverage-score recursion, Lewis weights, and sampling plans and their draws."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commopt.commsim import COORDINATOR, MODES, Network, run_protocol
from commopt.config import DEFAULTS
from commopt.exactnum import INFINITY, gram, leverage_scores
from commopt.instances import GenSpec, gen_random
from commopt.rng import Stream
from commopt.rowsample import (
    SamplingPlan,
    leverage_protocol,
    leverage_scores_float,
    lewis_protocol,
    lewis_weights_local,
    make_plan,
)


def run_leverage(views, d, seed=0):
    s = len(views)
    net = Network("coordinator", s)
    return leverage_protocol(views, d, net, Stream(seed), DEFAULTS)


def test_float_scorer_matches_exact():
    stream = Stream(1).split("flev")
    rows = [[stream.randint(-6, 6) for _ in range(3)] for _ in range(8)]
    exact = leverage_scores(rows)
    approx = leverage_scores_float(rows, gram(rows))
    for e, a in zip(exact, approx):
        assert abs(float(e) - a) < 1e-9


def test_float_scorer_escape_matches_exact():
    assert leverage_scores_float([[0, 1]], gram([[1, 0]]))[0] == math.inf


@st.composite
def scorer_cases(draw):
    """Small integer rows A and B, B often rank-deficient, A holding zero
    rows, rows of B, sums of two of them and free rows; one common scale."""
    d = draw(st.integers(1, 4))
    row = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    base = draw(st.lists(row, max_size=7))
    if base and draw(st.booleans()):  # a zero column: rank(B) < d
        j = draw(st.integers(0, d - 1))
        base = [r[:j] + [0] + r[j + 1:] for r in base]
    kinds = [row, st.just([0] * d)]
    if base:
        member = st.sampled_from(base)
        kinds += [member, st.tuples(member, member).map(lambda p: [u + v for u, v in zip(*p)])]
    a = draw(st.lists(st.one_of(kinds), min_size=1, max_size=6))
    # 3^360 puts every nonzero Gram entry above 2^1100; 3^700 puts the rows
    # themselves beyond double range.
    scale = draw(st.sampled_from([1, 3 ** 360, 3 ** 700]))
    return [[v * scale for v in r] for r in a], [[v * scale for v in r] for r in base]


@settings(max_examples=150, deadline=None)
@given(scorer_cases())
def test_float_scorer_matches_exact_scorer(case):
    a, base = case
    exact = leverage_scores(a, base=base)
    got = leverage_scores_float(a, gram(base))
    for row, e, f in zip(a, exact, got):
        if e == INFINITY:
            assert f == math.inf
        elif not any(row):
            assert f == 0.0
        else:
            assert f == pytest.approx(float(e), rel=1e-6)


def test_base_case_is_exact():
    views = [[(1, 0), (0, 1)], [(1, 1)]]
    full = [(1, 0), (0, 1), (1, 1)]
    net = Network("coordinator", 2)
    taus = leverage_protocol(views, 2, net, Stream(0), DEFAULTS)
    shared = [m.payload for m in net.transcript.messages if m.sender == COORDINATOR]
    assert shared == [[row[i:] for i, row in enumerate(gram(full))]] * 2
    exact = [float(t) for t in leverage_scores(full)]
    got = [float(t) for tau in taus for t in tau]
    assert got == pytest.approx(exact, rel=1e-12)


def test_identity_below_threshold_scores_one():
    d = 3
    views = [[tuple(1 if i == j else 0 for j in range(d)) for i in range(d)]]
    taus = run_leverage(views, d)
    assert list(taus[0]) == pytest.approx([1.0] * d)


def test_recursion_constant_factor_scores():
    stream = Stream(9).split("big")
    n, d = 400, 5
    rows = [tuple(stream.randint(-(1 << 8), 1 << 8) for _ in range(d)) for _ in range(n)]
    views = [rows[i::4] for i in range(4)]
    taus = run_leverage(views, d, seed=3)
    exact_by_view = [leverage_scores(view, base=rows) for view in views]
    good = total = 0
    for tau, exact in zip(taus, exact_by_view):
        for approx, truth in zip(tau, exact):
            total += 1
            t = float(truth)
            if t == 0:
                good += approx < 1e-9
            elif math.isfinite(approx):
                ratio = approx / t
                good += 0.125 <= ratio <= 8.0
    assert good / total >= 0.9


def test_lewis_square_invertible_weights_one():
    views = [[(2, 0), (0, 3)]]
    net = Network("coordinator", 1)
    weights = lewis_protocol(views, 2, 4, net, Stream(0), DEFAULTS)
    assert list(weights[0]) == pytest.approx([1.0, 1.0], abs=1e-6)


def test_lewis_duplicate_row_half_weights():
    views = [[(1,), (1,)]]
    net = Network("coordinator", 1)
    weights = lewis_protocol(views, 1, 4, net, Stream(0), DEFAULTS)
    assert list(weights[0]) == pytest.approx([0.5, 0.5], abs=0.1)


def test_lewis_weight_sum_near_dimension():
    stream = Stream(4).split("lw")
    n, d = 60, 3
    rows = [tuple(stream.randint(-16, 16) for _ in range(d)) for _ in range(n)]
    views = [rows[i::3] for i in range(3)]
    net = Network("coordinator", 3)
    weights = lewis_protocol(views, d, 5, net, Stream(2), DEFAULTS)
    total = sum(float(w) for ws in weights for w in ws)
    assert d / 2 <= total <= 2 * d
    for ws in weights:
        assert all(0 < w <= 1.0 for w in ws)


def test_lewis_rejects_zero_row():
    views = [[(0, 0), (1, 2)]]
    net = Network("coordinator", 1)
    with pytest.raises(ValueError):
        lewis_protocol(views, 2, 4, net, Stream(0), DEFAULTS)


def test_local_lewis_matches_protocol_fixed_point():
    w = lewis_weights_local([(1,), (1,)])
    assert list(w) == pytest.approx([0.5, 0.5], abs=0.05)


def test_plan_values_are_power_of_two_rescales():
    plan = make_plan([0.9, 0.3, 0.01, 5.0], 3.0, "l2")
    for i, p in enumerate(plan.values):
        r = plan.rescale(i)
        assert r >= 1 and (r & (r - 1)) == 0  # power of two
        assert 1 <= r <= 1 << 40
    plan1 = make_plan([0.5, 0.5], 2.0, "l1")
    for i in range(2):
        r = plan1.rescale(i)
        assert (r & (r - 1)) == 0


def identity_rows(n):
    """Row i is e_i, so a drawn row names its index and its rescale."""
    return [tuple(int(i == j) for j in range(n)) for i in range(n)]


def draws_as_pairs(plan, k, stream):
    """(row index, rescale) of each draw of `plan.draw` on identity rows."""
    pairs = []
    for row in plan.draw(identity_rows(len(plan.values)), k, stream):
        nonzero = [(j, v) for j, v in enumerate(row) if v]
        assert len(nonzero) == 1  # one nonzero per row of S
        pairs.append(nonzero[0])
    return pairs


def test_sampler_single_row_plan():
    plan = SamplingPlan((1.0,), "l2", 1)
    assert draws_as_pairs(plan, plan.N, Stream(0)) == [(0, 1)]
    s_on = plan.draw([(5, 7)], plan.N, Stream(0))
    assert s_on == [(5, 7)]


def test_sampler_uniform_expectation_identity():
    n = 4
    plan = SamplingPlan((1.0,) * n, "l2", n)
    stream = Stream(8).split("esq")
    acc = np.zeros((n, n))
    draws = 10_000
    for _ in range(draws):
        for row in plan.draw(identity_rows(n), plan.N, stream):
            e = np.array(row, dtype=float)
            acc += np.outer(e, e)
    mean = acc / draws
    assert np.abs(mean - np.eye(n)).max() < 0.05


def test_sampler_degenerate_l1_plan():
    plan = SamplingPlan((1.0, 2.0 ** -80), "l1", 1)
    stream = Stream(5).split("deg")
    y = (Fraction(3), Fraction(-9))
    for _ in range(50):
        sampler = draws_as_pairs(plan, plan.N, stream)
        assert all(idx == 0 for idx, _ in sampler)
        total = sum(abs(y[idx]) * scale for idx, scale in sampler)
        assert total == abs(y[0])


def test_sampler_one_nonzero_per_row():
    plan = make_plan([0.4, 0.6, 1.0], 2.0, "l2")
    sampler = draws_as_pairs(plan, plan.N, Stream(3))
    assert len(sampler) == plan.N
    for idx, scale in sampler:
        assert 0 <= idx < 3 and scale >= 1


def test_l2_subspace_embedding_sandwich():
    stream = Stream(17).split("emb")
    hits = trials = 0
    for t in range(10):
        n, d = 200, 4
        rows = [tuple(stream.randint(-32, 32) for _ in range(d)) for _ in range(n)]
        a = np.array(rows, dtype=float)
        tau = leverage_scores_float(rows, gram(rows))
        target = 20.0 * math.log2(d + 1) * 4.0 * d  # C tau log d eps^-2 mass
        plan = make_plan(list(tau), target, "l2")
        sa = np.array(plan.draw(rows, plan.N, stream.split("s", t)), dtype=float)
        ok = True
        for _ in range(100):
            x = np.array([stream.gauss() for _ in range(d)])
            x /= np.linalg.norm(x)
            full = np.linalg.norm(a @ x)
            sket = np.linalg.norm(sa @ x)
            if not (0.5 * full <= sket <= 1.5 * full):
                ok = False
                break
        trials += 1
        hits += ok
    assert hits / trials >= 0.9


def test_leverage_protocol_entry_registered():
    inst = gen_random(GenSpec("regression", n=30, d=3, L=5, s=3, seed=2))
    out, transcript = run_protocol("leverage", inst, seed=1)
    assert out.status == "OK"
    assert transcript.total_bits > 0
    assert len(out.extra["scores"]) == inst.n


# n above every sampling target, so each protocol takes its sampling branch
# (l2-sampled's target is 240, and 960 at c_mult = 4).
SAMPLING_SPEC = GenSpec("regression", n=1000, d=3, L=6, s=3, seed=21)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ["leverage", "lewis", "l2-sampled", "l1-lewis"])
def test_sampling_levels_send_grams_not_rows(name, mode):
    inst = gen_random(SAMPLING_SPEC)
    width = inst.d + 1 if name == "l1-lewis" else inst.d  # l1-lewis weighs [A b]
    _, transcript = run_protocol(name, inst, mode=mode, seed=5)
    kinds = {m.kind for m in transcript.messages}
    assert not [k for k in kinds if re.fullmatch(r"lev\d+-rows|base-rows", k)]
    assert {"base-gram", "lev0-gram"} <= kinds
    for m in transcript.messages:
        if m.kind.endswith("-gram"):
            assert [len(r) for r in m.payload] == [width - i for i in range(width)]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ["leverage", "lewis", "l2-sampled"])
def test_gram_entries_do_not_grow_with_the_sample(name, mode):
    inst = gen_random(SAMPLING_SPEC)
    entries, draws = [], []
    for cfg in (DEFAULTS, DEFAULTS.with_multipliers(c_mult=4)):
        _, transcript = run_protocol(name, inst, mode=mode, seed=5, cfg=cfg)
        msgs = transcript.messages
        entries.append(sum(sum(map(len, m.payload)) for m in msgs if m.kind.endswith("-gram")))
        draws.append(sum(m.payload for m in msgs if m.kind == "lev0-count"))
    assert draws[1] > draws[0]
    assert entries[0] == entries[1] > 0
