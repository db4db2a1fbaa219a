"""Center-of-gravity cutting-plane protocol."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from commopt.commsim import BLACKBOARD_MODE, COORDINATOR_MODE, run_protocol
from commopt.exactnum import dot
from commopt.instances import GenSpec, Instance, gen_random
from commopt.lpsolve import _chord, lp_exact_oracle


def feasibility_instance(rows, rhs, partition, L=1):
    s = max(partition) if partition else 1
    d = len(rows[0]) if rows else 2
    return Instance(
        "lp", len(rows), d, L, s,
        tuple(tuple(r) for r in rows), tuple(rhs), None, tuple(partition),
    )


def test_no_constraints_immediately_feasible():
    inst = feasibility_instance([], [], [])
    out, _ = run_protocol("lp-cog", inst, seed=0)
    assert out.status == "FEASIBLE"
    assert out.iterations == 1


def test_fat_halfspace_box_found():
    # {x in [-1,1]^2 : x_1 >= 1/2}
    rows = [[-1, 0], [1, 0], [-1, 0], [0, 1], [0, -1]]
    rhs = [Fraction(-1, 2), 1, 1, 1, 1]
    inst = feasibility_instance(rows, rhs, [1, 1, 2, 2, 2])
    for seed in range(5):
        out, _ = run_protocol("lp-cog", inst, seed=seed)
        assert out.status == "FEASIBLE"
        assert out.x[0] >= 0.5 - 1e-6
        assert abs(out.x[0]) <= 1 + 1e-6 and abs(out.x[1]) <= 1 + 1e-6


def test_cut_validity_witness_never_excluded():
    rows = [[-1, 0], [1, 0], [0, 1], [0, -1]]
    rhs = [Fraction(-1, 2), 1, 1, 1]
    inst = feasibility_instance(rows, rhs, [1, 1, 2, 2])
    out, _ = run_protocol("lp-cog", inst, seed=3)
    witness = (Fraction(3, 4), Fraction(0))  # interior feasible point
    for a, beta in out.extra["polytope"]:
        assert dot(a, witness) <= beta


def test_volume_shrinks_per_cut():
    # Empty target region: every round produces a cut; survival fraction of
    # the round's samples estimates the per-cut volume ratio.
    rows = [[-1, 0]]
    rhs = [-20000]  # x_1 >= 20000 is outside the initial box
    inst = feasibility_instance(rows, rhs, [1], L=1)
    out, _ = run_protocol("lp-cog", inst, seed=1, rounds_cap=20)
    assert out.status == "EMPTY"
    survival = out.extra["cut_survival"]
    assert len(survival) == 20
    assert all(ratio <= 0.95 for ratio in survival)


def fat_lp(seed):
    """The cog-hit-and-run workload's LP: d = 2, n = 6, L = 1, every generated
    right-hand side lifted by 2^(L-1) = 1 so the origin is strictly interior,
    and a zero objective replaced by e_1."""
    inst = gen_random(GenSpec("lp", 6, 2, 1, 2, seed, True, "random"))
    b = tuple(v + 1 if i < 6 else v for i, v in enumerate(inst.b))
    c = inst.c if any(inst.c) else (1, 0)
    return dataclasses.replace(inst, b=b, c=c)


def test_short_budget_fat_lps_solved():
    # The benchmark's eight runs per workload seed (instance seed 7919*seed + k,
    # protocol seed 1_000_003*seed + k, rounds_cap = 8).  Seeds 10 and 71 hold
    # thin instances: run 7 of seed 10 ends EMPTY at COG_SAMPLE_C = 25 and
    # run 5 of seed 71 at COG_SAMPLE_C = 50.  In eight rounds a thin polytope
    # can end EMPTY at any budget (with other protocol seeds, run 5 of seed 71
    # did for 6 of 300 at 1000*d samples and 38 of 300 at COG_SAMPLE_C = 100),
    # so this pins these runs, not a failure rate.
    for wseed in (1, 2, 3, 4, 5, 10, 71):
        for k in range(8):
            inst = fat_lp(7919 * wseed + k)
            mode = COORDINATOR_MODE if k % 2 == 0 else BLACKBOARD_MODE
            out, _ = run_protocol("lp-cog", inst, mode, seed=1_000_003 * wseed + k, rounds_cap=8)
            assert out.status == "SOLVED", (wseed, k)
            x = [Fraction(v) for v in out.x]
            assert all(dot(row, x) <= beta + 1e-9 * (1 + abs(beta)) for row, beta in zip(inst.A, inst.b))
            status, _, opt = lp_exact_oracle(inst)
            assert status == "SOLVED"
            assert out.value <= float(opt) + 1e-9 * (1 + abs(float(opt)))


def test_broadcast_payload_is_grid_integers():
    rows = [[-1, 0], [1, 0], [0, 1], [0, -1]]
    rhs = [Fraction(-1, 2), 1, 1, 1]
    inst = feasibility_instance(rows, rhs, [1, 1, 2, 2])
    _, transcript = run_protocol("lp-cog", inst, seed=0)
    cuts = [m for m in transcript.messages if m.kind == "cut-direction"]
    assert cuts
    for m in cuts:
        assert all(isinstance(v, int) for v in m.payload)


EDGE_AU = [
    1e-300,
    -1e-300,
    math.nextafter(1e-300, 0.0),
    -math.nextafter(1e-300, 0.0),
    math.nextafter(1e-300, 1.0),
    -math.nextafter(1e-300, 1.0),
    0.0,
    -0.0,
]


def _reference_chord(offsets, ax, au):
    """The chord loop as it ran on numpy float64 scalars, kept as the oracle."""
    t_hi, t_lo = math.inf, -math.inf
    for m in range(len(offsets)):
        slack = offsets[m] - ax[m]
        if au[m] > 1e-300:
            t_hi = min(t_hi, slack / au[m])
        elif au[m] < -1e-300:
            t_lo = max(t_lo, slack / au[m])
    return t_lo, t_hi


@st.composite
def chords(draw):
    """A random polytope normals @ y <= offs, a point and a unit direction,
    with edge rows (|au| at or next to 1e-300, zero slack, signed zeros,
    infinite offsets) and optionally every row facing one way."""
    n = draw(st.integers(4, 140))
    d = draw(st.integers(2, 4))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    normals = gen.standard_normal((n, d))
    x = gen.uniform(-1.0, 1.0, d)
    u = gen.standard_normal(d)
    u /= math.sqrt(u.dot(u))
    ax = (normals @ x).tolist()
    au = (normals @ u).tolist()
    offs = [a + s for a, s in zip(ax, gen.exponential(1.0, n).tolist())]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=12)):
        au[i] = draw(st.sampled_from(EDGE_AU + [au[i]]))
        ax[i], offs[i] = draw(
            st.sampled_from([(ax[i], offs[i]), (ax[i], ax[i]), (0.0, -0.0), (-0.0, 0.0), (ax[i], math.inf)])
        )
    side = draw(st.sampled_from([None, 1.0, -1.0]))
    if side is not None:  # no row bounds the other side: it stays infinite
        au = [side * abs(a) for a in au]
    return offs, ax, au


@settings(max_examples=300, deadline=None)
@given(chords())
def test_chord_matches_numpy_scalar_loop(case):
    offs, ax, au = case
    got = _chord(offs, ax, au)
    want = _reference_chord(np.array(offs), np.array(ax), np.array(au))
    # repr tells -0.0 from 0.0, so the sign of a zero bound counts too.
    assert [repr(float(v)) for v in got] == [repr(float(v)) for v in want]
