"""Center-of-gravity cutting-plane protocol."""

from fractions import Fraction

from commopt.commsim import run_protocol
from commopt.exactnum import dot
from commopt.instances import Instance


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


def test_broadcast_payload_is_grid_integers():
    rows = [[-1, 0], [1, 0], [0, 1], [0, -1]]
    rhs = [Fraction(-1, 2), 1, 1, 1]
    inst = feasibility_instance(rows, rhs, [1, 1, 2, 2])
    _, transcript = run_protocol("lp-cog", inst, seed=0)
    cuts = [m for m in transcript.messages if m.kind == "cut-direction"]
    assert cuts
    for m in cuts:
        assert all(isinstance(v, int) for v in m.payload)
