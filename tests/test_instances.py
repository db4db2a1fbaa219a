"""Generators, file format round-trips, hard LP family, singularity trials."""

import math
from fractions import Fraction

import pytest

from commopt.commsim import run_protocol
from commopt.instances import (
    GenSpec,
    gen_lp_hard_d2,
    gen_random,
    hard_lp_feasible_by_membership,
    hard_lp_point,
    instance_from_json,
    instance_to_json,
    make_partition,
    singularity_trial,
)
from commopt.lpsolve import lp_exact_oracle
from commopt.rng import Stream


def test_feasible_linsys_solvable_by_construction():
    for seed in range(10):
        inst = gen_random(GenSpec("linsys", n=8, d=3, L=6, s=2, seed=seed, feasible=True))
        out, _ = run_protocol("linsys-det", inst)
        assert out.status == "SOLVED"


def test_entry_range_respected():
    for seed in range(100):
        inst = gen_random(GenSpec("regression", n=6, d=3, L=7, s=2, seed=seed))
        assert max(abs(v) for row in inst.A for v in row) <= 1 << 7
        assert max(abs(v) for v in inst.b) <= 1 << 7


def test_round_robin_partition_counts():
    part = make_partition(10, 3, "round-robin")
    assert [part.count(sid) for sid in (1, 2, 3)] == [4, 3, 3]


def test_one_heavy_partition():
    part = make_partition(10, 4, "one-heavy")
    assert part.count(1) == 7
    assert part.count(2) == part.count(3) == part.count(4) == 1


def test_rows_of_index_is_fresh_and_invisible():
    inst = gen_random(GenSpec("lp", n=12, d=3, L=8, s=3, seed=4, partition_policy="random"))
    twin = gen_random(GenSpec("lp", n=12, d=3, L=8, s=3, seed=4, partition_policy="random"))
    text, key = instance_to_json(inst), hash(inst)
    for sid in range(1, inst.s + 1):
        rows = inst.rows_of(sid)
        assert rows == [i for i, owner in enumerate(inst.partition) if owner == sid]
        rows.reverse()  # callers may shuffle the list in place
        assert inst.rows_of(sid) == sorted(rows)
    assert inst.rows_of(inst.s + 1) == []
    assert inst == twin and hash(inst) == key == hash(twin)
    assert instance_to_json(inst) == text


def test_generation_is_deterministic():
    a = gen_random(GenSpec("lp", n=12, d=3, L=8, s=3, seed=4))
    b = gen_random(GenSpec("lp", n=12, d=3, L=8, s=3, seed=4))
    assert a == b


def test_json_round_trip_bit_exact():
    for kind in ("linsys", "regression", "lp"):
        inst = gen_random(GenSpec(kind, n=9, d=3, L=10, s=3, seed=7))
        text = instance_to_json(inst)
        back = instance_from_json(text)
        assert back == inst
        assert instance_to_json(back) == text


def test_hard_lp_points_exact_inequalities():
    L = 800
    m1 = hard_lp_point(1, L)
    norm_sq = m1[0] * m1[0] + m1[1] * m1[1]
    assert norm_sq == 1 + Fraction(1, 1 << (4 * L + 2))
    for i in range(1, 65):
        mi = hard_lp_point(i, L)
        assert mi[0] * mi[0] + mi[1] * mi[1] >= 1 + Fraction(1, 1 << (4 * L + 2))
        for j in range(1, 65):
            if i != j:
                mj = hard_lp_point(j, L)
                assert mi[0] * mj[0] + mi[1] * mj[1] <= 1


def test_hard_lp_feasibility_matches_membership():
    L = 800
    stream = Stream(13).split("hard")
    for trial in range(12):
        u = stream.randint(1, 64)
        sets = [
            {stream.randint(1, 64) for _ in range(stream.randint(0, 6))}
            for _ in range(2)
        ]
        inst = gen_lp_hard_d2(u, sets, L)
        status, _, _ = lp_exact_oracle(inst)
        expected = hard_lp_feasible_by_membership(u, sets)
        assert (status == "SOLVED") == expected


def test_hard_lp_rejects_out_of_range():
    with pytest.raises(ValueError):
        gen_lp_hard_d2(100, [set()], 200)  # 100 > 2^(200/100) = 4


def test_singularity_d1_exact_probabilities():
    est = singularity_trial(1, 2, 10_000, seed=3)
    sigma = math.sqrt(0.5 * 0.5 / 10_000)
    assert abs(est - 0.5) <= 2.5 * sigma

    p10 = 63 / 256
    est10 = singularity_trial(1, 10, 10_000, seed=4)
    sigma10 = math.sqrt(p10 * (1 - p10) / 10_000)
    assert abs(est10 - p10) <= 2.5 * sigma10


def test_singularity_monotone_in_t():
    d = 4
    fractions = [singularity_trial(d, t, 3_000, seed=5) for t in (4, 16, 64)]
    noise = 2 * math.sqrt(0.25 / 3_000)
    assert fractions[0] + noise >= fractions[1] - noise
    assert fractions[1] + noise >= fractions[2] - noise


def test_singularity_large_t_small_fraction():
    assert singularity_trial(6, 100, 2_000, seed=6) <= 0.01
