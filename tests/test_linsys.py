"""Linear-system protocols against exact oracles."""

from commopt.commsim import run_protocol
from commopt.exactnum import INFEASIBLE, is_prime
from commopt.instances import GenSpec, Instance, gen_random
from commopt.linsys import verify_solution
from commopt.rng import Stream
from test_acceptance import _fit_slope


def make_instance(rows, rhs, partition, d=None, L=8, kind="linsys"):
    d = d if d is not None else len(rows[0])
    s = max(partition)
    return Instance(kind, len(rows), d, L, s, tuple(tuple(r) for r in rows), tuple(rhs), None, tuple(partition))


def test_det_solve_identity_split():
    inst = make_instance([[1, 0], [0, 1]], [3, 4], [1, 2])
    out, _ = run_protocol("linsys-det", inst)
    assert out.status == "SOLVED"
    assert out.x == (3, 4)


def test_det_solve_duplicate_rows_one_equation():
    inst = make_instance([[1], [1], [1]], [1, 1, 1], [1, 2, 3])
    out, _ = run_protocol("linsys-det", inst)
    assert out.x == (1,)
    assert out.extra["equations"] == 1


def test_det_solve_contradiction():
    inst = make_instance([[1, 1], [1, 1]], [2, 3], [1, 2])
    out, _ = run_protocol("linsys-det", inst)
    assert out.status == INFEASIBLE


def test_det_solve_underdetermined():
    inst = make_instance([[1, 2, 0]], [5], [1], d=3)
    out, _ = run_protocol("linsys-det", inst)
    assert verify_solution(inst, out.x)


def test_rand_feasibility_feasible_identity():
    inst = make_instance([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 1, 1], [1, 1, 2])
    for seed in range(5):
        out, _ = run_protocol("linsys-feas-rand", inst, seed=seed)
        assert out.status == "FEASIBLE"
        assert is_prime(out.extra["p"])


def test_rand_feasibility_contradiction_caught():
    # 2x = 1 vs 2x = 3: infeasible over Q and over every F_p.
    inst = make_instance([[2], [2]], [1, 3], [1, 2])
    wrong = 0
    for seed in range(100):
        out, _ = run_protocol("linsys-feas-rand", inst, seed=seed)
        wrong += out.status != INFEASIBLE
    assert wrong <= 1


def test_rand_feasibility_rational_denominator_edge():
    # p0 x = 1 is feasible over Q; only p = p0 makes the mod-p view degenerate.
    p0 = 13
    inst = make_instance([[p0]], [1], [1])
    for seed in range(30):
        out, _ = run_protocol("linsys-feas-rand", inst, seed=seed)
        if out.extra["p"] != p0:
            assert out.status == "FEASIBLE"


def test_rand_solve_single_server():
    inst = make_instance([[1, 0], [0, 1]], [5, 6], [1, 1])
    out, _ = run_protocol("linsys-solve-rand", inst, seed=3)
    assert out.status == "SOLVED"
    assert out.x == (5, 6)


def test_rand_solve_duplicate_only_mod_p_traffic():
    inst = make_instance([[1], [1]], [1, 1], [1, 2])
    out, transcript = run_protocol("linsys-solve-rand", inst, seed=1)
    assert out.x == (1,)
    assert out.extra["equations"] == 1
    # Server 2's proposals are +/- its single equation, always in span(C):
    # it must transmit mod-p test vectors only, never a full equation.
    full_from_s2 = [
        m
        for m in transcript.messages
        if m.kind == "equation" and m.sender.kind == "server" and m.sender.index == 2
    ]
    assert not full_from_s2
    assert any(
        m.kind == "combo-mod-p" and m.sender.index == 2 for m in transcript.messages
    )


def test_rand_solve_quiet_server_sends_one_probe():
    # Server 2's rows all lie in the span of server 1's identity rows: with
    # default constants it spends exactly one mod-p probe and no equation.
    inst = make_instance(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [2, -1, 3]],
        [1, 2, 3, 3, 9],
        [1, 1, 1, 2, 2],
    )
    for seed in range(10):
        out, transcript = run_protocol("linsys-solve-rand", inst, seed=seed)
        assert out.x == (1, 2, 3)
        from_s2 = [
            m.kind
            for m in transcript.messages
            if m.sender.kind == "server" and m.sender.index == 2
        ]
        assert from_s2 == ["combo-mod-p"]


def test_rand_feasibility_quiet_server_sends_one_probe():
    # Coordinator mode runs rand_solve's probe loop mod p with no promotion:
    # server 2's rows lie in span(C), so it spends exactly one mod-p probe.
    inst = make_instance(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [2, -1, 3]],
        [1, 2, 3, 3, 9],
        [1, 1, 1, 2, 2],
    )
    for seed in range(10):
        out, transcript = run_protocol("linsys-feas-rand", inst, seed=seed)
        assert out.status == "FEASIBLE"
        from_s2 = [
            m.kind
            for m in transcript.messages
            if m.sender.kind == "server" and m.sender.index == 2
        ]
        assert from_s2 == ["combo-mod-p"]


def test_rand_feasibility_coordinator_sends_only_residue_probes():
    # No residue row is relayed between servers: servers send mod-p probes
    # (or a 1-bit verdict), and the coordinator sends the prime, 1-bit
    # replies and verdicts.
    for seed in range(20):
        inst = gen_random(
            GenSpec("linsys", n=12, d=4, L=8, s=4, seed=300 + seed, feasible=seed % 2 == 0)
        )
        _, transcript = run_protocol("linsys-feas-rand", inst, seed=seed)
        assert transcript.count_kind("equation-mod-p") == 0
        assert transcript.count_kind("combo-mod-p") > 0
        for m in transcript.messages:
            if m.sender.kind == "coordinator":
                assert m.kind == "prime" or m.bits == 1, m
            else:
                assert m.kind == "combo-mod-p" or m.bits == 1, m


def test_rand_feasibility_s_slope_below_det():
    # Criterion 03's instances and seeds: the probe loop's bits grow with s
    # at most a quarter as fast as the deterministic protocol's.
    d, L = 8, 16
    svals = [2, 4, 8, 16, 32, 64]
    det_bits, feas_bits = [], []
    for s in svals:
        db = fb = 0
        for seed in range(3):
            inst = gen_random(
                GenSpec("linsys", n=2 * s, d=d, L=L, s=s, seed=20_000 + seed, feasible=True)
            )
            _, t_det = run_protocol("linsys-det", inst, seed=seed)
            _, t_feas = run_protocol("linsys-feas-rand", inst, mode="coordinator", seed=seed)
            db += t_det.total_bits
            fb += t_feas.total_bits
        det_bits.append(db / 3)
        feas_bits.append(fb / 3)
    ratio = _fit_slope(svals, feas_bits) / _fit_slope(svals, det_bits)
    assert ratio <= 0.25, ratio


def test_rand_solve_equation_entry_bits_bounded():
    # A promoted equation is an F_p combination of at most n_i rows, so each
    # entry grows by at most bitlen(p) + bitlen(n_i) bits over L (+1 for the
    # generator's closed range [-2^L, 2^L]).  Instances are criterion 03's.
    d, L = 8, 16
    for s in (2, 4, 8, 16, 32, 64):
        for seed in range(3):
            inst = gen_random(
                GenSpec("linsys", n=2 * s, d=d, L=L, s=s, seed=20_000 + seed, feasible=True)
            )
            out, transcript = run_protocol("linsys-solve-rand", inst, seed=seed)
            p = out.extra["p"]
            equations = [m for m in transcript.messages if m.kind == "equation"]
            assert equations
            for m in equations:
                n_i = len(inst.rows_of(m.sender.index))
                cap = inst.L + p.bit_length() + n_i.bit_length() + 1
                assert max(abs(v).bit_length() for v in m.payload) <= cap


def test_rand_solve_matches_det_solve():
    stream = Stream(77).split("cmp")
    mismatches = 0
    runs = 200
    for seed in range(runs):
        inst = gen_random(GenSpec("linsys", n=5, d=5, L=6, s=2, seed=1000 + seed, feasible=True))
        out, transcript = run_protocol("linsys-solve-rand", inst, seed=seed)
        ok = out.status == "SOLVED" and verify_solution(inst, out.x)
        mismatches += not ok
    assert mismatches <= 2


def test_rand_solve_at_most_d_full_equations_when_solved():
    for seed in range(20):
        inst = gen_random(GenSpec("linsys", n=12, d=4, L=8, s=3, seed=seed, feasible=True))
        out, transcript = run_protocol("linsys-solve-rand", inst, seed=seed)
        if out.status == "SOLVED":
            assert transcript.count_kind("equation") <= inst.d


def test_blackboard_feasibility_cheaper():
    inst = gen_random(GenSpec("linsys", n=12, d=4, L=8, s=4, seed=5, feasible=True))
    _, t_co = run_protocol("linsys-feas-rand", inst, mode="coordinator", seed=9)
    _, t_bb = run_protocol("linsys-feas-rand", inst, mode="blackboard", seed=9)
    assert t_bb.total_bits < t_co.total_bits
