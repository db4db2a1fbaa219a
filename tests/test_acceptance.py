"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Tolerances and trial counts are pinned here; nothing is deferred to later
calibration.
"""

import hashlib
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from commopt import registry
from commopt.commsim import run_protocol
from commopt.exactnum import (
    INFEASIBLE,
    gram,
    min_norm_least_squares,
    rank_and_solve,
)
from commopt.instances import (
    GenSpec,
    gen_lp_hard_d2,
    gen_random,
    hard_lp_feasible_by_membership,
    hard_lp_point,
    singularity_trial,
)
from commopt.linsys import verify_solution
from commopt.lpsolve import lp_exact_oracle, solve_lp_enumerate
from commopt.regression import (
    gradient_exchange,
    l1_exact_oracle,
    linf_lp_instance,
    smoothed_value,
)
from commopt.rng import Stream
from commopt.rowsample import lewis_weights_local, leverage_scores_float, make_plan


def _report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"\n[ACCEPTANCE {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
          + (f"  ({detail})" if detail else ""), flush=True)


def _fit_slope(xs, ys):
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


# ---------------------------------------------------------------------------


def test_criterion_01_oracle_equivalence_exact_paths():
    started = time.perf_counter()
    runs = 200

    det_ok = rand_ok = 0
    for seed in range(runs):
        feasible = seed % 2 == 0
        inst = gen_random(GenSpec("linsys", n=12, d=4, L=12, s=3, seed=seed, feasible=feasible))
        _, _, x = rank_and_solve(inst.A, inst.b)
        truth_feasible = x != INFEASIBLE

        out, _ = run_protocol("linsys-det", inst, seed=seed)
        if truth_feasible:
            det_ok += out.status == "SOLVED" and verify_solution(inst, out.x)
        else:
            det_ok += out.status == INFEASIBLE

        out, _ = run_protocol("linsys-solve-rand", inst, seed=seed)
        if truth_feasible:
            rand_ok += out.status == "SOLVED" and verify_solution(inst, out.x)
        else:
            rand_ok += out.status == INFEASIBLE

    t_linsys = time.perf_counter()
    l2_ok = 0
    for seed in range(runs):
        inst = gen_random(GenSpec("regression", n=20, d=4, L=12, s=3, seed=seed))
        out, _ = run_protocol("l2-exact", inst, seed=seed)
        l2_ok += list(out.x) == min_norm_least_squares(inst.A, inst.b)

    t_l2 = time.perf_counter()
    linf_ok = 0
    for seed in range(runs):
        inst = gen_random(GenSpec("regression", n=10, d=2, L=8, s=3, seed=seed))
        out, _ = run_protocol("linf", inst, seed=seed)
        status, x_full, _ = lp_exact_oracle(linf_lp_instance(inst))
        linf_ok += status == "SOLVED" and out.value == x_full[inst.d]

    t_linf = time.perf_counter()
    clark_ok = seidel_ok = 0
    for seed in range(runs):
        inst = gen_random(GenSpec("lp", n=16, d=3, L=8, s=3, seed=seed, partition_policy="random"))
        status, _, value = lp_exact_oracle(inst)
        out_c, _ = run_protocol("lp-clarkson", inst, seed=seed)
        out_s, _ = run_protocol("lp-seidel", inst, seed=seed)
        clark_ok += out_c.status == status and (status != "SOLVED" or out_c.value == value)
        seidel_ok += out_s.status == status and (status != "SOLVED" or out_s.value == value)

    t_lp = time.perf_counter()
    elapsed = t_lp - started
    ok = (
        det_ok == runs
        and l2_ok == runs
        and linf_ok == runs
        and clark_ok == runs
        and seidel_ok == runs
        and rand_ok >= 0.99 * runs
        and elapsed < 300
    )
    detail = (
        f"det {det_ok}/{runs}, rand {rand_ok}/{runs}, l2 {l2_ok}/{runs}, "
        f"linf {linf_ok}/{runs}, clarkson {clark_ok}/{runs}, seidel {seidel_ok}/{runs}, "
        f"{elapsed:.0f}s (linsys {t_linsys - started:.0f}s, l2 {t_l2 - t_linsys:.0f}s, "
        f"linf {t_linf - t_l2:.0f}s, LP {t_lp - t_linf:.0f}s)"
    )
    _report(1, "oracle equivalence, exact paths", ok, detail)
    assert ok, detail


def test_criterion_02_randomized_feasibility():
    d, L, runs = 4, 12, 200
    errors = 0
    done_feasible = done_infeasible = 0
    seed = 0
    while done_feasible < runs or done_infeasible < runs:
        want_feasible = done_feasible < runs and (seed % 2 == 0 or done_infeasible >= runs)
        inst = gen_random(
            GenSpec("linsys", n=d + 3, d=d, L=L, s=3, seed=10_000 + seed, feasible=want_feasible)
        )
        seed += 1
        _, _, x = rank_and_solve(inst.A, inst.b)
        truth = x != INFEASIBLE
        if truth and done_feasible >= runs:
            continue
        if not truth and done_infeasible >= runs:
            continue
        out, _ = run_protocol("linsys-feas-rand", inst, seed=seed)
        verdict_feasible = out.status == "FEASIBLE"
        errors += verdict_feasible != truth
        if truth:
            done_feasible += 1
        else:
            done_infeasible += 1
    ok = errors <= 0.02 * 2 * runs
    _report(2, "randomized feasibility error rate", ok, f"{errors}/{2 * runs} errors")
    assert ok


def test_criterion_03_communication_separation():
    d, L = 8, 16
    svals = [2, 4, 8, 16, 32, 64]
    seeds = 3
    det_bits, rand_bits = [], []
    for s in svals:
        db = rb = 0
        for seed in range(seeds):
            inst = gen_random(
                GenSpec("linsys", n=2 * s, d=d, L=L, s=s, seed=20_000 + seed, feasible=True)
            )
            _, t_det = run_protocol("linsys-det", inst, seed=seed)
            _, t_rand = run_protocol("linsys-solve-rand", inst, seed=seed)
            db += t_det.total_bits
            rb += t_rand.total_bits
        det_bits.append(db / seeds)
        rand_bits.append(rb / seeds)
    ratio = _fit_slope(svals, rand_bits) / _fit_slope(svals, det_bits)
    ok = ratio <= 0.25
    _report(3, "communication separation (slope ratio)", ok, f"ratio {ratio:.2f} at d=8, L=16")
    assert ok, (
        f"slope ratio {ratio:.2f} > 0.25 at d=8, L=16: each quiet server should "
        f"spend one uniform-F_p combination of its rows mod p (~230 bits; by "
        f"Schwartz-Zippel it misses a row outside the span with probability "
        f"<= 1/p) against the deterministic protocol's per-server share of "
        f"d*(d+1)*(L+2)+headers ~ 1.6 kbit, so the randomized s-slope must stay "
        f"well below the d^2*L relay term"
    )


def test_criterion_04_sampling_sandwich():
    eps, c_const = 0.5, 20.0
    n, d, trials = 200, 4, 100

    l2_hits = 0
    stream = Stream(314).split("c4-l2")
    for t in range(trials):
        rows = [tuple(stream.randint(-64, 64) for _ in range(d)) for _ in range(n)]
        a = np.array(rows, dtype=float)
        tau = leverage_scores_float(rows, gram(rows))
        target = c_const * math.log2(d + 1) * eps ** -2 * float(np.sum(np.minimum(tau, 1.0)))
        plan = make_plan(list(tau), target, "l2")
        sa = np.array(plan.draw(rows, plan.N, stream.split("draw", t)), dtype=float)
        ok_seed = True
        for _ in range(100):
            x = np.array([stream.gauss() for _ in range(d)])
            x /= np.linalg.norm(x)
            full = np.linalg.norm(a @ x)
            sket = np.linalg.norm(sa @ x)
            if not ((1 - eps) * full <= sket <= (1 + eps) * full):
                ok_seed = False
                break
        l2_hits += ok_seed

    l1_hits = 0
    stream = Stream(315).split("c4-l1")
    for t in range(trials):
        rows = [tuple(stream.randint(-64, 64) for _ in range(d)) for _ in range(n)]
        rows = [r if any(r) else (1,) * d for r in rows]
        a = np.array(rows, dtype=float)
        w = lewis_weights_local(rows)
        target = c_const * math.log2(d + 1) * eps ** -2 * float(np.sum(w))
        plan = make_plan(list(w), target, "l1")
        sa = np.array(plan.draw(rows, plan.N, stream.split("draw", t)), dtype=float)
        ok_seed = True
        for _ in range(100):
            x = np.array([stream.gauss() for _ in range(d)])
            x /= np.linalg.norm(x)
            full = np.abs(a @ x).sum()
            sket = np.abs(sa @ x).sum()
            if not ((1 - eps) * full <= sket <= (1 + eps) * full):
                ok_seed = False
                break
        l1_hits += ok_seed

    ok = l2_hits >= 90 and l1_hits >= 90
    _report(4, "sampling sandwich (l2 and l1)", ok, f"l2 {l2_hits}/100, l1 {l1_hits}/100")
    assert ok


def test_criterion_05_regression_approximation():
    eps = 0.5

    l2_good = 0
    for seed in range(100):
        inst = gen_random(GenSpec("regression", n=500, d=4, L=6, s=4, seed=30_000 + seed))
        exact, _ = run_protocol("l2-exact", inst, seed=seed)
        sampled, _ = run_protocol("l2-sampled", inst, seed=seed, eps=eps)
        assert sampled.value >= exact.value - 1e-9
        l2_good += sampled.value <= (1 + eps) * exact.value + 1e-9

    simple_good = 0
    for seed in range(100):
        inst = gen_random(GenSpec("regression", n=200, d=3, L=5, s=4, seed=31_000 + seed))
        oracle = l1_exact_oracle(list(inst.A), list(inst.b))
        out, _ = run_protocol("l1-simple", inst, seed=seed, eps=eps)
        assert out.value >= oracle.value
        simple_good += out.value <= (1 + Fraction(1, 2)) * oracle.value

    lewis_good = 0
    for seed in range(100):
        inst = gen_random(GenSpec("regression", n=300, d=3, L=5, s=4, seed=32_000 + seed))
        oracle = l1_exact_oracle(list(inst.A), list(inst.b))
        out, _ = run_protocol("l1-lewis", inst, seed=seed, eps=eps)
        assert out.value >= oracle.value
        lewis_good += out.value <= (1 + Fraction(1, 2)) * oracle.value

    agd_good = 0
    for seed in range(50):
        inst = gen_random(GenSpec("regression", n=200, d=3, L=6, s=4, seed=33_000 + seed))
        out, _ = run_protocol("l1-agd", inst, seed=seed, eps=0.25)
        sampled_rows = [r for view in out.extra["sampled_views"] for r in view]
        oracle = l1_exact_oracle([r[:-1] for r in sampled_rows], [r[-1] for r in sampled_rows])
        agd_good += out.extra["sampled_value"] <= 1.25 * float(oracle.value) + 1e-9

    def l4_scalar_opt(rows, rhs):
        lo, hi = -16.0, 16.0
        for _ in range(200):
            m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
            f1 = sum(abs(a[0] * m1 - b) ** 4 for a, b in zip(rows, rhs))
            f2 = sum(abs(a[0] * m2 - b) ** 4 for a, b in zip(rows, rhs))
            lo, hi = (lo, m2) if f1 < f2 else (m1, hi)
        x = (lo + hi) / 2
        return sum(abs(a[0] * x - b) ** 4 for a, b in zip(rows, rhs)) ** 0.25

    from commopt.instances import Instance

    lp_good = 0
    for seed in range(50):
        inst = Instance("regression", 3, 1, 2, 2, ((1,), (1,), (1,)), (0, 0, 3), None, (1, 2, 1))
        out, _ = run_protocol("lp-embed", inst, seed=seed, p=4.0, eps=eps)
        opt = l4_scalar_opt(inst.A, inst.b)
        lp_good += out.value <= (1 + 3 * eps) * opt

    ok = (
        l2_good >= 90 and simple_good >= 90 and lewis_good >= 90
        and agd_good >= 0.8 * 50 and lp_good >= 0.8 * 50
    )
    detail = (
        f"l2-sampled {l2_good}/100, l1-simple {simple_good}/100, "
        f"l1-lewis {lewis_good}/100, l1-agd {agd_good}/50, lp-embed {lp_good}/50"
    )
    _report(5, "regression approximation", ok, detail)
    assert ok, detail


def test_criterion_06_gradient_correctness():
    stream = Stream(1618).split("c6")
    saturated = quadratic = 0
    worst = 0.0
    for trial in range(100):
        n, d = 10, 3
        sa = np.array([[stream.randint(-6, 6) for _ in range(d)] for _ in range(n)], dtype=np.int64)
        sb = np.array([stream.randint(-6, 6) for _ in range(n)], dtype=float)
        r_inv = np.eye(d) + 0.1 * np.array([[stream.gauss() for _ in range(d)] for _ in range(d)])
        z = np.array([2.0 * stream.gauss() for _ in range(d)])
        lam = 0.05 if trial % 2 else 3.0
        sigma = 0.25
        res = sa @ (r_inv @ z) - sb
        saturated += int((np.abs(res) > lam).any())
        quadratic += int((np.abs(res) <= lam).any())
        # The protocol's own objective and gradient round; rows split over two
        # servers.  The gradient is the one every party decodes from the pieces.
        server_sa, server_sb = [sa[:4], sa[4:]], [sb[:4], sb[4:]]
        pieces = gradient_exchange(server_sa, server_sb, r_inv, z, lam, 16)
        total = np.array([sum(col) for col in zip(*pieces)], dtype=float)
        grad = 2.0**-16 * (r_inv.T @ total) + sigma * z
        h = 1e-6
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            fp = smoothed_value(server_sa, server_sb, r_inv, z + e, lam, sigma, np.zeros(d))
            fm = smoothed_value(server_sa, server_sb, r_inv, z - e, lam, sigma, np.zeros(d))
            fd = (fp - fm) / (2 * h)
            worst = max(worst, abs(fd - grad[j]) / max(abs(fd), 1.0))
    ok = worst < 1e-4 and saturated > 0 and quadratic > 0
    _report(6, "smoothed gradient vs finite differences", ok,
            f"worst rel err {worst:.2e}, branches {saturated}/{quadratic}")
    assert ok


def test_criterion_07_smoothed_clarkson():
    sigma, t = 0.25, 60
    match = 0
    for seed in range(100):
        inst = gen_random(GenSpec("lp", n=40, d=2, L=6, s=3, seed=40_000 + seed))
        out, _ = run_protocol("lp-smoothed", inst, seed=seed, sigma=sigma, t=t)
        plp = out.extra["perturbed"]
        status, _, value = solve_lp_enumerate(plp.rows, [Fraction(v) for v in inst.c])
        match += out.status == status == "SOLVED" and out.value == value

    # Rounded payload strictly smaller than unrounded on a matched seed, d=4 L=24.
    from commopt.commsim import Network
    from commopt.config import DEFAULTS
    from commopt.lpsolve import clarkson

    inst = gen_random(GenSpec("lp", n=30, d=4, L=24, s=3, seed=41_000))
    out_s, t_s = run_protocol("lp-smoothed", inst, seed=5, sigma=sigma, t=t)
    net = Network("coordinator", inst.s)
    out_u = clarkson(
        inst, net, Stream(5).split("protocol", "lp-smoothed"), DEFAULTS, perturbed=out_s.extra["perturbed"]
    )
    rounded_payload = t_s.bits_by_kind("solution") / max(out_s.iterations, 1)
    full_payload = net.transcript.bits_by_kind("solution") / max(out_u.iterations, 1)

    ok = match >= 95 and rounded_payload < full_payload
    _report(7, "smoothed clarkson", ok,
            f"oracle match {match}/100, payload {rounded_payload:.0f} vs {full_payload:.0f} bits/iter")
    assert ok


def test_criterion_08_center_of_gravity():
    from commopt.instances import Instance

    rows = ((-1, 0), (1, 0), (0, 1), (0, -1))
    rhs = (Fraction(-1, 2), 1, 1, 1)
    found = 0
    for seed in range(50):
        inst = Instance("lp", 4, 2, 1, 2, rows, rhs, None, (1, 1, 2, 2))
        out, _ = run_protocol("lp-cog", inst, seed=seed)
        found += out.status == "FEASIBLE" and out.x[0] >= 0.5 - 1e-6

    empty = Instance("lp", 1, 2, 1, 1, ((-1, 0),), (-20000,), None, (1,))
    out, _ = run_protocol("lp-cog", empty, seed=1, rounds_cap=20)
    survival = out.extra["cut_survival"]
    shrink_ok = len(survival) == 20 and all(r <= 0.95 for r in survival)

    ok = found == 50 and shrink_ok
    _report(8, "center of gravity", ok,
            f"feasible {found}/50, max survival {max(survival):.2f}")
    assert ok


def test_criterion_09_singularity_experiment():
    trials = 10_000
    est2 = singularity_trial(1, 2, trials, seed=1)
    sig2 = math.sqrt(0.25 / trials)
    ok_d1_t2 = abs(est2 - 0.5) <= 2 * sig2

    p10 = 63 / 256
    est10 = singularity_trial(1, 10, trials, seed=2)
    sig10 = math.sqrt(p10 * (1 - p10) / trials)
    ok_d1_t10 = abs(est10 - p10) <= 2 * sig10

    frac_large = singularity_trial(6, 100, trials, seed=3)
    ok_large = frac_large <= 0.01

    d = 4
    fr = [singularity_trial(d, t, trials, seed=4) for t in (4, 16, 64)]
    noise = 2 * math.sqrt(0.25 / trials)
    monotone = fr[0] + noise >= fr[1] - noise and fr[1] + noise >= fr[2] - noise

    ok = ok_d1_t2 and ok_d1_t10 and ok_large and monotone
    _report(9, "singularity experiment", ok,
            f"d1t2 {est2:.3f}, d1t10 {est10:.3f}, d6t100 {frac_large:.4f}, trend {fr}")
    assert ok


def test_criterion_10_hard_lp_family():
    L = 800
    stream = Stream(2718).split("c10")
    sets = [
        {stream.randint(1, 64) for _ in range(10)},
        {stream.randint(1, 64) for _ in range(10)},
    ]
    agree = 0
    for u in range(1, 65):
        inst = gen_lp_hard_d2(u, sets, L)
        status, _, _ = lp_exact_oracle(inst)
        agree += (status == "SOLVED") == hard_lp_feasible_by_membership(u, sets)

    pair_ok = True
    points = {i: hard_lp_point(i, L) for i in range(1, 65)}
    for i in range(1, 65):
        mi = points[i]
        if mi[0] * mi[0] + mi[1] * mi[1] < 1 + Fraction(1, 1 << (4 * L + 2)):
            pair_ok = False
        for j in range(i + 1, 65):
            mj = points[j]
            if mi[0] * mj[0] + mi[1] * mj[1] > 1:
                pair_ok = False

    ok = agree == 64 and pair_ok
    _report(10, "hard LP family", ok, f"membership {agree}/64, inequalities {pair_ok}")
    assert ok


# The determinism set: one (protocol, instance spec, params) triple per
# protocol, each run with seed 99.
DETERMINISM_SET = [
    ("linsys-det", GenSpec("linsys", n=8, d=3, L=8, s=2, seed=1), {}),
    ("linsys-feas-rand", GenSpec("linsys", n=8, d=3, L=8, s=2, seed=2), {}),
    ("linsys-solve-rand", GenSpec("linsys", n=8, d=3, L=8, s=2, seed=3), {}),
    ("l2-exact", GenSpec("regression", n=10, d=3, L=6, s=2, seed=4), {}),
    ("l2-sampled", GenSpec("regression", n=120, d=3, L=6, s=2, seed=5), {"eps": 0.5}),
    ("l1-simple", GenSpec("regression", n=30, d=2, L=5, s=2, seed=6), {"eps": 0.5}),
    ("l1-lewis", GenSpec("regression", n=30, d=2, L=5, s=2, seed=7), {"eps": 0.5}),
    ("l1-agd", GenSpec("regression", n=40, d=2, L=5, s=2, seed=8), {"eps": 0.25}),
    ("linf", GenSpec("regression", n=8, d=2, L=5, s=2, seed=9), {}),
    ("lp-embed", GenSpec("regression", n=6, d=2, L=4, s=2, seed=10), {"p": 4.0, "eps": 0.5}),
    ("lp-clarkson", GenSpec("lp", n=20, d=2, L=6, s=2, seed=11), {}),
    ("lp-smoothed", GenSpec("lp", n=20, d=2, L=6, s=2, seed=12), {"sigma": 0.25, "t": 60}),
    ("lp-cog", GenSpec("lp", n=6, d=2, L=4, s=2, seed=13), {}),
    ("lp-seidel", GenSpec("lp", n=20, d=2, L=6, s=2, seed=14), {}),
    ("lp-oracle", GenSpec("lp", n=12, d=2, L=6, s=2, seed=15), {}),
    ("leverage", GenSpec("regression", n=120, d=3, L=6, s=2, seed=16), {}),
    ("lewis", GenSpec("regression", n=120, d=3, L=6, s=2, seed=17), {}),
]

# (sha256 of signature(), sha256 of the transcript CSV) for each triple
# above.  Any drift is a behaviour change that must be explained; a protocol
# that only moves its messages keeps its signature digest.  The float-path
# digests assume the platform's BLAS/libm stay the same.
DETERMINISM_DIGESTS = {
    "linsys-det": (
        "99bb34bcb288c08abe89ccf46dd85dccd2adc3b30fcfafe4cc8891ce9639fc71",
        "34f2325256cb8084bad9f5dd90ae0965e827803fed7324f8ee8a1080da0eccb3",
    ),
    "linsys-feas-rand": (
        "bf655028bef8541c04eabfe85c5956762333b2e05919c6c01aaa7f9e2cc0c969",
        "d95f9ba93e9fee3418049827ffd899078d5c130b380b59e9aee5f2370143dac9",
    ),
    "linsys-solve-rand": (
        "630612272b19e51cbe88bec08fb888b949ba53cc16e2c12db82a41986135ac24",
        "00ad7c1be242b2888355177dd3fc215474da932544c3d17de35e662ece5d2e12",
    ),
    "l2-exact": (
        "7dded61689da1dc24018dac11449e66ab358fcd7d85efaf7a3a303d31f63dadc",
        "bd88dd0fcc3b501d84284781e51cb34fb2fe0b78a298f746a51a1e9bfdff7f06",
    ),
    "l2-sampled": (
        "22d0adae9b55c4e516763be627ff629ac3519a7eac0e68658d2b68263a5f0c7a",
        "1a356218cc45b40f0fab08848d54343687b72e716edb07db9a635317b9869afc",
    ),
    "l1-simple": (
        "fad2de501f581b65871edef33b21d4aefaf1c24df509d4553476b828fd505673",
        "02f7f831532feb94c5f94c7eb6ab5f555769f147e52637c24e5b7adc36d2bafc",
    ),
    "l1-lewis": (
        "c846be57c781bd5c0953ca7fc8e942b9ee411b73c60fc5824788bb90da5e5943",
        "b7ba9706c8b9861ab13887bae7b01d253788d85a87a51ad0325c54fcb4c4dee1",
    ),
    "l1-agd": (
        "7e0e6abf7f7b3a0332c35d0347ccf6eac9daa022fd793127489c003b0fc2a25b",
        "b30520ba7b91fd9a951d6cb2a0cf2e4136b05a1c3e067ca6dd410aa3a4b91bb5",
    ),
    "linf": (
        "4599405c6858c6e2fd106e81407db5a634fcfeb4fb4da02e04a465a66d532dc4",
        "61fb138af91ed92cab17f02298ceaf220153d20afaf1ae6088a725dec50b51dc",
    ),
    "lp-embed": (
        "72403ad3b2aaf1fbebeb750f1c8010cc4fa2b60a9135f3f3c1f611a97d275cac",
        "764152bcb5220e393c22b3b219fc12b9c73ec1a7a6303660c6d6760d6fc31662",
    ),
    "lp-clarkson": (
        "8edc9809430d8cbae654aeeb4e8528a46d18684317041d86c6bed38ddbd88c67",
        "2258db8a8ed0dbb9aeb0951bdbff1578da9fd7b7bbf42709ed2042cea0d5901d",
    ),
    "lp-smoothed": (
        "516f356c55597742a24bceaea1063750575fdce376bbcc132ce077ff53da7abe",
        "4966008ab84aa1edc3d2f6f20dd7927d205447e8c371e3c8138a19d33179bd83",
    ),
    "lp-cog": (
        "d364206b63f893fd95053d8b22e0e6883fb9beb61ac3242d7e953f4c86594c30",
        "bc951066bf1424573abce70c81a0640a30a65a5e66de5517fee1fa18e5dd9d85",
    ),
    "lp-seidel": (
        "7d211644a84e7a9e18d2400f495b235cb317c69b69253a874869c61af938cba6",
        "eabbcb14cf89d4745732e9a1639e71c9717d71e832b0b11a38bd1c2077eef620",
    ),
    "lp-oracle": (
        "7861c70441d6891da53818959c927d7a206c6143e8e1852a896de95e5258f776",
        "db6f1f82d27ed885e375964e97a8aba976d3d4a31360e1b498dd66042a1e6e9b",
    ),
    "leverage": (
        "c9f25dec3f53ee54699050ec8c18069a95888dcf9f5c2bd668e2b17479b271e7",
        "dd2281720f560f3b8c7369cd44b008b26c940433a03faca1a114dbb15b04e675",
    ),
    "lewis": (
        "11171031ffa1297fcaaf0a1c503f3b5475ef8105c371a0f5bd82f3efc5db4908",
        "74f3f6d6a7457d094cde6bdbc0031b9cc92b8f9c5c06019ef041552d37384d7f",
    ),
}


def test_criterion_11_determinism():
    stable = []
    for name, spec, params in DETERMINISM_SET:
        inst = gen_random(spec)
        out1, t1 = run_protocol(name, inst, seed=99, **params)
        out2, t2 = run_protocol(name, inst, seed=99, **params)
        same = out1.signature() == out2.signature() and t1.to_csv() == t2.to_csv()
        stable.append((name, same))
    ok = all(same for _, same in stable)
    bad = [name for name, same in stable if not same]
    _report(11, "determinism (bit-identical reruns)", ok, f"unstable: {bad}" if bad else f"{len(stable)} protocols")
    assert ok, bad


def test_determinism_set_pins_every_protocol():
    assert sorted(name for name, _, _ in DETERMINISM_SET) == registry.names()
    assert set(DETERMINISM_DIGESTS) == set(registry.names())


@pytest.mark.parametrize(
    "name, spec, params", DETERMINISM_SET, ids=[name for name, _, _ in DETERMINISM_SET]
)
def test_determinism_set_digest(name, spec, params):
    out, transcript = run_protocol(name, gen_random(spec), seed=99, **params)
    digests = tuple(
        hashlib.sha256(text.encode()).hexdigest() for text in (out.signature(), transcript.to_csv())
    )
    assert digests == DETERMINISM_DIGESTS[name]


# The sampling branches of l2-sampled and l1-lewis, which the determinism
# set's instances (n below each protocol's target) never reach.  Kept out of
# DETERMINISM_DIGESTS, whose keys are exactly the registry's names.
SAMPLING_BRANCH_SET = [
    ("l2-sampled", GenSpec("regression", n=300, d=3, L=6, s=2, seed=5), {"eps": 0.5}),
    ("l1-lewis", GenSpec("regression", n=300, d=2, L=5, s=2, seed=7), {"eps": 0.5}),
]

SAMPLING_BRANCH_DIGESTS = {
    "l2-sampled": (
        "a980d6deb806f629321c40079490bc9ef104718997f91da43086656943fde46d",
        "66c1453a71945396722ec21b3b996fd72116cefca281b27ab51ff5545bc7c9c1",
    ),
    "l1-lewis": (
        "0b4434815546874fbe82bca2e7418ae09c6c0a6d355b38b811017fdddb0f63b5",
        "56c2cf79e289e214f5791a07fe953d47adf2c04408f635179e1c5d27b6174265",
    ),
}


@pytest.mark.parametrize(
    "name, spec, params", SAMPLING_BRANCH_SET, ids=[name for name, _, _ in SAMPLING_BRANCH_SET]
)
def test_sampling_branch_digest(name, spec, params):
    out, transcript = run_protocol(name, gen_random(spec), seed=99, **params)
    assert transcript.count_kind("lev0-gram") > 0  # the sampling branch ran
    digests = tuple(
        hashlib.sha256(text.encode()).hexdigest() for text in (out.signature(), transcript.to_csv())
    )
    assert digests == SAMPLING_BRANCH_DIGESTS[name]


# Clarkson's sampling branch (n + 2d above 9d^2), which the determinism set's
# LPs never reach: each case is (id, protocol, instance spec, params).
CLARKSON_SAMPLING_SET = [
    ("lp-clarkson-d2", "lp-clarkson", GenSpec("lp", n=60, d=2, L=8, s=4, seed=11), {}),
    ("lp-clarkson-d3", "lp-clarkson", GenSpec("lp", n=100, d=3, L=8, s=4, seed=13), {}),
    ("lp-smoothed", "lp-smoothed", GenSpec("lp", n=60, d=2, L=8, s=4, seed=12), {"sigma": 0.25, "t": 60}),
    ("linf", "linf", GenSpec("regression", n=100, d=2, L=8, s=4, seed=9), {}),
]

# (sha256 of signature(), sha256 of the transcript CSV) per (case, mode).
CLARKSON_SAMPLING_DIGESTS = {
    ("lp-clarkson-d2", "coordinator"): (
        "70cd4b2037055ad741f9b01ad7f328a76d6c0a9647c2ce08cf505f918828dffa",
        "1f2bfc31e42179781946f9d5bdfa2324f6b054e273b7747f1ec4a806b2ac28c3",
    ),
    ("lp-clarkson-d2", "blackboard"): (
        "70cd4b2037055ad741f9b01ad7f328a76d6c0a9647c2ce08cf505f918828dffa",
        "4117f11accdb3233d561fcfe61619b5e00a060e0ea75560e977b87b8ed502056",
    ),
    ("lp-clarkson-d3", "coordinator"): (
        "51a638552c21eb5aa4cc02112642f94745cbcfbd25124c5bcd0051c8768bec5c",
        "86ce19a4eca7b84650d32fdada308804c9525a3c792c05ab3cb88bfa14c851a6",
    ),
    ("lp-clarkson-d3", "blackboard"): (
        "51a638552c21eb5aa4cc02112642f94745cbcfbd25124c5bcd0051c8768bec5c",
        "dd64c32fb07484c07272200de05282db79c990dab4d54473c31840d4ec3d3fab",
    ),
    ("lp-smoothed", "coordinator"): (
        "8f4cb0a2c226900fbb228ef63ba501e3d2027e9d08a34de8689a7076c8b302d3",
        "b8bb9412855213b8ec9b4d19a26abaaeed932ca76ceeb12a29bcacff3be95894",
    ),
    ("lp-smoothed", "blackboard"): (
        "8f4cb0a2c226900fbb228ef63ba501e3d2027e9d08a34de8689a7076c8b302d3",
        "b0ec3f1b3ca435173259a785beee6e6f3e20967fc984155377768b07dff41694",
    ),
    ("linf", "coordinator"): (
        "3836dd354e13b15c58b9efd63e0e3f185e6cc5b64be8b8873607391b93b06280",
        "11a0c7c95b457b36e79a58322d7a5c065f8ed9d20e3d65d46c0a51575a9c0dee",
    ),
    ("linf", "blackboard"): (
        "3836dd354e13b15c58b9efd63e0e3f185e6cc5b64be8b8873607391b93b06280",
        "dbb903192d5a015db422a1ef10d783ced53fb6b75f8fef83591211f137074e32",
    ),
}


@pytest.mark.parametrize("mode", ["coordinator", "blackboard"])
@pytest.mark.parametrize(
    "case, name, spec, params", CLARKSON_SAMPLING_SET, ids=[case for case, *_ in CLARKSON_SAMPLING_SET]
)
def test_clarkson_sampling_digest(case, name, spec, params, mode):
    out, transcript = run_protocol(name, gen_random(spec), mode=mode, seed=99, **params)
    assert transcript.count_kind("sample-count") > 0  # the sampling branch ran
    digests = tuple(
        hashlib.sha256(text.encode()).hexdigest() for text in (out.signature(), transcript.to_csv())
    )
    assert digests == CLARKSON_SAMPLING_DIGESTS[case, mode]


# lp-embed on n in the hundreds.  Its float path (`regression.lp_norm_fit`)
# rounds differently when BLAS reads the same rows through another memory
# layout, and the determinism set's n = 6 instance does not show that; these
# do.  Each case is (id, instance spec, params).
LP_EMBED_SET = [
    ("p4-n300", GenSpec("regression", n=300, d=3, L=6, s=4, seed=10), {"p": 4.0, "eps": 0.5}),
    ("p3-n200", GenSpec("regression", n=200, d=3, L=6, s=4, seed=20), {"p": 3.0, "eps": 0.5}),
]

# (sha256 of signature(), sha256 of the transcript CSV) per (case, mode).
LP_EMBED_DIGESTS = {
    ("p4-n300", "coordinator"): (
        "7f55e6c65854c6f82b905259987e2eb74855585d81ba35f7030955224cb93cfd",
        "b55b7dee26320dd6744d2bacc7876531fc04ec1a8d2cb9c9087a4ba311a8a940",
    ),
    ("p4-n300", "blackboard"): (
        "7f55e6c65854c6f82b905259987e2eb74855585d81ba35f7030955224cb93cfd",
        "e1a0b8f8d400264977c4227f248fc0cdadc596fb6e98fad1325569c41e841541",
    ),
    ("p3-n200", "coordinator"): (
        "d6c125c34c6bde8938078b2f664eb9e95f4f657492d2f28d6176f7dd0d305399",
        "c3e41dc6efadc03537aa92ec61aa6639a3f86993ede1f021e17c0bbeec6e8824",
    ),
    ("p3-n200", "blackboard"): (
        "d6c125c34c6bde8938078b2f664eb9e95f4f657492d2f28d6176f7dd0d305399",
        "9c9ca248453af60abaa7f4abd201dcd3f0fbac2e087f112dc3e76ea16f0f8900",
    ),
}


@pytest.mark.parametrize("mode", ["coordinator", "blackboard"])
@pytest.mark.parametrize(
    "case, spec, params", LP_EMBED_SET, ids=[case for case, *_ in LP_EMBED_SET]
)
def test_lp_embed_digest(case, spec, params, mode):
    out, transcript = run_protocol("lp-embed", gen_random(spec), mode=mode, seed=99, **params)
    digests = tuple(
        hashlib.sha256(text.encode()).hexdigest() for text in (out.signature(), transcript.to_csv())
    )
    assert digests == LP_EMBED_DIGESTS[case, mode]


# linsys-feas-rand on a blackboard, where servers publish their new residue
# rows directly instead of probing: one feasible and one infeasible instance.
BLACKBOARD_FEASIBILITY_SET = [
    ("feasible", GenSpec("linsys", n=8, d=3, L=8, s=2, seed=2)),
    ("infeasible", GenSpec("linsys", n=12, d=3, L=8, s=4, seed=2, feasible=False)),
]

BLACKBOARD_FEASIBILITY_DIGESTS = {
    "feasible": (
        "bf655028bef8541c04eabfe85c5956762333b2e05919c6c01aaa7f9e2cc0c969",
        "dda8674cb52bcfa6ab09b6a962e5fd734cf60c4ac0eeaf870eb80da3b68412e9",
    ),
    "infeasible": (
        "9f5dc35cb56d1380d90df0e573c1c4a245a3293a34bf0352b81c941a28bd278e",
        "2848896c36f56bf514398dad8709fce24d7bb990c0ce562194aa32565e20c0dd",
    ),
}


@pytest.mark.parametrize(
    "case, spec", BLACKBOARD_FEASIBILITY_SET, ids=[case for case, _ in BLACKBOARD_FEASIBILITY_SET]
)
def test_blackboard_feasibility_digest(case, spec):
    out, transcript = run_protocol("linsys-feas-rand", gen_random(spec), mode="blackboard", seed=99)
    assert transcript.count_kind("equation-mod-p") > 0  # the publishing path ran
    digests = tuple(
        hashlib.sha256(text.encode()).hexdigest() for text in (out.signature(), transcript.to_csv())
    )
    assert digests == BLACKBOARD_FEASIBILITY_DIGESTS[case]
