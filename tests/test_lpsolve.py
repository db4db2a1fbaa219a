"""LP engines and distributed LP protocols."""

import math
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import commopt.lpsolve as lpsolve
from commopt.commsim import run_protocol
from commopt.config import DEFAULTS
from commopt.exactnum import INFEASIBLE, dot, rank_and_solve
from commopt.instances import GenSpec, Instance, gen_random
from commopt.lpsolve import (
    SizeGuardError,
    cramer_bound,
    lp_exact_oracle,
    perturb_lp_stream,
    sample_discrete_gaussian,
    solve_lp,
    solve_lp_enumerate,
    trunc_to_grid,
)
from commopt.rng import Stream


def lp_instance(rows, rhs, c, partition):
    s = max(partition)
    L = max(abs(v).bit_length() for row in rows for v in row) or 1
    return Instance("lp", len(rows), len(c), L, s, tuple(tuple(r) for r in rows), tuple(rhs), tuple(c), tuple(partition))


def test_oracle_one_dimensional():
    inst = lp_instance([[1], [1], [-1]], [5, 3, 0], [1], [1, 1, 1])
    status, x, value = lp_exact_oracle(inst)
    assert status == "SOLVED"
    assert x == (3,)
    assert value == 3


def test_oracle_infeasible():
    inst = lp_instance([[1], [-1]], [0, -1], [1], [1, 1])
    status, _, _ = lp_exact_oracle(inst)
    assert status == INFEASIBLE


def test_oracle_unbounded():
    inst = lp_instance([[-1]], [0], [1], [1])
    status, _, _ = lp_exact_oracle(inst)
    assert status == "UNBOUNDED"


def test_oracle_guard_trips():
    # 400 rows plus 8 box rows at d=4: C(408, 4) ~ 1.1e9 exceeds ORACLE_GUARD,
    # so the guard raises before any subset is solved.
    rows = [[1, 0, 0, 0]] * 400
    inst = lp_instance(rows, [1] * 400, [1, 0, 0, 0], [1] * 400)
    assert math.comb(408, 4) > lpsolve.ORACLE_GUARD
    with pytest.raises(SizeGuardError):
        lp_exact_oracle(inst)
    # The guard also precedes the certificate: this LP (408 rows, 416 with
    # the oracle's box) would be certified, and must still raise.
    inst = gen_random(GenSpec("lp", n=400, d=4, L=6, s=2, seed=1))
    rows = lpsolve.instance_halfspaces(inst)
    assert math.comb(inst.n + 8, 4) > lpsolve.ORACLE_GUARD
    assert lpsolve._certified_vertex(rows, list(inst.c), cramer_bound(4, inst.L) + 1) is not None
    with pytest.raises(SizeGuardError):
        lp_exact_oracle(inst)


def _reference_enumerate(rows, c, guard):
    """Independent enumerator: Fraction Gauss-Jordan on every d-subset."""
    d = len(c)
    best = None  # (value, vertex)
    for subset in combinations(range(len(rows)), d):
        coeffs = [rows[i][0] for i in subset]
        rhs = [rows[i][1] for i in subset]
        rank, _, x = rank_and_solve(coeffs, rhs)
        if rank < d or x == INFEASIBLE:
            continue
        if any(dot(a, x) > beta for a, beta in rows):
            continue
        value = dot(c, x)
        if best is None or value > best[0] or (value == best[0] and x < best[1]):
            best = (value, x)
    return best


def _reference_path():
    """solve_lp_enumerate on the Fraction reference enumerator, with no certificate."""
    return mock.patch.multiple(
        lpsolve, _enumerate_vertices=_reference_enumerate, _certified_vertex=lambda *args: None
    )


@st.composite
def small_lps(draw):
    """Tiny integer LPs; negative right-hand sides make some infeasible,
    missing bounds some unbounded, and small entries make parallel rows and
    tied optima common (c = 0 ties every vertex)."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    entry = st.integers(-3, 3)
    rows = [
        (tuple(Fraction(draw(entry)) for _ in range(d)), Fraction(draw(st.integers(-4, 6))))
        for _ in range(n)
    ]
    c = [Fraction(draw(st.integers(-2, 2)), draw(st.integers(1, 3))) for _ in range(d)]
    return rows, c


@settings(max_examples=300, deadline=None)
@given(small_lps())
def test_enumeration_matches_fraction_reference(lp):
    rows, c = lp
    d = len(c)
    boxed = rows + lpsolve.box_halfspaces(d, 5)
    assert repr(lpsolve._enumerate_vertices(boxed, c, 10**6)) == repr(
        _reference_enumerate(boxed, c, 10**6)
    )
    # End to end, including the recession check behind UNBOUNDED.
    result = solve_lp_enumerate(rows, c)
    with _reference_path():
        assert repr(result) == repr(solve_lp_enumerate(rows, c))


def test_enumeration_covers_every_outcome():
    """The enumeration agrees with the reference on hand-made edge cases."""
    one = Fraction(1)
    cases = [
        ([((one,), Fraction(0)), ((-one,), Fraction(-1))], [one], INFEASIBLE),
        ([((-one, 0), Fraction(0))], [one, 0], "UNBOUNDED"),
        # Every point of the edge x + y = 2 is optimal; (0, 2) is the lex-min vertex.
        ([((one, one), Fraction(2)), ((-one, 0), 0), ((0, -one), 0)], [one, one], "SOLVED"),
    ]
    for rows, c, expected in cases:
        result = solve_lp_enumerate(rows, c)
        assert result[0] == expected
        with _reference_path():
            assert repr(result) == repr(solve_lp_enumerate(rows, c))
    assert solve_lp_enumerate(cases[2][0], cases[2][1])[1] == (0, 2)


VERTEX_LP_KINDS = ("unique", "degenerate", "tie", "zero", "infeasible", "unbounded", "box", "perturbed")


@st.composite
def vertex_lps(draw):
    """Integer LPs around a vertex p, in each shape the certificate must prove
    or refuse.  'unique': c in the open cone of d rows tight at p;
    'degenerate': d + 1 rows tight at p; 'tie': c normal to a tight row, so a
    whole facet may be optimal; 'zero': c = 0; 'infeasible': two opposed rows
    with a gap; 'unbounded': at most one row; 'box': only x_0 is bounded and
    c = e_0, so the optimum touches the box and is SOLVED when d > 1;
    'perturbed': lp-smoothed rows, integers near 5e19 once cleared.  Rows may
    be scaled by integers >= 1e15 or beyond double range, a slack row may
    have a right-hand side beyond double range, a shadow of a tight row may
    lie outside it by less than double resolution, and L may understate the
    data, so that the box cuts off vertices."""
    kind = draw(st.sampled_from(VERTEX_LP_KINDS))
    if kind == "perturbed":
        seed = draw(st.integers(0, 10**6))
        base = gen_random(GenSpec("lp", n=4, d=2, L=4, s=2, seed=seed))
        plp = perturb_lp_stream(base, 0.25, 60, Stream(seed))
        return plp.rows, [Fraction(v) for v in base.c], None
    d = draw(st.integers(1, 3))
    p = [draw(st.integers(-12, 12)) for _ in range(d)]
    vec = st.lists(st.integers(-4, 4), min_size=d, max_size=d).filter(any)
    n_tight = {"degenerate": d + 1, "unbounded": draw(st.integers(0, 1))}.get(kind, d)
    tight = [draw(vec) for _ in range(n_tight)]
    if kind == "box":
        tight = [[1] + [0] * (d - 1)]
    rows = [(a, dot(a, p)) for a in tight]
    if tight and draw(st.booleans()):
        f = 10**17 + 3
        rows.insert(0, ([f * v for v in tight[0]], f * rows[0][1] + 1))
    if kind not in ("unbounded", "box"):
        for _ in range(draw(st.integers(0, 4))):
            a = draw(vec)
            rows.append((a, dot(a, p) + draw(st.integers(1, 6))))
    if kind == "infeasible":
        a = draw(vec)
        rows += [(a, 0), ([-v for v in a], -1)]
    if kind in ("unique", "degenerate"):
        weights = [draw(st.integers(1, 3)) for _ in tight]
        c = [sum(w * a[j] for w, a in zip(weights, tight)) for j in range(d)]
    elif kind in ("tie", "box"):
        c = list(tight[0])
    elif kind == "zero":
        c = [0] * d
    else:
        c = draw(vec)
    scale = st.sampled_from([1, 1, 10**15 + 37, 3**40, 2**1100])
    rows = [([f * v for v in a], f * beta) for (a, beta), f in ((r, draw(scale)) for r in rows)]
    if draw(st.booleans()):
        rows.append((draw(vec), 2**1100))
    rows = [(tuple(a), beta) for a, beta in rows]
    c = [Fraction(v, draw(st.integers(1, 3))) for v in c]
    return rows, c, draw(st.sampled_from([None, None, 1, 2]))


@settings(max_examples=200, deadline=None)
@given(vertex_lps())
def test_certified_path_matches_enumeration(lp):
    """With the certificate tried at every size, results are repr-identical
    to enumeration alone."""
    rows, c, L = lp
    with mock.patch.object(lpsolve, "CERTIFY_MIN_SUBSETS", 0):
        result = solve_lp_enumerate(rows, c, L)
    with mock.patch.object(lpsolve, "_certified_vertex", lambda *args: None):
        assert repr(result) == repr(solve_lp_enumerate(rows, c, L))


def test_certificate_decides_bounded_lps():
    """The certificate, not enumeration, answers >= 95% of bounded GenSpec LPs."""
    certified = 0
    runs = 40
    for seed in range(runs):
        d = 2 + seed % 2
        inst = gen_random(GenSpec("lp", n=20 + seed, d=d, L=6, s=3, seed=seed))
        rows = lpsolve.instance_halfspaces(inst)
        certified += lpsolve._certified_vertex(rows, list(inst.c), cramer_bound(d, inst.L) + 1) is not None
    assert certified >= 0.95 * runs


def test_enumeration_rejects_non_integer_rows():
    rows = [((Fraction(1, 2), Fraction(1)), Fraction(1))] + lpsolve.box_halfspaces(2, 4)
    with pytest.raises(ValueError):
        lpsolve._enumerate_vertices(rows, [Fraction(1), Fraction(1)], 10**6)


def test_incremental_solver_agrees_with_enumeration():
    stream = Stream(12).split("lp-cross")
    for trial in range(60):
        d = 1 + trial % 3
        n = 8
        rows = [
            tuple(stream.randint(-8, 8) for _ in range(d)) for _ in range(n)
        ]
        rhs = [stream.randint(0, 10) for _ in range(n)]  # feasible at origin
        for j in range(d):
            e = [0] * d
            e[j] = 1
            rows.append(tuple(e))
            rhs.append(8)
            e[j] = -1
            rows.append(tuple(e))
            rhs.append(8)
        c = [stream.randint(-5, 5) for _ in range(d)]
        int_rows = list(zip(rows, rhs))
        frac_rows = [(tuple(Fraction(v) for v in row), Fraction(b)) for row, b in int_rows]
        for halfspaces in (frac_rows, int_rows):
            s1, x1, v1 = solve_lp_enumerate(halfspaces, [Fraction(v) for v in c])
            s2, x2, v2 = solve_lp(halfspaces, [Fraction(v) for v in c], stream.split("order", trial))
            assert s1 == s2 == "SOLVED"
            assert v1 == v2
            # Integer rows must never reach an int / int (float) division.
            assert all(type(v) is Fraction for v in (*x1, v1, *x2, v2))


def test_cramer_bound_on_oracle_vertices():
    for seed in range(10):
        inst = gen_random(GenSpec("lp", n=10, d=3, L=5, s=2, seed=seed))
        status, x, _ = lp_exact_oracle(inst)
        assert status == "SOLVED"
        bound = cramer_bound(inst.d, inst.L)
        for v in x:
            assert abs(v.numerator) <= bound
            assert v.denominator <= bound


def test_clarkson_take_all_single_iteration():
    inst = lp_instance([[1], [1], [-1]], [5, 3, 0], [1], [1, 2, 3])
    out, _ = run_protocol("lp-clarkson", inst, seed=0)
    assert out.status == "SOLVED"
    assert out.value == 3
    assert out.iterations == 1


def test_clarkson_oracle_equivalence_and_iteration_bound():
    mism = 0
    for seed in range(30):
        inst = gen_random(GenSpec("lp", n=60, d=2, L=6, s=4, seed=200 + seed))
        status, _, value = lp_exact_oracle(inst)
        assert status == "SOLVED"
        out, _ = run_protocol("lp-clarkson", inst, seed=seed)
        assert out.status == "SOLVED"
        mism += out.value != value
        assert out.iterations <= 10 * inst.d * math.log2(inst.n)
    assert mism == 0


def test_clarkson_solution_feasible_exactly():
    for seed in range(10):
        inst = gen_random(GenSpec("lp", n=50, d=2, L=6, s=3, seed=seed))
        out, _ = run_protocol("lp-clarkson", inst, seed=seed)
        assert out.status == "SOLVED"
        assert all(dot(row, out.x) <= b for row, b in zip(inst.A, inst.b))


def test_clarkson_multiplicity_law():
    for seed in range(10):
        inst = gen_random(GenSpec("lp", n=70, d=2, L=6, s=3, seed=50 + seed))
        out, _ = run_protocol("lp-clarkson", inst, seed=seed)
        d = inst.d
        for v, h, updated in out.extra["history"]:
            if updated:
                assert v <= Fraction(2 * h, 9 * d - 1)
            elif v != 0:
                assert v > Fraction(2 * h, 9 * d - 1)


def test_constraint_payloads_on_integer_instance_are_ints():
    for name, seed, params in (
        ("lp-clarkson", 11, {}),
        ("lp-seidel", 14, {}),
        ("lp-smoothed", 12, {"sigma": 0.25, "t": 60}),
    ):
        inst = gen_random(GenSpec("lp", n=20, d=2, L=6, s=2, seed=seed))
        out, transcript = run_protocol(name, inst, seed=99, **params)
        rows = [r for m in transcript.messages if m.kind == "constraints" for r in m.payload]
        rows += [m.payload for m in transcript.messages if m.kind == "constraint"]
        solutions = [m.payload for m in transcript.messages if m.kind == "solution"]
        assert rows and solutions
        assert all(type(v) is int for row in rows + solutions for v in row)
        if name != "lp-smoothed":  # [n_1..n_d, D] with x_j = n_j / D
            *num, den = solutions[-1]
            assert den > 0 and tuple(Fraction(v, den) for v in num) == out.x


@pytest.mark.parametrize("n", [20, 60])  # every row sent at once / Clarkson samples
def test_smoothed_rows_travel_as_base_rows(n):
    inst = gen_random(GenSpec("lp", n=n, d=2, L=6, s=3, seed=5))
    out, transcript = run_protocol("lp-smoothed", inst, seed=3, sigma=0.25, t=60)
    noise = perturb_lp_stream(
        inst, 0.25, 60, Stream(3).split("protocol", "lp-smoothed").split("smoothed-noise")
    ).noise
    perturbed = out.extra["perturbed"].rows
    sent = [(m.sender.index, r) for m in transcript.messages if m.kind == "constraints" for r in m.payload]
    assert sent
    for sid, (i, *a, b) in sent:
        assert inst.partition[i] == sid
        assert (tuple(a), b) == (inst.A[i], inst.b[i])
        assert (tuple(v + g for v, g in zip(a, noise[i])), b) == perturbed[i]


def test_clarkson_infeasible_detected():
    inst = lp_instance([[1], [-1]], [0, -1], [1], [1, 2])
    out, _ = run_protocol("lp-clarkson", inst, seed=0)
    assert out.status == INFEASIBLE


def test_discrete_gaussian_grid_and_mean():
    stream = Stream(3).split("dg")
    assert trunc_to_grid(Fraction(3, 10), Fraction(1, 2)) == Fraction(1, 2)
    total = Fraction(0)
    draws = 100_000
    t = 20
    for _ in range(draws):
        g = sample_discrete_gaussian(0.1, t, stream)
        assert (g * (1 << t)).denominator == 1  # output * 2^t is an integer
        total += g
    assert abs(float(total) / draws) < 0.002


def test_perturbation_guard():
    inst = gen_random(GenSpec("lp", n=10, d=2, L=5, s=2, seed=1))
    with pytest.raises(ValueError):
        perturb_lp_stream(inst, 0.25, 5, Stream(0))


def test_smoothed_clarkson_matches_perturbed_oracle():
    wrong = 0
    runs = 25
    for seed in range(runs):
        inst = gen_random(GenSpec("lp", n=40, d=2, L=6, s=3, seed=400 + seed))
        out, _ = run_protocol("lp-smoothed", inst, seed=seed, sigma=0.25, t=60)
        assert out.status == "SOLVED"
        plp = out.extra["perturbed"]
        status, _, value = solve_lp_enumerate(plp.rows, [Fraction(v) for v in inst.c])
        assert status == "SOLVED"
        wrong += out.value != value
    assert wrong <= 1


def test_smoothed_rounding_distance_bound():
    inst = gen_random(GenSpec("lp", n=20, d=2, L=6, s=2, seed=9))
    out, _ = run_protocol("lp-smoothed", inst, seed=1, sigma=0.25, t=60)
    delta = out.extra["delta"]
    x = out.x
    rounded = [trunc_to_grid(v, delta) for v in x]
    assert all(abs(r - v) <= delta / 2 for r, v in zip(rounded, x))


def test_smoothed_solution_payload_smaller():
    inst = gen_random(GenSpec("lp", n=30, d=4, L=24, s=3, seed=77))
    out_s, t_s = run_protocol("lp-smoothed", inst, seed=5, sigma=0.25, t=60)
    # Unrounded Clarkson on the same perturbed instance, same seed.
    from commopt.commsim import Network
    from commopt.lpsolve import clarkson

    net = Network("coordinator", inst.s)
    out_u = clarkson(
        inst, net, Stream(5).split("protocol", "lp-smoothed"), DEFAULTS, perturbed=out_s.extra["perturbed"]
    )
    bits_rounded = t_s.bits_by_kind("solution") / max(out_s.iterations, 1)
    bits_full = net.transcript.bits_by_kind("solution") / max(out_u.iterations, 1)
    assert bits_rounded < bits_full


def test_seidel_one_dimensional():
    inst = lp_instance([[1], [1], [-1]], [5, 3, 0], [1], [1, 1, 1])
    out, _ = run_protocol("lp-seidel", inst, seed=0)
    assert out.status == "SOLVED"
    assert out.value == 3


def test_seidel_oracle_equivalence():
    wrong = 0
    for seed in range(30):
        inst = gen_random(
            GenSpec("lp", n=60, d=2, L=6, s=4, seed=900 + seed, partition_policy="random")
        )
        status, _, value = lp_exact_oracle(inst)
        out, _ = run_protocol("lp-seidel", inst, seed=seed)
        assert out.status == "SOLVED" and status == "SOLVED"
        wrong += out.value != value
    assert wrong == 0


def test_seidel_value_invariant_across_seeds():
    inst = gen_random(GenSpec("lp", n=40, d=2, L=6, s=3, seed=31, partition_policy="random"))
    values = set()
    for seed in range(50):
        out, _ = run_protocol("lp-seidel", inst, seed=seed)
        values.add(out.value)
    assert len(values) == 1


def test_seidel_broadcast_count_scaling():
    constraints = solutions = 0
    runs = 200
    d = 2
    for seed in range(runs):
        inst = gen_random(
            GenSpec("lp", n=512, d=d, L=6, s=8, seed=3000 + seed, partition_policy="random")
        )
        out, _ = run_protocol("lp-seidel", inst, seed=seed)
        constraints += out.extra["broadcasts"]["constraint"]
        solutions += out.extra["broadcasts"]["solution"]
    assert constraints / runs <= 4 * d * math.log2(8)
    assert solutions / runs <= 4 * d * math.log2(8)


def test_seidel_only_server_one_publishes_optima():
    for seed in range(10):
        inst = gen_random(GenSpec("lp", n=60, d=2, L=6, s=4, seed=700 + seed, partition_policy="random"))
        out, transcript = run_protocol("lp-seidel", inst, seed=seed)
        sent = [m for m in transcript.messages if m.sender.kind == "server"]
        assert all(m.sender.index == 1 for m in sent if m.kind == "solution")
        assert not any(m.sender.index == 1 for m in sent if m.kind == "constraint")
        assert out.extra["broadcasts"]["solution"] <= out.extra["broadcasts"]["constraint"] + 1
    # Rows all on server 1: nothing else ever tests x, so only the final
    # optimum is published.
    inst = gen_random(GenSpec("lp", n=30, d=2, L=6, s=3, seed=7))
    inst = replace(inst, partition=(1,) * inst.n)
    out, transcript = run_protocol("lp-seidel", inst, seed=0)
    solutions = [m.payload for m in transcript.messages if m.kind == "solution" and m.sender.kind == "server"]
    assert transcript.count_kind("constraint") == 0
    assert len(solutions) == out.extra["broadcasts"]["solution"] == 1
    *num, den = solutions[0]
    assert tuple(Fraction(v, den) for v in num) == out.x
    assert out.value == lp_exact_oracle(inst)[2]


@pytest.mark.parametrize(
    "rows, rhs, c",
    [([[-1], [-1]], [0, 1], [1]), ([[1, 0], [-1, 0]], [4, 0], [0, 1])],
    ids=["ray", "strip"],
)
def test_unbounded_lps_detected(rows, rhs, c):
    inst = lp_instance(rows, rhs, c, [1, 2])
    assert lp_exact_oracle(inst)[0] == "UNBOUNDED"
    for name in ("lp-clarkson", "lp-seidel"):
        out, _ = run_protocol(name, inst, seed=0)
        assert out.status == "UNBOUNDED", name


def _many_row_lp(rows, rhs, c):
    n = len(rows)
    return Instance("lp", n, 2, 8, 4, tuple(rows), tuple(rhs), c, tuple((i % 4) + 1 for i in range(n)))


# 200-row LPs whose Clarkson samples are mostly unbounded: only the last
# rows bound (or empty) the region, and a sample of 36 rarely holds them.
MANY_ROW_LPS = {
    "bounded": _many_row_lp(
        [(0, 1)] * 197 + [(0, -1), (1, 0), (-1, 0)], [*range(1, 198), 10, 5, 5], (1, 1)
    ),
    "infeasible": _many_row_lp([(0, 1)] * 199 + [(0, -1)], [*range(1, 200), -500], (1, 1)),
    "unbounded": _many_row_lp([(0, 1)] * 200, list(range(1, 201)), (1, 0)),
}


@pytest.mark.parametrize("mode", ["coordinator", "blackboard"])
@pytest.mark.parametrize("kind", sorted(MANY_ROW_LPS))
def test_clarkson_decides_the_lp_not_its_sample(kind, mode):
    """An unbounded sample no longer makes the LP UNBOUNDED."""
    inst = MANY_ROW_LPS[kind]
    status, _, value = lp_exact_oracle(inst)
    assert status == {"bounded": "SOLVED", "infeasible": INFEASIBLE, "unbounded": "UNBOUNDED"}[kind]
    for seed in range(10):
        out, _ = run_protocol("lp-clarkson", inst, mode=mode, seed=seed)
        assert (out.status, out.value) == (status, value), seed
        out, _ = run_protocol("lp-smoothed", inst, mode=mode, seed=seed, sigma=0.25, t=60)
        assert out.status == status, seed
        if status == "SOLVED":
            assert out.value == solve_lp_enumerate(out.extra["perturbed"].rows, inst.c)[2], seed


@pytest.mark.parametrize("c", [(1,), (0,), (0, -1), (0, 0)])
def test_lp_without_rows_matches_oracle(c):
    inst = Instance("lp", 0, len(c), 1, 2, (), (), c, ())
    status, _, value = lp_exact_oracle(inst)
    assert (status, value) == (("UNBOUNDED", None) if any(c) else ("SOLVED", 0))
    for name, params in (("lp-clarkson", {}), ("lp-seidel", {}), ("lp-smoothed", {"sigma": 0.25, "t": 60})):
        out, _ = run_protocol(name, inst, seed=0, **params)
        assert (out.status, out.value) == (status, value), name


def test_seidel_infeasible():
    inst = lp_instance([[1], [-1]], [0, -1], [1], [1, 2])
    out, _ = run_protocol("lp-seidel", inst, seed=0)
    assert out.status == INFEASIBLE
