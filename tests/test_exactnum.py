"""Exact arithmetic, bit-cost model, primes, and leverage scores."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commopt.exactnum import (
    INFEASIBLE,
    INFINITY,
    AugmentedBasis,
    BitCostModel,
    DimensionError,
    bit_cost_int,
    gram,
    int_det,
    int_solve,
    is_prime,
    leverage_scores,
    min_norm_least_squares,
    rank_and_solve,
    rank_mod_p,
    random_prime,
    solve_exact,
)
from commopt.rng import Stream

MODEL = BitCostModel()


def test_bit_cost_int_examples():
    assert bit_cost_int(0) == 2
    assert bit_cost_int(7) == 4
    assert bit_cost_int(-8) == 5


def test_bit_cost_rational_and_vector():
    assert MODEL.scalar_bits(Fraction(7, 8)) == 4 + 5
    assert MODEL.vector_bits([0, 7]) == 32 + 2 + 4
    assert MODEL.matrix_bits([[1], [1]]) == 64 + 2 + 2


def test_bit_cost_l_bit_entry_bound():
    L = 12
    for k in range(-(1 << L), (1 << L) + 1, 97):
        assert bit_cost_int(k) <= L + 2


def test_rank_and_solve_identity():
    rank, basis, x = rank_and_solve([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 2, 3])
    assert rank == 3
    assert basis == [0, 1, 2]
    assert x == [1, 2, 3]


def test_rank_and_solve_rank_deficient_consistent():
    rank, basis, x = rank_and_solve([[1, 2], [2, 4]], [1, 2])
    assert rank == 1
    assert len(basis) == 1
    assert x[0] + 2 * x[1] == 1  # any point on the line is acceptable


def test_rank_and_solve_infeasible():
    rank, _, x = rank_and_solve([[1, 2], [2, 4]], [1, 3])
    assert rank == 1
    assert x == INFEASIBLE


def test_rank_and_solve_deterministic():
    a = [[3, 1, 4], [1, 5, 9], [2, 6, 5], [3, 5, 8]]
    b = [1, 2, 3, 4]
    assert rank_and_solve(a, b) == rank_and_solve(a, b)


def test_rank_and_solve_dimension_mismatch():
    with pytest.raises(DimensionError):
        rank_and_solve([[1, 2]], [1, 2])


def test_solutions_are_reduced_fractions():
    rows = [[6, 4], [2, 8]]
    x = solve_exact(rows, [3, 5])
    for v in x:
        assert v.denominator >= 1
        import math

        assert math.gcd(abs(v.numerator), v.denominator) == 1


def test_min_norm_least_squares():
    # Overdetermined: normal equations 2x = 2.
    x = min_norm_least_squares([[1], [1]], [0, 2])
    assert x == [1]
    # Rank-deficient: minimum-norm pick among the solution line.
    x = min_norm_least_squares([[1, 1]], [2])
    assert x == [1, 1]


@st.composite
def consistent_systems(draw):
    """Integer A = C B and b = A x0: consistent, often rank-deficient."""
    d = draw(st.integers(1, 5))
    n = draw(st.integers(1, 6))
    k = draw(st.integers(0, min(n, d)))
    small = st.integers(-3, 3)
    basis = [[draw(small) for _ in range(d)] for _ in range(k)]
    coeffs = [[draw(small) for _ in range(k)] for _ in range(n)]
    a = [[sum(c * b[j] for c, b in zip(row, basis)) for j in range(d)] for row in coeffs]
    x0 = [draw(small) for _ in range(d)]
    return a, [sum(v * x for v, x in zip(row, x0)) for row in a]


@settings(max_examples=300, deadline=None)
@given(consistent_systems())
def test_augmented_basis_solution_matches_rank_and_solve(system):
    a, b = system
    basis = AugmentedBasis(len(a[0]))
    for row, beta in zip(a, b):
        assert basis.insert(row, beta) != "inconsistent"
    rank, _, x = rank_and_solve(a, b)
    assert basis.rank == rank
    assert repr(basis.solution()) == repr(x)


def test_rank_mod_p():
    assert rank_mod_p([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 5) == 3
    assert rank_mod_p([[5]], 5) == 0
    assert rank_mod_p([[2, 4], [1, 2]], 3) == 1
    with pytest.raises(ValueError):
        rank_mod_p([[1]], 6)


def test_rank_mod_p_never_exceeds_rational_rank():
    stream = Stream(7).split("rankmod")
    agree = 0
    trials = 100
    d, L = 6, 8
    hi = (d * L) ** 2
    for _ in range(trials):
        m = [[stream.randint(-(1 << L), 1 << L) for _ in range(d)] for _ in range(d)]
        p = random_prime(hi, stream)
        r_q, _, _ = rank_and_solve(m)
        r_p = rank_mod_p(m, p)
        assert r_p <= r_q
        agree += r_p == r_q
    assert agree >= 95


def test_primality():
    assert is_prime(97)
    assert not is_prime(91)
    assert not is_prime(1)
    assert is_prime(2)
    stream = Stream(0).split("primes")
    for _ in range(50):
        p = random_prime(10, stream)
        assert p in (2, 3, 5, 7)


def test_leverage_scores_identity():
    assert leverage_scores([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == [1, 1, 1]


def test_leverage_scores_duplicated_row():
    assert leverage_scores([[1], [1]]) == [Fraction(1, 2), Fraction(1, 2)]


def test_generalized_leverage_infinite():
    assert leverage_scores([[0, 1]], base=[[1, 0]]) == [INFINITY]


def test_leverage_scores_sum_to_rank():
    stream = Stream(3).split("lev")
    for _ in range(20):
        rows = [[stream.randint(-8, 8) for _ in range(3)] for _ in range(6)]
        rank, _, _ = rank_and_solve(rows)
        scores = leverage_scores(rows)
        assert sum(scores, Fraction(0)) == rank
        assert all(0 <= t <= 1 for t in scores)


def test_gram_and_det():
    assert gram([[1, 2], [3, 4]]) == [[10, 14], [14, 20]]
    assert int_det([[1, 2], [3, 4]]) == -2
    assert int_det([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
    assert int_det([[1, 2], [2, 4]]) == 0


@st.composite
def square_systems(draw):
    """Square integer A = C B with rank(A) <= k, so singular systems are common."""
    d = draw(st.integers(1, 5))
    k = draw(st.integers(0, d))
    entry = st.integers(-4, 4)
    left = [[draw(entry) for _ in range(k)] for _ in range(d)]
    right = [[draw(entry) for _ in range(d)] for _ in range(k)]
    a = [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(d)] for i in range(d)]
    return a, [draw(st.integers(-50, 50)) for _ in range(d)]


@settings(max_examples=400, deadline=None)
@given(square_systems())
def test_int_solve_matches_rank_and_solve(system):
    a, b = system
    d = len(a)
    rank, _, x = rank_and_solve(a, b)
    sol = int_solve(a, b)
    assert (sol is None) == (rank < d)
    assert (int_det(a) == 0) == (rank < d)
    if sol is not None:
        num, den = sol
        assert den == abs(int_det(a))
        assert [Fraction(v, den) for v in num] == x


def test_arithmetic_chain_stays_reduced():
    import math

    stream = Stream(11).split("chain")
    for _ in range(200):
        a = Fraction(stream.randint(-50, 50), stream.randint(1, 50))
        b = Fraction(stream.randint(-50, 50), stream.randint(1, 50))
        c = a * b + a - b
        if c:
            c = c / (a * a + 1)
        assert c.denominator >= 1
        assert math.gcd(abs(c.numerator), c.denominator) == 1
