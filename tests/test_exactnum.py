"""Exact arithmetic, primes, and leverage scores."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commopt.exactnum import (
    INFEASIBLE,
    INFINITY,
    AugmentedBasis,
    DimensionError,
    RowBasis,
    dot,
    gram,
    int_det,
    int_solve,
    is_prime,
    leverage_scores,
    mat_vec,
    min_norm_least_squares,
    rank_and_solve,
    random_prime,
    transpose,
)
from commopt.rng import Stream

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


def _augmented_solution(a, b):
    """AugmentedBasis.solution() after inserting [a | b]; None when inconsistent."""
    basis = AugmentedBasis(len(a[0]))
    for row, beta in zip(a, b):
        if basis.insert(row, beta) == "inconsistent":
            return None
    return basis.solution()


def test_solutions_are_reduced_fractions():
    rows = [[6, 4], [2, 8]]
    x = _augmented_solution(rows, [3, 5])
    for v in x:
        assert v.denominator >= 1
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


@st.composite
def rational_systems(draw):
    """A = C B, integer or with small denominators and often rank-deficient.

    b is A x0 (consistent) or drawn freely (inconsistent when A is deficient).
    """
    d = draw(st.integers(1, 5))
    n = draw(st.integers(1, 6))
    k = draw(st.integers(0, min(n, d)))
    integer = draw(st.booleans())
    entry = st.builds(Fraction, st.integers(-3, 3), st.just(1) if integer else st.integers(1, 4))
    basis = [[draw(entry) for _ in range(d)] for _ in range(k)]
    coeffs = [[draw(entry) for _ in range(k)] for _ in range(n)]
    a = [
        [sum((c * b[j] for c, b in zip(row, basis)), Fraction(0)) for j in range(d)]
        for row in coeffs
    ]
    if draw(st.booleans()):
        x0 = [draw(entry) for _ in range(d)]
        b = [dot(row, x0) for row in a]
    else:
        b = [draw(entry) for _ in range(n)]
    if integer:
        a, b = [[int(v) for v in row] for row in a], [int(v) for v in b]
    return a, b


def _prefix_ranks(rows):
    return [rank_and_solve(rows[:k])[0] if k else 0 for k in range(len(rows) + 1)]


@settings(max_examples=300, deadline=None)
@given(rational_systems())
def test_augmented_basis_verdicts_match_prefix_ranks(system):
    a, b = system
    ranks = _prefix_ranks(a)
    aug_ranks = _prefix_ranks([[*row, beta] for row, beta in zip(a, b)])
    basis = AugmentedBasis(len(a[0]))
    for k, (row, beta) in enumerate(zip(a, b)):
        if ranks[k + 1] > ranks[k]:
            expected = "independent"
        elif aug_ranks[k + 1] > aug_ranks[k]:
            expected = "inconsistent"
        else:
            expected = "dependent"
        assert basis.insert(row, beta) == expected
        if expected == "inconsistent":
            break  # the row is not inserted, and the protocols stop here
        assert basis.rank == ranks[k + 1]


@settings(max_examples=300, deadline=None)
@given(rational_systems())
def test_augmented_basis_matches_rank_and_solve_on_rational_systems(system):
    a, b = system
    _, _, x = rank_and_solve(a, b)
    got = _augmented_solution(a, b)
    assert (got is None) == (x == INFEASIBLE)
    if got is not None:
        assert repr(got) == repr(x)


def _reference_rank_and_solve(matrix, rhs=None):
    """`rank_and_solve` as a plain Fraction Gauss-Jordan: each pivot row is
    scaled to lead with 1 and cleared from every other row."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    n, d = len(rows), len(rows[0])
    aug = [row + ([Fraction(rhs[i])] if rhs is not None else []) for i, row in enumerate(rows)]
    order = list(range(n))
    pivot_cols, basis_rows = [], []
    r = 0
    for col in range(d):
        sel = next((i for i in range(r, n) if aug[i][col]), None)
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        order[r], order[sel] = order[sel], order[r]
        piv = aug[r][col]
        aug[r] = [v / piv for v in aug[r]]
        for i in range(n):
            if i != r and aug[i][col]:
                f = aug[i][col]
                aug[i] = [u - f * v for u, v in zip(aug[i], aug[r])]
        pivot_cols.append(col)
        basis_rows.append(order[r])
        r += 1
        if r == n:
            break
    if rhs is None:
        return r, sorted(basis_rows), None
    if any(aug[i][d] for i in range(r, n)):
        return r, sorted(basis_rows), INFEASIBLE
    x = [Fraction(0)] * d
    for k, col in enumerate(pivot_cols):
        x[col] = aug[k][d]
    return r, sorted(basis_rows), x


@settings(max_examples=300, deadline=None)
@given(rational_systems(), st.booleans())
def test_rank_and_solve_matches_fraction_reference(system, with_rhs):
    a, b = system
    rhs = b if with_rhs else None
    assert repr(rank_and_solve(a, rhs)) == repr(_reference_rank_and_solve(a, rhs))


def _reference_solve_normal(g, y):
    """Minimum-norm solve of G x = y on Fraction Gauss-Jordan alone."""
    rank, basis_idx, _ = _reference_rank_and_solve(g)
    if rank == 0:
        return [Fraction(0)] * len(g)
    basis = [g[i] for i in basis_idx]
    m = [[dot(bi, mat_vec(g, bj)) for bj in basis] for bi in basis]
    _, _, u = _reference_rank_and_solve(m, [dot(bi, y) for bi in basis])
    x = [Fraction(0)] * len(g)
    for coeff, brow in zip(u, basis):
        for j, v in enumerate(brow):
            x[j] += coeff * v
    return x


@settings(max_examples=300, deadline=None)
@given(rational_systems())
def test_min_norm_least_squares_matches_reference(system):
    a, b = system
    expected = _reference_solve_normal(gram(a), mat_vec(transpose(a), b))
    assert repr(min_norm_least_squares(a, b)) == repr(expected)


def _rowbasis_rank(rows, p: int) -> int:
    """Rank over F_p as the protocols reach it, through `RowBasis(p)`."""
    basis = RowBasis(p)
    for row in rows:
        basis.insert(row)
    return basis.rank


def _prime_above(bound: int) -> int:
    p = bound + 1
    while not is_prime(p):
        p += 1
    return p


@settings(max_examples=300, deadline=None)
@given(rational_systems())
def test_rank_mod_p_equals_rational_rank_above_hadamard_bound(system):
    a, _ = system
    # Integer rows with the same rank; every minor is at most the Hadamard
    # bound prod |row|, so no nonzero minor vanishes mod a larger prime.
    rows = []
    for row in a:
        den = math.lcm(*(Fraction(v).denominator for v in row))
        rows.append([int(v * den) for v in row])
    hadamard = math.prod(math.isqrt(sum(v * v for v in row)) + 1 for row in rows)
    assert _rowbasis_rank(rows, _prime_above(hadamard)) == rank_and_solve(a)[0]


def test_rank_mod_p():
    assert _rowbasis_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 5) == 3
    assert _rowbasis_rank([[5]], 5) == 0
    assert _rowbasis_rank([[2, 4], [1, 2]], 3) == 1


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
        r_p = _rowbasis_rank(m, p)
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


@st.composite
def leverage_cases(draw):
    """(A, B): B = C W of rank at most k, integer or with small denominators;
    each row of A is in rowspace(B) (a combination of W's rows) or drawn
    freely, so often outside it when B is deficient."""
    d = draw(st.integers(1, 5))
    k = draw(st.integers(0, d))
    integer = draw(st.booleans())
    entry = st.builds(Fraction, st.integers(-3, 3), st.just(1) if integer else st.integers(1, 4))

    def combos(count):
        return [
            [sum((c * w[j] for c, w in zip(coeffs, basis)), Fraction(0)) for j in range(d)]
            for coeffs in ([draw(entry) for _ in range(k)] for _ in range(count))
        ]

    basis = [[draw(entry) for _ in range(d)] for _ in range(k)]
    b = combos(draw(st.integers(1, 6)))
    a = [
        combos(1)[0] if draw(st.booleans()) else [draw(entry) for _ in range(d)]
        for _ in range(draw(st.integers(1, 6)))
    ]
    if integer:
        a, b = [[int(v) for v in row] for row in a], [[int(v) for v in row] for row in b]
    return a, b


def _reference_leverage_scores(matrix, base):
    """One Fraction solve of G z = a per row a, G = B^T B: score a.z, or
    INFINITY when a raises the rank of B."""
    rank = _reference_rank_and_solve(base)[0]
    g = gram(base)
    scores = []
    for row in matrix:
        if _reference_rank_and_solve([*base, row])[0] > rank:
            scores.append(INFINITY)
        else:
            scores.append(dot(row, _reference_rank_and_solve(g, row)[2]))
    return scores


@settings(max_examples=300, deadline=None)
@given(leverage_cases())
def test_leverage_scores_match_per_row_reference(case):
    a, b = case
    assert repr(leverage_scores(a, base=b)) == repr(_reference_leverage_scores(a, b))
    assert repr(leverage_scores(b)) == repr(_reference_leverage_scores(b, b))


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
    stream = Stream(11).split("chain")
    for _ in range(200):
        a = Fraction(stream.randint(-50, 50), stream.randint(1, 50))
        b = Fraction(stream.randint(-50, 50), stream.randint(1, 50))
        c = a * b + a - b
        if c:
            c = c / (a * a + 1)
        assert c.denominator >= 1
        assert math.gcd(abs(c.numerator), c.denominator) == 1
