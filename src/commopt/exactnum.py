"""Exact arithmetic substrate: rationals and finite fields.

Rational scalars are plain `fractions.Fraction` values, which already maintain
the reduced-fraction invariant (gcd(|num|, den) = 1, den >= 1, zero as 0/1).
Finite-field work happens on plain ints reduced mod a prime.

All linear algebra here is exact and fraction-free: the protocols' row
elimination runs in one integer kernel, `RowBasis`, for both Q and F_p, and
square solves and determinants in one Bareiss loop.  `rank_and_solve`, a
Fraction Gauss-Jordan, is kept only as the independent reference.
Floating-point approximations live in the sampling and gradient modules,
where approximation is inherent.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from typing import Sequence

INFINITY = float("inf")

#: Sentinel verdict for inconsistent linear systems.
INFEASIBLE = "INFEASIBLE"


class DimensionError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Exact dense helpers
# ---------------------------------------------------------------------------


def _as_rows(matrix) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in matrix]


def clear_denominators(row: Sequence) -> list[int]:
    """The rational `row` times the lcm of its denominators: integer, never
    truncated, with signs and inequality directions kept."""
    den = math.lcm(*(v.denominator for v in row))
    return [v.numerator * (den // v.denominator) for v in row]


def transpose(rows: Sequence[Sequence]) -> list[list]:
    return [list(col) for col in zip(*rows)] if rows else []

def mat_vec(rows: Sequence[Sequence], x: Sequence) -> list:
    return [sum(a * b for a, b in zip(row, x)) for row in rows]

def dot(u: Sequence, v: Sequence):
    return sum(a * b for a, b in zip(u, v))

def gram(rows: Sequence[Sequence]) -> list[list]:
    """A^T A without forming the transpose explicitly."""
    if not rows:
        return []
    d = len(rows[0])
    g = [[0] * d for _ in range(d)]
    for row in rows:
        for i in range(d):
            ri = row[i]
            if ri == 0:
                continue
            for j in range(i, d):
                g[i][j] += ri * row[j]
    for i in range(d):
        for j in range(i):
            g[i][j] = g[j][i]
    return g


# ---------------------------------------------------------------------------
# Row-basis maintenance (rationals or F_p)
# ---------------------------------------------------------------------------


class RowBasis:
    """Incrementally maintained row space in fraction-free reduced echelon form.

    Rows are held as integers.  Over Q (`p=None`) an elimination step is
    ``row * lead - f * pivot`` divided by its content.  Over F_p every pivot
    is scaled to lead with 1, so a step is ``row - f * pivot`` with each
    entry reduced mod p in the same pass.  A rational input row is cleared
    of denominators (`clear_denominators`); mod-p callers pass integer rows,
    which are only reduced mod p.  Supports the independence and consistency
    tests every protocol needs on augmented rows [a | beta].
    """

    def __init__(self, p: int | None = None):
        self.p = p
        self.pivots: dict[int, list[int]] = {}

    def _tidy(self, row: list[int]) -> list[int]:
        p = self.p
        if p is not None:
            return [v % p for v in row]
        g = math.gcd(*row)
        return row if g <= 1 else [v // g for v in row]

    def _eliminate(self, row: list[int], piv: list[int], col: int) -> list[int]:
        """`row` with its entry in pivot column `col` cleared by pivot row `piv`."""
        f, lead = row[col], piv[col]
        if self.p is not None:  # the pivot leads with 1; tidied in the same pass
            return [(a - f * b) % self.p for a, b in zip(row, piv)]
        return self._tidy([a * lead - f * b for a, b in zip(row, piv)])

    def residual(self, row: Sequence) -> list[int]:
        """Integer row proportional to `row` reduced against every pivot."""
        work = self._tidy(row if self.p is not None else clear_denominators(row))
        # Reduced echelon form: pivot rows vanish in each other's pivot
        # columns, so the pivots may be applied in any order.
        for col, piv in self.pivots.items():
            if work[col]:
                work = self._eliminate(work, piv, col)
        return work

    def contains(self, row: Sequence) -> bool:
        return not any(self.residual(row))

    def insert(self, row: Sequence) -> bool:
        """Add the row if independent; returns True when the rank grew."""
        return self._insert_residual(self.residual(row))

    def _insert_residual(self, work: list[int]) -> bool:
        """Insert a row already reduced against this basis (see `residual`)."""
        col = next((c for c, v in enumerate(work) if v), None)
        if col is None:
            return False
        if self.p is not None:
            inv = pow(work[col], -1, self.p)
            work = [v * inv % self.p for v in work]
        for c, piv in self.pivots.items():
            if piv[col]:
                self.pivots[c] = self._eliminate(piv, work, col)
        self.pivots[col] = work
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)


class AugmentedBasis:
    """Row basis over augmented rows [a | beta] that tracks consistency.

    An inserted row whose coefficient part is dependent but whose augmented
    row is independent witnesses an inconsistent system.
    """

    def __init__(self, d: int, p: int | None = None):
        self.d = d
        self.basis = RowBasis(p)

    def _verdict(self, work: list) -> str:
        if not any(work):
            return "dependent"
        if any(work[: self.d]):
            return "independent"
        return "inconsistent"

    def classify(self, coeffs: Sequence, rhs) -> tuple[str, list[int]]:
        """Verdict on the row [coeffs | rhs] and its residual against the basis."""
        work = self.basis.residual(list(coeffs) + [rhs])
        return self._verdict(work), work

    def insert(self, coeffs: Sequence, rhs) -> str:
        """Classify the row and add it when independent; one reduction in all."""
        return self.insert_residual(self.basis.residual(list(coeffs) + [rhs]))

    def insert_residual(self, work: list[int]) -> str:
        """Add a residual from `classify`, if independent, to the unchanged basis."""
        verdict = self._verdict(work)
        if verdict == "independent":
            self.basis._insert_residual(work)
        return verdict

    def solution(self) -> list[Fraction]:
        """Exact solution of the inserted rows, free variables set to zero.

        The basis is in reduced echelon form and never holds a pivot in the
        rhs column, so each pivot row reads off one coordinate as the ratio
        of its rhs entry to its pivot.  Exact (``p=None``) bases only.
        """
        x = [Fraction(0)] * self.d
        for col, row in self.basis.pivots.items():
            x[col] = Fraction(row[self.d], row[col])
        return x

    @property
    def rank(self) -> int:
        return self.basis.rank


# ---------------------------------------------------------------------------
# Rank and exact solving
# ---------------------------------------------------------------------------


def rank_and_solve(matrix, rhs: Sequence | None = None):
    """Exact Gaussian elimination over the rationals.

    Returns ``(rank, basis_row_indices, solution)`` where ``solution`` is an
    exact vector with ``A x = rhs`` (free variables set to zero), the string
    ``INFEASIBLE`` when no solution exists, or ``None`` when no rhs is given.
    """
    rows = _as_rows(matrix)
    if not rows:
        raise DimensionError("empty matrix")
    n, d = len(rows), len(rows[0])
    if rhs is not None and len(rhs) != n:
        raise DimensionError("rhs length mismatch")

    aug = [row + ([Fraction(rhs[i])] if rhs is not None else []) for i, row in enumerate(rows)]
    order = list(range(n))
    width = d + (1 if rhs is not None else 0)

    pivot_cols: list[int] = []
    basis_rows: list[int] = []
    r = 0
    for col in range(d):
        sel = None
        for i in range(r, n):
            if aug[i][col]:
                sel = i
                break
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        order[r], order[sel] = order[sel], order[r]
        piv = aug[r][col]
        aug[r] = [x / piv for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivot_cols.append(col)
        basis_rows.append(order[r])
        r += 1
        if r == n:
            break

    rank = r
    if rhs is None:
        return rank, sorted(basis_rows), None

    for i in range(rank, n):
        if aug[i][d]:
            return rank, sorted(basis_rows), INFEASIBLE
    x = [Fraction(0)] * d
    for k, col in enumerate(pivot_cols):
        x[col] = aug[k][d]
    return rank, sorted(basis_rows), x


def solve_exact(matrix, rhs: Sequence):
    """Exact solution of A x = rhs, free variables set to zero; None when inconsistent.

    The same vector `rank_and_solve` returns: both read the unique reduced
    echelon form of [A | rhs].
    """
    if not matrix or len(rhs) != len(matrix):
        raise DimensionError("empty matrix or rhs length mismatch")
    basis = AugmentedBasis(len(matrix[0]))
    for row, beta in zip(matrix, rhs):
        if basis.insert(row, beta) == "inconsistent":
            return None
    return basis.solution()


def min_norm_least_squares(matrix, rhs: Sequence) -> list[Fraction]:
    """Exact minimum-norm least-squares solution (A^T A)^+ A^T b."""
    return solve_normal(gram(matrix), mat_vec(transpose(matrix), rhs))


def solve_normal(g: Sequence[Sequence], y: Sequence) -> list[Fraction]:
    """Minimum-norm solution of the normal equations G x = y, G = A^T A, y = A^T b.

    Solved through a rank factorization of G: the minimizer is sought inside
    the row space of A, where the restricted normal system is nonsingular.
    """
    space = RowBasis()
    basis = [row for row in g if space.insert(row)]  # spans range(G) = rowspace(A)
    if not basis:
        return [Fraction(0)] * len(g)
    g_basis = [mat_vec(g, bj) for bj in basis]
    m = [[dot(bi, gbj) for gbj in g_basis] for bi in basis]
    t = [dot(bi, y) for bi in basis]
    u = solve_exact(m, t)
    if u is None:
        raise RuntimeError("restricted normal system is singular")
    x = [Fraction(0)] * len(g)
    for coeff, brow in zip(u, basis):
        for j, v in enumerate(brow):
            x[j] += coeff * v
    return x


def _bareiss(rows: list[list[int]], n: int) -> int:
    """Fraction-free elimination (Bareiss 1968) on the leading n columns, in place.

    `rows` holds n integer rows, possibly extended by extra columns.  Returns
    det of the leading n x n block A, 0 when it is singular.  With extra
    columns the elimination is Gauss-Jordan: for nonsingular A, the extra
    columns of row i end as det(P A) times row i of A^-1 applied to them,
    P being the row swaps made.  Every entry stays an integer minor, so each
    division below is exact.
    """
    sign = 1
    prev = 1
    for k in range(n):
        if rows[k][k] == 0:
            for i in range(k + 1, n):
                if rows[i][k]:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row = rows[k]
        pivot = pivot_row[k]
        # Rows above the pivot feed only the extra columns; a bare
        # determinant needs forward elimination alone.
        for row in rows if len(pivot_row) > n else rows[k + 1 :]:
            if row is pivot_row:
                continue
            f = row[k]
            for j in range(k + 1, len(row)):
                row[j] = (row[j] * pivot - f * pivot_row[j]) // prev
        prev = pivot
    return sign * prev


def int_solve(matrix, rhs: Sequence) -> tuple[list[int], int] | None:
    """Exact solution of a square integer system A x = rhs by integer Cramer.

    Returns ``(num, den)`` with ``den = |det A| > 0`` and ``x = num / den``,
    or ``None`` when A is singular.  Entries must already be ints.
    """
    n = len(rhs)
    if n == 0 or len(matrix) != n or any(len(row) != n for row in matrix):
        raise DimensionError("integer solve needs a nonempty square system")
    rows = [[*row, beta] for row, beta in zip(matrix, rhs)]
    if _bareiss(rows, n) == 0:
        return None
    # Row i now ends with D x_i, where D = det(P A) = +-det A is the last pivot.
    last = rows[-1][n - 1]
    if last < 0:
        return [-row[n] for row in rows], -last
    return [row[n] for row in rows], last


def first_basis_solve(rows, rhs: Sequence, order, d: int):
    """`int_solve` on the first d linearly independent rows taken in `order`.

    Returns ``(basis, num, den)``, with ``basis`` the chosen row indices in
    `order`'s order, or ``None`` when those rows have rank below d.  This is
    how a float guess of a vertex becomes an exact one: `order` ranks the
    rows by how tight the guess holds them.  Entries must already be ints.
    """
    span = RowBasis()
    basis = []
    for i in order:
        if span.insert(rows[i]):
            basis.append(i)
            if len(basis) == d:
                num, den = int_solve([rows[k] for k in basis], [rhs[k] for k in basis])
                return basis, num, den
    return None


def int_det(matrix) -> int:
    """Exact determinant of an integer matrix (fraction-free Bareiss)."""
    rows = [list(map(int, r)) for r in matrix]
    if any(len(r) != len(rows) for r in rows):
        raise DimensionError("determinant needs a square matrix")
    return _bareiss(rows, len(rows))


# ---------------------------------------------------------------------------
# Primality
# ---------------------------------------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _miller_rabin(n: int, a: int) -> bool:
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin below 2^64; 40 extra pseudorandom rounds above."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    for a in _SMALL_PRIMES:
        if not _miller_rabin(n, a):
            return False
    if n < (1 << 64):
        return True
    seed = n.to_bytes((n.bit_length() + 7) // 8, "little")
    for i in range(40):
        h = hashlib.blake2b(seed + i.to_bytes(4, "little"), digest_size=8).digest()
        a = 2 + int.from_bytes(h, "little") % (n - 3)
        if not _miller_rabin(n, a):
            return False
    return True


def random_prime(hi: int, stream) -> int:
    """Uniform prime in [2, hi] by rejection sampling."""
    if hi < 2:
        raise ValueError("hi must be at least 2")
    while True:
        k = stream.randint(2, hi)
        if is_prime(k):
            return k


# ---------------------------------------------------------------------------
# Leverage scores
# ---------------------------------------------------------------------------


def leverage_scores(matrix, base=None) -> list:
    """Exact (generalized) leverage scores of the rows of A with respect to B.

    Returns one exact rational per row, or INFINITY for rows outside the
    row space of B.  With ``base=None`` ordinary leverage scores are
    computed (B = A), which always lie in [0, 1] and sum to rank(A).
    """
    a_rows = list(matrix)
    b_rows = a_rows if base is None else list(base)
    if b_rows and a_rows and len(b_rows[0]) != len(a_rows[0]):
        raise DimensionError("column count mismatch")

    space = RowBasis()
    for row in b_rows:
        space.insert(row)
    g = gram(b_rows)  # only read for nonzero rows inside rowspace(B), so B is nonempty

    scores = []
    for row in a_rows:
        if not space.contains(row):
            scores.append(INFINITY)
            continue
        if not any(row):
            scores.append(Fraction(0))
            continue
        z = solve_exact(g, row)
        # Row is in rowspace(B) = range(G), so the system is consistent and
        # any solution yields the same quadratic form value.
        if z is None:
            raise RuntimeError("row inside rowspace(B) has no solution of G z = row")
        scores.append(dot(row, z))
    return scores
