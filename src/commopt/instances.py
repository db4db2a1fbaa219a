"""Instance model, generators, and the instance file format.

Instances carry integer data: an n x d matrix A, optional right-hand side b,
optional objective c, and a 1-based row-to-server partition.  The JSON file
format stores every integer as a string so readers without big-integer
support cannot silently overflow.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from .exactnum import int_det
from .rng import Stream


@dataclass(frozen=True)
class Instance:
    kind: str
    n: int
    d: int
    L: int
    s: int
    A: tuple
    b: tuple | None
    c: tuple | None
    partition: tuple
    sense: str = "max"

    @cached_property
    def _rows_by_server(self) -> dict[int, tuple[int, ...]]:
        # Not a dataclass field, so equality, hashing and the file format
        # ignore it; cached_property writes __dict__ directly, past `frozen`.
        index: dict[int, list[int]] = {}
        for i, owner in enumerate(self.partition):
            index.setdefault(owner, []).append(i)
        return {sid: tuple(rows) for sid, rows in index.items()}

    def rows_of(self, sid: int) -> list[int]:
        """Indices of the rows held by server sid (1-based), as a fresh list."""
        return list(self._rows_by_server.get(sid, ()))

    def server_rows(self, sid: int) -> list[tuple]:
        return [self.A[i] for i in self.rows_of(sid)]

    def server_aug_rows(self, sid: int) -> list[tuple]:
        return [tuple(self.A[i]) + (self.b[i],) for i in self.rows_of(sid)]

    def repartitioned(self, s: int) -> "Instance":
        """The same rows dealt round-robin to s servers."""
        part = make_partition(self.n, s, "round-robin")
        return replace(self, s=s, partition=tuple(part))


@dataclass(frozen=True)
class GenSpec:
    kind: str
    n: int
    d: int
    L: int
    s: int
    seed: int
    feasible: bool = True
    partition_policy: str = "round-robin"

    def validate(self) -> None:
        if self.d < 1 or self.n < 1 or self.s < 1 or self.L < 1:
            raise ValueError("n, d, s, L must all be positive")


def make_partition(n: int, s: int, policy: str, stream: Stream | None = None) -> list[int]:
    if policy == "round-robin":
        return [(i % s) + 1 for i in range(n)]
    if policy == "random":
        if stream is None:
            raise ValueError("random partition needs a stream")
        return [stream.randint(1, s) for _ in range(n)]
    if policy == "one-heavy":
        # Server 1 holds nearly everything; models an asymmetric workload.
        return [1 if i < n - (s - 1) else i - (n - s) + 1 for i in range(n)]
    raise ValueError(f"unknown partition policy {policy!r}")


def box_halfspaces(d: int, bound) -> list[tuple]:
    """|x_j| <= bound as the rows +e_j, -e_j for j = 0 .. d-1, in that order."""
    rows = []
    for j in range(d):
        for sign in (1, -1):
            e = [0] * d
            e[j] = sign
            rows.append((tuple(e), bound))
    return rows


def gen_random(spec: GenSpec) -> Instance:
    """Random instance with entries in [-2^L, 2^L] and the requested shape."""
    spec.validate()
    stream = Stream(spec.seed).split("gen", spec.kind)
    bound = 1 << spec.L
    A = [tuple(stream.randint(-bound, bound) for _ in range(spec.d)) for _ in range(spec.n)]
    part = make_partition(spec.n, spec.s, spec.partition_policy, stream.split("part"))

    b: tuple | None = None
    c: tuple | None = None
    L = spec.L
    if spec.kind in ("linsys", "linsys-feasible", "regression"):
        if spec.kind != "regression" and spec.feasible:
            x0 = [stream.randint(-bound, bound) for _ in range(spec.d)]
            b = tuple(sum(a * x for a, x in zip(row, x0)) for row in A)
        else:
            b = tuple(stream.randint(-bound, bound) for _ in range(spec.n))
        L = max(spec.L, max((abs(v).bit_length() for v in b), default=1))
    elif spec.kind == "lp":
        # Feasible at the origin, kept bounded by appended box rows.
        if spec.feasible:
            b = tuple(stream.randint(0, bound) for _ in range(spec.n))
        else:
            b = tuple(stream.randint(-bound, bound) for _ in range(spec.n))
        c = tuple(stream.randint(-bound, bound) for _ in range(spec.d))
        box = box_halfspaces(spec.d, bound)
        A = A + [a for a, _ in box]
        b = b + tuple(beta for _, beta in box)
        part = part + [((spec.n + k) % spec.s) + 1 for k in range(2 * spec.d)]
        return Instance(spec.kind, len(A), spec.d, spec.L, spec.s, tuple(A), b, c, tuple(part))
    else:
        raise ValueError(f"unknown instance kind {spec.kind!r}")

    return Instance(spec.kind, spec.n, spec.d, L, spec.s, tuple(A), b, c, tuple(part))


# ---------------------------------------------------------------------------
# Hard two-dimensional LP family
# ---------------------------------------------------------------------------


def hard_lp_point(i: int, L: int) -> tuple[Fraction, Fraction]:
    """The i-th unit-circle-adjacent point (i/2^L, 1 - i^2/(2*4^L))."""
    return (Fraction(i, 1 << L), 1 - Fraction(i * i, 2 * (1 << (2 * L))))


def gen_lp_hard_d2(u: int, sets: list[set[int]], L: int) -> Instance:
    """Membership-testing LP on 2 variables: feasible iff u is in no set.

    Coefficients are scaled by 2*4^L to clear denominators, so every entry
    is an integer; the stored L is the post-scaling bit length.  The last
    server pins x to the u-th point via two constraint pairs; every other
    server contributes one halfspace per set element.
    """
    limit = 1 << max(1, L // 100)
    if not 1 <= u <= limit:
        raise ValueError(f"u={u} outside [1, 2^(L/100)]")
    for S in sets:
        for v in S:
            if not 1 <= v <= limit:
                raise ValueError(f"set element {v} outside [1, 2^(L/100)]")

    scale = 2 * (1 << (2 * L))  # 2 * 4^L
    rows: list[tuple[int, int]] = []
    rhs: list[int] = []
    part: list[int] = []
    s = len(sets) + 1

    for sid, S in enumerate(sets, start=1):
        for v in sorted(S):
            # <m_v, x> <= 1, scaled
            rows.append((2 * (1 << L) * v, scale - v * v))
            rhs.append(scale)
            part.append(sid)

    # Server s forces x = m_u through two inequality pairs.
    pin = [
        ((1 << L, 0), u),
        ((-(1 << L), 0), -u),
        ((0, scale), scale - u * u),
        ((0, -scale), -(scale - u * u)),
    ]
    for coeffs, beta in pin:
        rows.append(coeffs)
        rhs.append(beta)
        part.append(s)

    L_data = max(abs(v).bit_length() for row in rows for v in row)
    L_data = max(L_data, max(abs(v).bit_length() for v in rhs))
    return Instance(
        "lp-hard-d2", len(rows), 2, L_data, s, tuple(rows), tuple(rhs), (0, 0), tuple(part)
    )


def hard_lp_feasible_by_membership(u: int, sets: list[set[int]]) -> bool:
    return all(u not in S for S in sets)


# ---------------------------------------------------------------------------
# Singularity experiment
# ---------------------------------------------------------------------------


def sum_of_rademachers(t: int, stream: Stream) -> int:
    """Sum of t independent +/-1 draws."""
    return 2 * stream.popcount_binomial(t) - t


def singularity_trial(d: int, t: int, trials: int, seed: int) -> float:
    """Fraction of d x d matrices with i.i.d. B_t entries that are singular.

    Singularity is decided exactly over the integers.
    """
    stream = Stream(seed).split("singularity", d, t)
    singular = 0
    for _ in range(trials):
        m = [[sum_of_rademachers(t, stream) for _ in range(d)] for _ in range(d)]
        if int_det(m) == 0:
            singular += 1
    return singular / trials


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


def instance_to_json(inst: Instance) -> str:
    doc = {
        "kind": inst.kind,
        "n": inst.n,
        "d": inst.d,
        "L": inst.L,
        "s": inst.s,
        "A": [[str(v) for v in row] for row in inst.A],
        "b": None if inst.b is None else [str(v) for v in inst.b],
        "c": None if inst.c is None else [str(v) for v in inst.c],
        "partition": list(inst.partition),
        "sense": inst.sense,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def instance_from_json(text: str) -> Instance:
    doc = json.loads(text)
    return Instance(
        kind=doc["kind"],
        n=int(doc["n"]),
        d=int(doc["d"]),
        L=int(doc["L"]),
        s=int(doc["s"]),
        A=tuple(tuple(int(v) for v in row) for row in doc["A"]),
        b=None if doc["b"] is None else tuple(int(v) for v in doc["b"]),
        c=None if doc["c"] is None else tuple(int(v) for v in doc["c"]),
        partition=tuple(int(v) for v in doc["partition"]),
        sense=doc.get("sense", "max"),
    )


def write_instance(inst: Instance, path: str) -> str:
    """Write the instance file; returns its content hash."""
    text = instance_to_json(inst)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return hashlib.sha256(text.encode()).hexdigest()


def read_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json(fh.read())
