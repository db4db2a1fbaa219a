"""Counter-based deterministic random streams.

Every draw is a keyed blake2b hash of (seed, path, counter), so streams are
reproducible across platforms and processes, and per-party substreams are
independent by construction: each split extends the path prefix, never the
counter, so no two distinct streams ever hash the same input.  Each 32-byte
digest is unpacked as four little-endian 64-bit words, and draws take them
from the last to the first before the counter moves on.
"""

from __future__ import annotations

import hashlib
import math
import struct

_WORDS = struct.Struct("<4Q")
_COUNTER = struct.Struct("<Q")


class Stream:
    """Deterministic random stream keyed by a 64-bit seed and a path prefix."""

    __slots__ = ("_key", "_path", "_prefix", "_counter", "_buf", "_spare_gauss")

    def __init__(self, seed: int, path: tuple = ()):
        self._key = struct.pack("<Q", seed & 0xFFFFFFFFFFFFFFFF)
        self._path = b"/".join(str(p).encode() for p in path)
        # blake2b keyed and fed the path, built on the first refill; each
        # refill hashes a copy of it, so the key block is compressed once.
        self._prefix = None
        self._counter = 0
        self._buf: list[int] = []
        self._spare_gauss: float | None = None

    def split(self, *labels) -> "Stream":
        """Child stream with an extended path; independent of the parent."""
        child = Stream(0)
        child._key = self._key
        extra = b"/".join(str(p).encode() for p in labels)
        child._path = self._path + b"|" + extra if self._path else extra
        return child

    def _refill(self) -> None:
        if self._prefix is None:
            self._prefix = hashlib.blake2b(self._path, key=self._key, digest_size=32)
        h = self._prefix.copy()
        h.update(_COUNTER.pack(self._counter))
        self._counter += 1
        self._buf = list(_WORDS.unpack(h.digest()))

    def u64(self) -> int:
        if not self._buf:
            self._refill()
        return self._buf.pop()

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        if not self._buf:
            self._refill()
        return (self._buf.pop() >> 11) * (1.0 / (1 << 53))

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], rejection-sampled for exact uniformity."""
        if hi < lo:
            raise ValueError("empty range")
        span = hi - lo + 1
        nbits = span.bit_length()
        mask = (1 << nbits) - 1
        while True:
            v = self.u64() & mask
            if v < span:
                return lo + v

    def gauss(self) -> float:
        """Standard normal via the Marsaglia polar method."""
        if self._spare_gauss is not None:
            g = self._spare_gauss
            self._spare_gauss = None
            return g
        while True:
            u = 2.0 * self.random() - 1.0
            v = 2.0 * self.random() - 1.0
            s = u * u + v * v
            if 0.0 < s < 1.0:
                scale = math.sqrt(-2.0 * math.log(s) / s)
                self._spare_gauss = v * scale
                return u * scale

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]

    def draw_weighted(self, weights, k: int) -> list[int]:
        """k independent indices, each drawn with probability proportional to its weight.

        The weights are summed in order into float cumulative sums; each draw
        takes one `random()` and returns the first index whose cumulative sum
        exceeds it, clamped to the last index.
        """
        cumulative = []
        acc = 0.0
        for w in weights:
            acc += w
            cumulative.append(acc)
        picks = []
        for _ in range(k):
            r = self.random() * acc
            lo, hi = 0, len(cumulative) - 1
            while lo < hi:
                mid = (lo + hi) // 2
                if cumulative[mid] <= r:
                    lo = mid + 1
                else:
                    hi = mid
            picks.append(lo)
        return picks

    def multinomial(self, n: int, weights: list) -> list[int]:
        """Split n draws across categories with the given weights."""
        counts = [0] * len(weights)
        remaining = n
        wsum = float(sum(weights))
        for i, w in enumerate(weights[:-1]):
            if remaining == 0 or wsum <= 0.0:
                break
            p = min(1.0, max(0.0, w / wsum))
            k = self._binomial(remaining, p)
            counts[i] = k
            remaining -= k
            wsum -= w
        counts[-1] += remaining
        return counts

    def _binomial(self, n: int, p: float) -> int:
        k = 0
        for _ in range(n):
            if self.random() < p:
                k += 1
        return k

    def popcount_binomial(self, t: int) -> int:
        """Number of successes in t fair coin flips, via popcount of raw bits."""
        k = 0
        left = t
        while left > 0:
            take = min(left, 64)
            bits = self.u64() & ((1 << take) - 1)
            k += bits.bit_count()
            left -= take
        return k
