"""Tunable protocol constants.

Absolute constants the underlying methods leave unspecified are pinned here
and exposed for override from the CLI (C, K, R multipliers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Constants:
    # Universal sampling constant for both concentration-based samplers.
    sampling_c: float = 20.0
    # Prime range for mod-p hashing: primes drawn from [2, (prime_base*d*max(L,1))^prime_exp].
    prime_base: int = 64
    prime_exp: int = 2
    # Repetitions K of the random F_p probe per server in linsys-solve-rand:
    # a server's turn ends after K probes in a row that add nothing, so a
    # server with an equation outside the span is missed with prob. <= p^-K.
    k_reps: int = 1
    # Leverage-score recursion bottoms out at c0 * d * ceil(log2(d+1)) rows.
    leverage_c0: int = 4
    # Lewis-weight clamp floor exponent multiplier: B = lewis_c1 * L * ceil(log2(n*d)).
    lewis_c1: int = 2
    # AGD iteration budget factor: iterations = ceil(agd_c2 * d / eps).
    agd_c2: float = 8.0
    agd_stages: int = 4
    # Cutting-plane round budget factor: T = ceil(cog_c3 * d^2 * L * log2(d+2)).
    cog_c3: int = 4
    cog_samples_per_d: int = 1000
    cog_burnin_per_d2: int = 8
    # Clarkson iteration cap factor: cap = clarkson_cap * d * log2(n+2).
    clarkson_cap: int = 50
    # Basis-enumeration oracle guard: C(n, d) must stay below this.
    oracle_guard: int = 10**6
    # Extra guard bits in the smoothed-Clarkson rounding grid delta.
    smoothed_delta_slack: int = 40

    def with_multipliers(self, c_mult: float = 1.0, k_mult: float = 1.0, r_mult: float = 1.0) -> "Constants":
        return replace(
            self,
            sampling_c=self.sampling_c * c_mult,
            k_reps=max(1, math.ceil(self.k_reps * k_mult)),
            agd_c2=self.agd_c2 * r_mult,
        )


DEFAULTS = Constants()
