"""Protocol constants the CLI scales.

The three constants here are the ones the ``--mult-c/-k/-r`` flags multiply
(C, K, R multipliers).  Every other constant the underlying methods leave
unspecified is fixed in the module that reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Constants:
    # Universal sampling constant for both concentration-based samplers.
    sampling_c: float = 20.0
    # Repetitions K of the random F_p probe per server in both randomized
    # linear-system protocols (linsys-solve-rand, and linsys-feas-rand in
    # coordinator mode): a server's turn ends after K probes in a row that
    # add nothing, so a server with an equation outside the span is missed
    # with prob. <= p^-K.
    k_reps: int = 1
    # AGD iteration budget factor: iterations = ceil(agd_c2 * d / eps).
    agd_c2: float = 8.0

    def with_multipliers(self, c_mult: float = 1.0, k_mult: float = 1.0, r_mult: float = 1.0) -> "Constants":
        return replace(
            self,
            sampling_c=self.sampling_c * c_mult,
            k_reps=max(1, math.ceil(self.k_reps * k_mult)),
            agd_c2=self.agd_c2 * r_mult,
        )


DEFAULTS = Constants()
