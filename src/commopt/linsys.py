"""Distributed linear-system protocols.

Three protocols over a row-partitioned system A x = b:

* ``det_solve``     - deterministic: servers take turns publishing equations
                      that are new relative to the shared independent set C;
                      everyone can then solve C locally.
* ``rand_feasibility`` - same round structure but all algebra happens mod a
                      random prime, so only residues ever travel.
* ``rand_solve``    - coordinator-only: servers propose random F_p
                      combinations of their equations, cheaply pre-screened
                      mod a random prime, and only combinations that pass the
                      screen are sent at full precision.  A quiet server
                      (all rows in the span of C) costs K probes; a row
                      outside the span is missed with probability <= p^-K.
"""

from __future__ import annotations

from fractions import Fraction

from .commsim import Network, ProtocolOutcome
from .config import Constants
from .exactnum import INFEASIBLE, AugmentedBasis, random_prime
from .instances import Instance
from .rng import Stream


def prime_range_hi(d: int, L: int) -> int:
    """Prime range for mod-p hashing: primes are drawn from [2, (64 d max(L,1))^2]."""
    return (64 * d * max(L, 1)) ** 2


def det_solve(instance: Instance, net: Network, stream: Stream, cfg: Constants) -> ProtocolOutcome:
    """Deterministic exact solve; at most d equations ever enter C."""
    d = instance.d
    shared = AugmentedBasis(d)
    for sid in range(1, instance.s + 1):
        net.mark_round()
        to_publish = []
        for row in instance.server_aug_rows(sid):
            verdict = shared.insert(row[:-1], row[-1])
            if verdict == "inconsistent":
                net.verdict(sid, "infeasible")
                return ProtocolOutcome(INFEASIBLE)
            if verdict == "independent":
                to_publish.append(row)
        for row in to_publish:
            net.server_broadcast(sid, "equation", list(row))
    x = shared.solution()
    return ProtocolOutcome("SOLVED", x=tuple(x), extra={"equations": shared.rank})


def rand_feasibility(
    instance: Instance, net: Network, stream: Stream, cfg: Constants
) -> ProtocolOutcome:
    """Feasibility testing over F_p for one random prime p."""
    d = instance.d
    hi = prime_range_hi(d, instance.L)
    p = random_prime(hi, stream.split("prime"))
    net.to_all_servers("prime", p)

    shared = AugmentedBasis(d, p)
    for sid in range(1, instance.s + 1):
        net.mark_round()
        to_publish = []
        for row in instance.server_aug_rows(sid):
            reduced = [int(v) % p for v in row]
            verdict = shared.insert(reduced[:-1], reduced[-1])
            if verdict == "inconsistent":
                net.verdict(sid, "infeasible")
                return ProtocolOutcome(INFEASIBLE, extra={"p": p})
            if verdict == "independent":
                to_publish.append(reduced)
        for row in to_publish:
            net.server_broadcast(sid, "equation-mod-p", row)
    net.verdict(None, "feasible")
    return ProtocolOutcome("FEASIBLE", extra={"p": p})


def rand_solve(instance: Instance, net: Network, stream: Stream, cfg: Constants) -> ProtocolOutcome:
    """Randomized solving: mod-p screened random F_p combinations (coordinator model).

    Each probe combines the server's locally independent rows with
    coefficients drawn uniformly from F_p and sends the combination mod p.
    If some row lies outside span(C) mod p, the probe's residual is a nonzero
    linear form in the coefficients, so it vanishes with probability at most
    1/p (Schwartz-Zippel).  A server's turn ends after K = ``cfg.k_reps``
    consecutive probes that add nothing to C, so a server with rows left
    outside the span is missed with probability at most p^-K.  A promoted
    probe is sent as the exact integer combination with the same
    coefficients; its entries have bit length at most
    L + bitlen(p) + bitlen(n_i) + 1 for a server holding n_i rows.
    """
    d = instance.d
    hi = prime_range_hi(d, instance.L)
    p = random_prime(hi, stream.split("prime"))
    net.to_all_servers("prime", p)

    shared = AugmentedBasis(d)  # coordinator-side, exact
    shared_modp = AugmentedBasis(d, p)  # coordinator-side screen
    full_sends = 0

    for sid in range(1, instance.s + 1):
        net.mark_round()
        rows = instance.server_aug_rows(sid)
        # Local exact pre-reduction to a maximal independent subset.
        local = AugmentedBasis(d)
        s_i = []
        for row in rows:
            verdict = local.insert(row[:-1], row[-1])
            if verdict == "inconsistent":
                net.verdict(sid, "infeasible")
                return ProtocolOutcome(INFEASIBLE, extra={"p": p})
            if verdict == "independent":
                s_i.append(row)
        if not s_i:
            net.verdict(sid, "skip")
            continue

        combos = stream.split("combos", sid)
        misses = 0
        while misses < cfg.k_reps:
            misses += 1
            coeffs = [combos.randint(0, p - 1) for _ in s_i]
            combo = [sum(c * row[j] for c, row in zip(coeffs, s_i)) for j in range(d + 1)]
            reduced = [v % p for v in combo]
            net.to_coordinator(sid, "combo-mod-p", reduced)
            verdict_p, residue = shared_modp.classify(reduced[:-1], reduced[-1])
            if verdict_p == "dependent":
                net.to_server(sid, "reject", None)
                continue
            # Screen passed: request the full-precision equation.
            net.to_server(sid, "promote", None)
            net.to_coordinator(sid, "equation", combo)
            full_sends += 1
            exact_verdict = shared.insert(combo[:-1], combo[-1])
            if exact_verdict == "inconsistent":
                return ProtocolOutcome(
                    INFEASIBLE, extra={"p": p, "full_sends": full_sends}
                )
            if exact_verdict == "independent":
                shared_modp.insert_residual(residue)  # the screen is unchanged since
                misses = 0
            # A mod-p false positive (dependent over Q) is dropped silently.

    x = shared.solution()
    return ProtocolOutcome(
        "SOLVED", x=tuple(x), extra={"p": p, "full_sends": full_sends, "equations": shared.rank}
    )


def verify_solution(instance: Instance, x) -> bool:
    """Harness-side exact check that A x = b; outside the transcript."""
    for row, beta in zip(instance.A, instance.b):
        if sum(Fraction(a) * xv for a, xv in zip(row, x)) != beta:
            return False
    return True
