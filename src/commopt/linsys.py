"""Distributed linear-system protocols.

Three protocols over a row-partitioned system A x = b:

* ``det_solve``     - deterministic: servers take turns publishing equations
                      that are new relative to the shared independent set C;
                      everyone can then solve C locally.
* ``rand_feasibility`` - all algebra happens mod a random prime.  Servers probe
                      C with ``rand_solve``'s residues but promote nothing; on a
                      blackboard, where all read C, they publish new residue rows.
* ``rand_solve``    - coordinator-only: servers probe C with random F_p
                      combinations of their equations mod p, and only probes
                      new to C mod p are sent again at full precision.  A quiet
                      server (all rows in span(C)) costs K probes.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .commsim import BLACKBOARD_MODE, Network, ProtocolOutcome
from .config import Constants
from .exactnum import INFEASIBLE, AugmentedBasis, random_prime
from .instances import Instance
from .rng import Stream


def prime_range_hi(d: int, L: int) -> int:
    """Prime range for mod-p hashing: primes are drawn from [2, (64 d max(L,1))^2]."""
    return (64 * d * max(L, 1)) ** 2


def _fresh_rows(instance: Instance, net: Network, sid: int, basis: AugmentedBasis, p: int | None):
    """Server `sid`'s rows (mod p if given) that `basis` gains; None if one is inconsistent."""
    fresh = []
    for row in instance.server_aug_rows(sid):
        if p is not None:
            row = [int(v) % p for v in row]
        verdict = basis.insert(row[:-1], row[-1])
        if verdict == "inconsistent":
            net.verdict(sid, "infeasible")
            return None
        if verdict == "independent":
            fresh.append(row)
    return fresh


def _publish_turns(instance: Instance, net: Network, p: int | None = None):
    """Servers take turns publishing their rows new to C (mod p if given); C, or None."""
    shared = AugmentedBasis(instance.d, p)
    for sid in range(1, instance.s + 1):
        net.mark_round()
        fresh = _fresh_rows(instance, net, sid, shared, p)
        if fresh is None:
            return None
        for row in fresh:
            net.server_broadcast(sid, "equation" if p is None else "equation-mod-p", list(row))
    return shared


def _probe_turns(instance: Instance, net: Network, stream: Stream, k: int, p: int, promote=None):
    """Servers take turns probing the coordinator's C mod p; False once inconsistent.

    A probe is a combination of the server's locally independent rows (exact
    if `promote` is given, else mod p) with coefficients uniform in F_p, sent
    mod p.  If a row lies outside span(C) mod p, the probe's residual vanishes
    with probability <= 1/p (Schwartz-Zippel).  `promote(sid, combo)` decides
    each probe not in span(C); without it the mod-p verdict stands.  A turn
    ends after k probes in a row that add nothing to C, so a row left outside
    the span is missed with probability at most p^-k.
    """
    d, q = instance.d, None if promote else p
    screen = AugmentedBasis(d, p)
    for sid in range(1, instance.s + 1):
        net.mark_round()
        s_i = _fresh_rows(instance, net, sid, AugmentedBasis(d, q), q)
        if s_i is None:
            return False
        if not s_i:
            net.verdict(sid, "skip")
            continue
        combos = stream.split("combos", sid)
        misses = 0
        while misses < k:
            misses += 1
            coeffs = [combos.randint(0, p - 1) for _ in s_i]
            combo = [sum(map(mul, coeffs, col)) for col in zip(*s_i)]
            reduced = [v % p for v in combo]
            net.to_coordinator(sid, "combo-mod-p", reduced)
            verdict, residue = screen.classify(reduced[:-1], reduced[-1])
            if verdict == "dependent":
                net.to_server(sid, "reject", None)
                continue
            if promote:
                verdict = promote(sid, combo)
            else:
                net.to_server(sid, "accept" if verdict == "independent" else "infeasible", None)
            if verdict == "inconsistent":
                return False
            if verdict == "independent":
                screen.insert_residual(residue)  # the screen is unchanged since classify
                misses = 0
    return True


def det_solve(instance: Instance, net: Network, stream: Stream, cfg: Constants) -> ProtocolOutcome:
    """Deterministic exact solve; at most d equations ever enter C."""
    shared = _publish_turns(instance, net)
    if shared is None:
        return ProtocolOutcome(INFEASIBLE)
    return ProtocolOutcome("SOLVED", x=tuple(shared.solution()), extra={"equations": shared.rank})


def rand_feasibility(instance: Instance, net: Network, stream: Stream, cfg: Constants) -> ProtocolOutcome:
    """Feasibility testing over F_p for one random prime p."""
    p = random_prime(prime_range_hi(instance.d, instance.L), stream.split("prime"))
    net.to_all_servers("prime", p)
    if net.mode == BLACKBOARD_MODE:
        feasible = _publish_turns(instance, net, p) is not None
    else:
        feasible = _probe_turns(instance, net, stream, cfg.k_reps, p)
    if not feasible:
        return ProtocolOutcome(INFEASIBLE, extra={"p": p})
    net.verdict(None, "feasible")
    return ProtocolOutcome("FEASIBLE", extra={"p": p})


def rand_solve(instance: Instance, net: Network, stream: Stream, cfg: Constants) -> ProtocolOutcome:
    """Randomized solving: mod-p screened random F_p combinations (coordinator model).

    A probe the screen passes is sent as the exact integer combination with
    the same coefficients; its entries have bit length at most
    L + bitlen(p) + bitlen(n_i) + 1 for a server holding n_i rows.  A mod-p
    false positive (dependent over Q) is dropped silently.
    """
    p = random_prime(prime_range_hi(instance.d, instance.L), stream.split("prime"))
    net.to_all_servers("prime", p)
    shared = AugmentedBasis(instance.d)  # coordinator-side, exact

    def promote(sid: int, combo: list) -> str:
        net.to_server(sid, "promote", None)
        net.to_coordinator(sid, "equation", combo)
        return shared.insert(combo[:-1], combo[-1])

    if not _probe_turns(instance, net, stream, cfg.k_reps, p, promote):
        return ProtocolOutcome(INFEASIBLE, extra={"p": p})
    x = tuple(shared.solution())
    return ProtocolOutcome("SOLVED", x=x, extra={"p": p, "equations": shared.rank})


def verify_solution(instance: Instance, x) -> bool:
    """Harness-side exact check that A x = b; outside the transcript."""
    for row, beta in zip(instance.A, instance.b):
        if sum(Fraction(a) * xv for a, xv in zip(row, x)) != beta:
            return False
    return True
