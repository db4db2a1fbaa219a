"""Coordinator-model and blackboard-model message accounting.

Servers and the coordinator exchange typed payloads through a `Network`,
which prices every message (`Network.payload_bits`) and appends it to an
ordered `Transcript`.  Protocols never touch another party's state except
through `Network` calls, so the transcript is a complete record of what
crossed party boundaries.

Cost conventions:
  * coordinator <-> server messages cost the payload bits;
  * a server-to-server exchange in the coordinator model costs both legs
    plus ceil(log2 s) addressing bits per relayed leg;
  * in the blackboard model a broadcast is charged once, whoever listens;
  * verdict / skip / sync messages cost 1 bit.
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from .config import DEFAULTS, Constants
from .rng import Stream

COORDINATOR_MODE = "coordinator"
BLACKBOARD_MODE = "blackboard"
MODES = (COORDINATOR_MODE, BLACKBOARD_MODE)


@dataclass(frozen=True)
class PartyId:
    kind: str  # "coordinator" | "server" | "broadcast"
    index: int = 0

    def __str__(self) -> str:
        if self.kind == "server":
            return f"S{self.index}"
        return "C" if self.kind == "coordinator" else "ALL"


COORDINATOR = PartyId("coordinator")
BROADCAST = PartyId("broadcast")


@functools.cache
def server(i: int) -> PartyId:
    return PartyId("server", i)


@dataclass(frozen=True)
class Message:
    sender: PartyId
    receiver: PartyId
    kind: str
    payload: Any
    bits: int


class Transcript:
    def __init__(self, mode: str):
        self.mode = mode
        self.messages: list[Message] = []
        self.rounds = 0

    @property
    def total_bits(self) -> int:
        return sum(m.bits for m in self.messages)

    def bits_by_kind(self, kind: str) -> int:
        return sum(m.bits for m in self.messages if m.kind == kind)

    def count_kind(self, kind: str) -> int:
        return sum(1 for m in self.messages if m.kind == kind)

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("index,from,to,kind,bits\r\n")
        for i, m in enumerate(self.messages):
            out.write(f"{i},{m.sender},{m.receiver},{m.kind},{m.bits}\r\n")
        out.write(f"total,,,{self.mode},{self.total_bits}\r\n")
        return out.getvalue()


@dataclass
class ProtocolOutcome:
    status: str  # SOLVED | FEASIBLE | INFEASIBLE | UNBOUNDED | EMPTY | PRESUMED_INFEASIBLE
    x: tuple | None = None
    value: Any = None
    iterations: int = 0
    extra: dict = field(default_factory=dict)

    def signature(self) -> str:
        """Canonical rendering used for byte-identity checks."""
        xs = "" if self.x is None else ";".join(repr(v) for v in self.x)
        return f"{self.status}|{xs}|{self.value!r}|{self.iterations}"


class ProtocolError(ValueError):
    pass


def _scalar_bits(x) -> int:
    """Sign bit plus minimal binary magnitude (at least 1) for an int, bools
    included; one 64-bit word for a float; numerator plus denominator for a
    `Fraction`."""
    if isinstance(x, int):
        return 1 + (abs(x).bit_length() or 1)
    if isinstance(x, float):
        return 64
    if isinstance(x, Fraction):
        return _scalar_bits(x.numerator) + _scalar_bits(x.denominator)
    raise TypeError(f"unpriceable payload {type(x)!r}")


class Network:
    """Message router and bit accountant for one protocol run."""

    def __init__(self, mode: str, s: int):
        if mode not in MODES:
            raise ProtocolError(f"unknown mode {mode!r}")
        self.mode = mode
        self.s = s
        self.transcript = Transcript(mode)
        self._addr_bits = max(1, math.ceil(math.log2(max(s, 2))))

    # -- payload pricing ---------------------------------------------------

    def payload_bits(self, payload) -> int:
        """Encoded size of a payload: `None` is 1 bit, a vector a 32-bit length
        header plus its entries, a matrix (a list or tuple whose first item is
        a list or tuple) two headers plus its entries, and a scalar as
        `_scalar_bits` prices it.  Anything else raises `TypeError`."""
        if payload is None:
            return 1
        if isinstance(payload, (list, tuple)):
            if payload and isinstance(payload[0], (list, tuple)):
                return 64 + sum(_scalar_bits(x) for row in payload for x in row)
            return 32 + sum(map(_scalar_bits, payload))
        return _scalar_bits(payload)

    def _log(self, sender, receiver, kind, payload, bits):
        self.transcript.messages.append(Message(sender, receiver, kind, payload, bits))

    # -- primitives ----------------------------------------------------------

    def to_coordinator(self, i: int, kind: str, payload):
        cost = self.payload_bits(payload)
        if self.mode == BLACKBOARD_MODE:
            self._log(server(i), BROADCAST, kind, payload, cost)
        else:
            self._log(server(i), COORDINATOR, kind, payload, cost)
        return payload

    def to_server(self, i: int, kind: str, payload):
        cost = self.payload_bits(payload)
        if self.mode == BLACKBOARD_MODE:
            self._log(COORDINATOR, BROADCAST, kind, payload, cost)
        else:
            self._log(COORDINATOR, server(i), kind, payload, cost)
        return payload

    def to_all_servers(self, kind: str, payload):
        """Coordinator tells every server; one broadcast on a blackboard."""
        cost = self.payload_bits(payload)
        if self.mode == BLACKBOARD_MODE:
            self._log(COORDINATOR, BROADCAST, kind, payload, cost)
        else:
            for j in range(1, self.s + 1):
                self._log(COORDINATOR, server(j), kind, payload, cost)
        return payload

    def server_broadcast(self, i: int, kind: str, payload):
        """Server tells everyone; relayed through the coordinator off-blackboard."""
        cost = self.payload_bits(payload)
        if self.mode == BLACKBOARD_MODE:
            self._log(server(i), BROADCAST, kind, payload, cost)
        else:
            self._log(server(i), COORDINATOR, kind, payload, cost)
            for j in range(1, self.s + 1):
                if j != i:
                    self._log(COORDINATOR, server(j), kind, payload, cost + self._addr_bits)
        return payload

    def gather(self, kind: str, server_views) -> list[tuple]:
        """Every server with rows sends them all; returns them stacked in server order."""
        stacked: list[tuple] = []
        for i, view in enumerate(server_views, start=1):
            if view:
                self.to_coordinator(i, kind, [list(r) for r in view])
                stacked.extend(view)
        return stacked

    def verdict(self, sender_index: int | None, kind: str):
        """1-bit termination or sync signal: coordinator to all when `sender_index` is None."""
        if sender_index is None:
            return self.to_all_servers(kind, None)
        return self.to_coordinator(sender_index, kind, None)

    def mark_round(self):
        self.transcript.rounds += 1


def shared_randomness(seed: int) -> Stream:
    """Counter-based stream; identical draw sequences for identical seeds."""
    return Stream(seed)


def validate_transcript(transcript: Transcript, s: int):
    """Schema check: party shapes, broadcast legality, and bit envelopes.

    Every message must carry at least 1 bit and no more than its payload cost
    plus one addressing surcharge; broadcasts may only appear in blackboard
    transcripts.
    """
    addr = max(1, math.ceil(math.log2(max(s, 2))))
    pricer = Network(transcript.mode, s)
    for m in transcript.messages:
        if m.receiver.kind == "broadcast" and transcript.mode != BLACKBOARD_MODE:
            raise ProtocolError("broadcast message in a coordinator-mode transcript")
        for party in (m.sender, m.receiver):
            if party.kind == "server" and not 1 <= party.index <= s:
                raise ProtocolError(f"party {party} outside 1..{s}")
        floor_bits = 1
        ceil_bits = max(pricer.payload_bits(m.payload), 1) + addr
        if not floor_bits <= m.bits <= ceil_bits:
            raise ProtocolError(f"message bits {m.bits} outside [{floor_bits}, {ceil_bits}]")
    return True


def run_protocol(
    name: str,
    instance,
    mode: str = COORDINATOR_MODE,
    seed: int = 0,
    cfg: Constants = DEFAULTS,
    **params,
):
    """Execute a registered protocol and return (outcome, transcript).

    Runs are deterministic functions of (instance, seed, params): repeated
    invocations produce bit-identical transcripts and outcomes.
    """
    from . import registry  # late import: protocol modules import this module

    entry = registry.lookup(name)
    if mode not in entry.modes:
        raise ProtocolError(f"protocol {name!r} does not support mode {mode!r}")
    _validate_partition(instance)
    net = Network(mode, instance.s)
    stream = Stream(seed).split("protocol", name)
    outcome = entry.fn(instance, net, stream, cfg, **params)
    validate_transcript(net.transcript, instance.s)
    return outcome, net.transcript


def _validate_partition(instance):
    if len(instance.partition) != instance.n:
        raise ProtocolError("partition length does not match row count")
    for sid in instance.partition:
        if not 1 <= sid <= instance.s:
            raise ProtocolError(f"partition references server {sid} outside 1..{instance.s}")
