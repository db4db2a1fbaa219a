"""Message pricing, network accounting, transcript structure, and stream determinism."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from commopt.commsim import (
    BLACKBOARD_MODE,
    COORDINATOR_MODE,
    Network,
    ProtocolError,
    run_protocol,
    shared_randomness,
    validate_transcript,
)
from commopt.instances import GenSpec, gen_random

PRICE = Network(COORDINATOR_MODE, 2).payload_bits


def test_payload_bits_int_examples():
    assert PRICE(0) == 2
    assert PRICE(7) == 4
    assert PRICE(-8) == 5


def test_payload_bits_rational_and_vector():
    assert PRICE(Fraction(7, 8)) == 4 + 5
    assert PRICE([0, 7]) == 32 + 2 + 4
    assert PRICE([[1], [1]]) == 64 + 2 + 2


def test_payload_bits_l_bit_entry_bound():
    L = 12
    for k in range(-(1 << L), (1 << L) + 1, 97):
        assert PRICE(k) <= L + 2


def test_payload_bits_none_bool_float_and_tuples():
    assert PRICE(None) == 1
    assert PRICE(True) == 2
    assert PRICE(False) == 2
    assert PRICE(0.5) == 64
    assert PRICE(((1, -3), (Fraction(1, 2), 0))) == PRICE([[1, -3], [Fraction(1, 2), 0]]) == 64 + 2 + 3 + 5 + 2


@pytest.mark.parametrize("payload", ["abc", np.array([1, 2])])
def test_payload_bits_rejects_unpriceable_payloads(payload):
    with pytest.raises(TypeError):
        PRICE(payload)


def test_stream_determinism():
    a = shared_randomness(0)
    b = shared_randomness(0)
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]
    # Frozen first draw: guards against platform or library drift.
    assert shared_randomness(0).random() == 0.5254633932868452


def test_streams_differ_across_seeds():
    a = shared_randomness(1)
    b = shared_randomness(2)
    assert [a.u64() for _ in range(64)] != [b.u64() for _ in range(64)]


def test_party_substreams_independent():
    base = shared_randomness(5)
    s1 = base.split("server", 1)
    s2 = base.split("server", 2)
    assert [s1.u64() for _ in range(8)] != [s2.u64() for _ in range(8)]
    # Splitting does not disturb the parent stream.
    fresh = shared_randomness(5)
    assert base.u64() == fresh.u64()


def test_total_bits_is_sum_of_messages():
    net = Network(COORDINATOR_MODE, 2)
    net.to_coordinator(1, "vec", [1, 2, 3])
    net.to_server(2, "vec", [4])
    net.verdict(1, "done")
    assert net.transcript.total_bits == sum(m.bits for m in net.transcript.messages)


def test_broadcast_counted_once():
    bb = Network(BLACKBOARD_MODE, 4)
    bb.to_all_servers("data", [7, 7, 7])
    assert len(bb.transcript.messages) == 1

    co = Network(COORDINATOR_MODE, 4)
    co.to_all_servers("data", [7, 7, 7])
    assert len(co.transcript.messages) == 4
    assert co.transcript.total_bits == 4 * bb.transcript.total_bits


def test_server_to_server_relay_addressing():
    net = Network(COORDINATOR_MODE, 8)
    net.server_broadcast(3, "eq", [1, 2])
    payload = net.payload_bits([1, 2])
    addr = math.ceil(math.log2(8))
    assert net.transcript.total_bits == payload + 7 * (payload + addr)


def test_run_protocol_deterministic_transcripts():
    inst = gen_random(GenSpec("linsys", n=6, d=3, L=6, s=2, seed=9, feasible=True))
    out1, t1 = run_protocol("linsys-det", inst, seed=4)
    out2, t2 = run_protocol("linsys-det", inst, seed=4)
    assert out1.signature() == out2.signature()
    assert t1.to_csv() == t2.to_csv()


def test_single_server_identity_accounting():
    from commopt.instances import Instance

    inst = Instance("linsys", 2, 2, 2, 1, ((1, 0), (0, 1)), (1, 1), None, (1, 1))
    out, t = run_protocol("linsys-det", inst)
    assert out.x == (1, 1)
    # Two published equations, no relays at s=1: each is a 3-entry vector,
    # 32-bit header plus 2 bits per entry under sign+magnitude.
    assert t.total_bits == 2 * (32 + 3 * 2)


def test_blackboard_not_worse_across_protocols():
    from commopt.instances import GenSpec, gen_random

    cases = [
        ("l2-exact", GenSpec("regression", n=12, d=3, L=5, s=4, seed=3), {}),
        ("lp-clarkson", GenSpec("lp", n=18, d=2, L=5, s=4, seed=4), {}),
        ("l1-simple", GenSpec("regression", n=20, d=2, L=5, s=4, seed=5), {"eps": 0.5}),
    ]
    for name, spec, params in cases:
        inst = gen_random(spec)
        _, t_co = run_protocol(name, inst, mode=COORDINATOR_MODE, seed=1, **params)
        _, t_bb = run_protocol(name, inst, mode=BLACKBOARD_MODE, seed=1, **params)
        assert t_bb.total_bits <= t_co.total_bits


def test_blackboard_cheaper_than_coordinator():
    inst = gen_random(GenSpec("linsys", n=8, d=3, L=6, s=4, seed=2, feasible=True))
    _, t_co = run_protocol("linsys-det", inst, mode=COORDINATOR_MODE, seed=1)
    _, t_bb = run_protocol("linsys-det", inst, mode=BLACKBOARD_MODE, seed=1)
    assert t_bb.total_bits <= t_co.total_bits


def test_transcripts_validate_against_schema():
    inst = gen_random(GenSpec("linsys", n=8, d=3, L=6, s=3, seed=4, feasible=True))
    for name in ("linsys-det", "linsys-feas-rand"):
        for mode in (COORDINATOR_MODE, BLACKBOARD_MODE):
            _, t = run_protocol(name, inst, mode=mode, seed=2)
            assert validate_transcript(t, inst.s)


def test_overpriced_broadcast_leg_rejected(monkeypatch):
    # A relayed broadcast logs one payload on s legs; validation prices it once
    # and still checks every leg against that price.
    net = Network(COORDINATOR_MODE, 4)
    net.server_broadcast(2, "eq", [5, -3, 9])
    calls = []
    price = Network.payload_bits
    monkeypatch.setattr(Network, "payload_bits", lambda self, p: calls.append(p) or price(self, p))
    assert validate_transcript(net.transcript, 4)
    assert len(calls) == 1
    msgs = net.transcript.messages
    msgs[-1] = dataclasses.replace(msgs[-1], bits=msgs[-1].bits + 1)
    with pytest.raises(ProtocolError):
        validate_transcript(net.transcript, 4)


def test_transcript_csv_schema():
    inst = gen_random(GenSpec("linsys", n=4, d=2, L=5, s=2, seed=1, feasible=True))
    _, t = run_protocol("linsys-det", inst, seed=0)
    lines = t.to_csv().strip().split("\r\n")
    assert lines[0] == "index,from,to,kind,bits"
    assert lines[-1].startswith("total,")
    body = lines[1:-1]
    assert len(body) == len(t.messages)
    total = sum(int(row.split(",")[4]) for row in body)
    assert total == t.total_bits
