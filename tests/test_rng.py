"""Golden sequences for `rng.Stream`: word order, buffer refills and the gauss spare."""

import hashlib

import pytest

from commopt.rng import Stream

STREAMS = {
    "plain": lambda: Stream(7, ("a", 1)),
    "split": lambda: Stream(2**64 + 12345).split("protocol", "lp-cog").split("hit-and-run", 3),
}

# Per stream: its first 8 words (two refills), the sha256 of repr() of the
# first 40 values of u64(), random() and gauss() (each from a fresh stream),
# and a mixed run that crosses refills at odd offsets: one word, three gauss
# (the third leaves a spare), six words, random(), two gauss (the first is the
# spare), one word.
GOLDEN = {
    "plain": (
        [
            5464419592048454452, 7272787809503486556, 2320621068106014510, 6137412347723250796,
            12044587341888881257, 10270610389431178157, 12442938414614927879, 3819978235152030318,
        ],
        {
            "u64": "46c948284e05a00b917cd08d716b4f418735b1964f0885818af53f04c3045950",
            "random": "32b05fc7ee291b135e52187d30ea2f0b6a58491f0430018aeb585a92bd50be77",
            "gauss": "17662ef3ad89b7599c782e1bc0450980c0d40fc1a339647717ca1f01e826f76c",
        },
        [
            5464419592048454452, -0.2726971517833491, -0.9650239667956354, -1.3129471776726218,
            10270610389431178157, 12442938414614927879, 3819978235152030318, 3720734338335051354,
            12646427037234220933, 8205564394470264844, 0.1807999977044783, 1.2003094808389316,
            -0.24439756200188914, 18064834713596489977,
        ],
    ),
    "split": (
        [
            5166159581539535735, 15567086556025076009, 15020146087142803512, 10684486216892918674,
            2818544920613681194, 17524903523168018969, 2705334509975212215, 6687161605588814330,
        ],
        {
            "u64": "f921fcebfce2584226e300abcda375d11ea159fd3c8765284b5b797f4342c490",
            "random": "80d7d614e04c8ba515bf27bdca10fad5c84aae4dcac3e6ea6c9cbe08d271b223",
            "gauss": "36430364d5f8abb718c4b424aa3ddd2e5de552d6a324ba6bd124b8a2e2918482",
        },
        [
            5166159581539535735, 0.3927255987937843, 0.35886570133193624, 0.259117290106063,
            17524903523168018969, 2705334509975212215, 6687161605588814330, 7152732543251506851,
            17189550994318280466, 12982536951841766257, 0.866306198348795, -1.1358465126352406,
            -0.30334196425343374, 6516973769349493167,
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_stream_golden_sequences(name):
    words, digests, mixed = GOLDEN[name]
    make = STREAMS[name]
    s = make()
    assert [s.u64() for _ in range(8)] == words
    for method, digest in digests.items():
        s = make()
        values = [getattr(s, method)() for _ in range(40)]
        assert hashlib.sha256(repr(values).encode()).hexdigest() == digest, method
    s = make()
    run = [s.u64()] + [s.gauss() for _ in range(3)] + [s.u64() for _ in range(6)]
    run += [s.random(), s.gauss(), s.gauss(), s.u64()]
    assert run == mixed
