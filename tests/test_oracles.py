"""oracles.check: one rule per registered protocol, accepting right outcomes and rejecting wrong ones."""

import dataclasses
import inspect

import pytest

from commopt import oracles, registry
from commopt.commsim import ProtocolOutcome, run_protocol
from commopt.exactnum import INFEASIBLE
from commopt.instances import GenSpec, Instance, gen_random
from commopt.lpsolve import lp_exact_oracle

LINSYS = gen_random(GenSpec("linsys", 6, 2, 6, 2, 1))
REG = gen_random(GenSpec("regression", 12, 2, 5, 2, 1))
LP = gen_random(GenSpec("lp", 8, 2, 3, 2, 1))
# A box around the origin, so lp-cog's first centroid is feasible.
BOX = Instance("lp", 4, 2, 2, 2, ((1, 0), (0, 1), (-1, 0), (0, -1)), (2, 2, 2, 2), (1, 1), (1, 2, 1, 2))

# name -> (instance, the run's params)
CASES = {
    "linsys-det": (LINSYS, {}),
    "linsys-feas-rand": (LINSYS, {}),
    "linsys-solve-rand": (LINSYS, {}),
    "leverage": (REG, {}),
    "lewis": (REG, {}),
    "l2-exact": (REG, {}),
    "l2-sampled": (REG, {"eps": 0.5}),
    "l1-simple": (REG, {"eps": 0.5}),
    "l1-lewis": (REG, {"eps": 0.5}),
    "l1-agd": (REG, {"eps": 0.25}),
    "lp-embed": (REG, {"p": 4.0, "eps": 0.5}),
    "linf": (REG, {}),
    "lp-clarkson": (LP, {}),
    "lp-seidel": (LP, {}),
    "lp-oracle": (LP, {}),
    "lp-smoothed": (LP, {}),
    "lp-cog": (BOX, {"rounds_cap": 8}),
}


def _status(status):
    return lambda out: dataclasses.replace(out, status=status)


def _shift_x(out):
    return dataclasses.replace(out, x=(out.x[0] + 1, *out.x[1:]))


def _value(fn):
    return lambda out: dataclasses.replace(out, value=fn(out.value))


def _extra(key, fn):
    return lambda out: dataclasses.replace(out, extra={**out.extra, key: fn(out.extra[key])})


# Regression minimizes: 3v + 1 is beyond every (1 + eps) factor of these runs.
WORSE = _value(lambda v: 3 * v + 1)
LP_TAMPERS = (_status(INFEASIBLE), _value(lambda v: v + 1))
TAMPERS = {
    # A solve protocol that answers FEASIBLE has not solved.
    "linsys-det": (_status("FEASIBLE"), _status(INFEASIBLE), _shift_x),
    "linsys-solve-rand": (_status("FEASIBLE"), _status(INFEASIBLE), _shift_x),
    "linsys-feas-rand": (_status("SOLVED"), _status(INFEASIBLE)),
    "leverage": (_extra("scores", lambda v: [16 * t for t in v]),),
    "lewis": (_extra("weights", lambda v: [t / 16 for t in v]),),
    "l2-exact": (_shift_x,),
    "l2-sampled": (WORSE,),
    "l1-simple": (WORSE,),
    "l1-lewis": (WORSE,),
    "l1-agd": (_extra("sampled_value", lambda v: 3 * v + 1),),
    "lp-embed": (WORSE,),
    "linf": LP_TAMPERS,
    "lp-clarkson": LP_TAMPERS,
    "lp-seidel": LP_TAMPERS,
    "lp-oracle": LP_TAMPERS,
    "lp-smoothed": LP_TAMPERS,
    # With c != 0 a point must come as SOLVED, inside the box, below the optimum 4.
    "lp-cog": (
        _status("FEASIBLE"),
        _value(lambda v: 5.0),
        lambda out: dataclasses.replace(out, x=tuple(v + 3 for v in out.x)),
    ),
}


def _params(name, run_params):
    sig = inspect.signature(registry.lookup(name).fn).parameters.values()
    return {p.name: p.default for p in sig if p.default is not p.empty} | run_params


def test_every_registered_name_has_a_case():
    assert sorted(CASES) == sorted(TAMPERS) == registry.names()


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_run_is_accepted_and_each_tampered_copy_rejected(name):
    inst, run_params = CASES[name]
    params = _params(name, run_params)
    cache = {}
    outcome, _ = run_protocol(name, inst, seed=1, **run_params)
    assert oracles.check(name, inst, outcome, params, cache)
    for i, tamper in enumerate(TAMPERS[name]):
        assert not oracles.check(name, inst, tamper(outcome), params, cache), i


def test_infeasible_systems_need_an_infeasible_verdict():
    inst = gen_random(GenSpec("linsys", 6, 2, 6, 2, 1, feasible=False))
    cache = {}
    for name, wrong in (("linsys-det", "SOLVED"), ("linsys-solve-rand", "SOLVED"), ("linsys-feas-rand", "FEASIBLE")):
        outcome, _ = run_protocol(name, inst)
        assert outcome.status == INFEASIBLE
        assert oracles.check(name, inst, outcome, {}, cache)
        assert not oracles.check(name, inst, ProtocolOutcome(wrong, x=(0, 0)), {}, cache)


def test_lp_cog_may_return_no_point_only_without_an_optimum():
    empty = dataclasses.replace(BOX, b=(-1, 2, -1, 2))  # x_1 <= -1 and x_1 >= 1
    assert oracles.check("lp-cog", empty, ProtocolOutcome("EMPTY"), {}, {})
    assert not oracles.check("lp-cog", BOX, ProtocolOutcome("EMPTY"), {}, {})
    # With c = 0 a point comes as FEASIBLE.
    flat = dataclasses.replace(BOX, c=(0, 0))
    assert oracles.check("lp-cog", flat, ProtocolOutcome("FEASIBLE", x=(0.5, 0.5)), {}, {})
    assert not oracles.check("lp-cog", flat, ProtocolOutcome("SOLVED", x=(0.5, 0.5)), {}, {})


def test_an_unknown_name_raises():
    with pytest.raises(KeyError, match="no oracle check"):
        oracles.check("lp-nonsense", LP, ProtocolOutcome("SOLVED", value=0), {}, {})


def test_the_lp_oracle_runs_once_across_repartitioned_copies(monkeypatch):
    calls = []

    def counted(inst):
        calls.append(inst.s)
        return lp_exact_oracle(inst)

    monkeypatch.setattr(oracles, "lp_exact_oracle", counted)
    cache = {}
    for s in (2, 3, 4):
        inst = LP.repartitioned(s)
        outcome, _ = run_protocol("lp-clarkson", inst, seed=s)
        assert oracles.check("lp-clarkson", inst, outcome, {}, cache)
    assert calls == [2]


def test_leverage_is_judged_in_each_partitions_own_row_order():
    # Ten copies of e1 score 1/10 each and the lone e2 scores 1.  Round-robin
    # over 2 servers puts e2 sixth in server order, over 3 servers eighth, so
    # scores read in the other order miss the factor-8 band twice in 11.
    body = Instance("regression", 11, 2, 1, 1, ((1, 0),) * 10 + ((0, 1),), (0,) * 11, None, (1,) * 11)
    cache = {}
    outcomes = {}
    for s in (2, 3):
        inst = body.repartitioned(s)
        outcomes[s], _ = run_protocol("leverage", inst)
        assert oracles.check("leverage", inst, outcomes[s], {}, cache)
    assert not oracles.check("leverage", body.repartitioned(3), outcomes[2], {}, cache)
