"""Protocol registry: CLI names mapped to protocol entry points."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .commsim import BLACKBOARD_MODE, COORDINATOR_MODE, ProtocolError

BOTH = (COORDINATOR_MODE, BLACKBOARD_MODE)
COORD_ONLY = (COORDINATOR_MODE,)


@dataclass(frozen=True)
class Entry:
    fn: Callable
    modes: tuple


def _build() -> dict[str, Entry]:
    from . import linsys, lpsolve, regression, rowsample

    return {
        "linsys-det": Entry(linsys.det_solve, BOTH),
        "linsys-feas-rand": Entry(linsys.rand_feasibility, BOTH),
        "linsys-solve-rand": Entry(linsys.rand_solve, COORD_ONLY),
        "leverage": Entry(rowsample.leverage_protocol_entry, BOTH),
        "lewis": Entry(rowsample.lewis_protocol_entry, BOTH),
        "l2-exact": Entry(regression.l2_exact, BOTH),
        "l2-sampled": Entry(regression.l2_sampled, BOTH),
        "l1-simple": Entry(regression.l1_simple, BOTH),
        "l1-lewis": Entry(regression.l1_lewis, BOTH),
        "l1-agd": Entry(regression.l1_agd, COORD_ONLY),
        "linf": Entry(regression.linf_regression, BOTH),
        "lp-embed": Entry(regression.lp_regression, BOTH),
        "lp-clarkson": Entry(lpsolve.clarkson, BOTH),
        "lp-smoothed": Entry(lpsolve.smoothed_clarkson, BOTH),
        "lp-cog": Entry(lpsolve.center_of_gravity, BOTH),
        "lp-seidel": Entry(lpsolve.seidel, BOTH),
        "lp-oracle": Entry(lpsolve.lp_oracle_entry, BOTH),
    }


_REGISTRY: dict[str, Entry] | None = None


def _table() -> dict[str, Entry]:
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _build()
    return _REGISTRY


def lookup(name: str) -> Entry:
    if name not in _table():
        raise ProtocolError(f"unknown protocol {name!r}")
    return _table()[name]


def names() -> list[str]:
    return sorted(_table())
