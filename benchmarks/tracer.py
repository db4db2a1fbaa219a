"""Span tracer that wraps the public functions of the commopt modules from outside.

`Tracer.install()` replaces every public module-level function and every
public method of a public class in the traced modules with a wrapper that
records a span (name, start, end, parent span) and accumulates per-name call
counts and self time (span duration minus the durations of its direct child
spans).  Names bound elsewhere with `from .x import f` are re-pointed at the
wrapper too, and the protocol registry is rebuilt so its entries call through
the wrappers.  `uninstall()` restores every original binding.

Spans are kept in memory (up to MAX_SPANS; beyond that only the aggregates
are kept) and written out by `dump()` when the run ends.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
import types
from array import array

# Modules with their own layer metrics; cli, registry and config are thin
# dispatch layers and get none.
TRACED_MODULES = ("exactnum", "rng", "commsim", "instances", "linsys", "rowsample", "regression", "lpsolve")

# Helpers called inside the inner loops of their callers, and the one method
# the benchmark calls itself.  A span per call would cost more than the work
# it times, so their time stays in the caller's self time.
UNTRACED = {
    "exactnum.dot",
    "exactnum.mat_vec",
    "exactnum.transpose",
    "exactnum.bit_cost_int",
    "exactnum.BitCostModel.int_bits",
    "exactnum.BitCostModel.scalar_bits",
    "commsim.server",
    "commsim.ProtocolOutcome.signature",
}

STREAM_CLASS = "rng.Stream"
PACKAGE = "commopt"
# Spans beyond this many are counted in the aggregates but not stored.
MAX_SPANS = 500_000


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.stream_ids: set[int] = set()
        self.reset()
        # Span storage: parallel arrays indexed by span id.
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.spans_dropped = 0

    def reset(self) -> None:
        """Clear the per-name aggregates (spans already stored are kept)."""
        self.calls: list[int] = [0] * len(self.names)
        self.self_ns: list[int] = [0] * len(self.names)
        self.draws = 0
        self.subsets = 0
        self._stack: list[list] = []  # [name id, start ns, child ns, span id]
        self._in_stream = False

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return nid

    # -- recording -------------------------------------------------------------

    def _enter(self, nid: int) -> list:
        stack = self._stack
        sid = len(self.span_name)
        if sid < MAX_SPANS:
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][3] if stack else -1)
            self.span_start.append(0)
            self.span_end.append(0)
        else:
            self.spans_dropped += 1
            sid = -1
        frame = [nid, time.perf_counter_ns(), 0, sid]
        stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter_ns()
        stack = self._stack
        stack.pop()
        nid, start, child, sid = frame
        dur = end - start
        self.calls[nid] += 1
        self.self_ns[nid] += dur - child
        if stack:
            stack[-1][2] += dur
        if sid >= 0:
            self.span_start[sid] = start
            self.span_end[sid] = end

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return traced

    def _wrap_stream(self, fn, name: str, is_draw: bool):
        """Stream methods: one span per outermost call; nested draws stay inside it."""
        nid = self._name_id(name)
        self.stream_ids.add(nid)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._in_stream:
                return fn(*args, **kwargs)
            tracer._in_stream = True
            if is_draw:
                tracer.draws += 1
            frame = tracer._enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
                tracer._in_stream = False

        return traced

    def _wrap_subsets(self, fn):
        """Counts the d-subsets vertex enumeration visits, from its input sizes."""
        tracer = self

        @functools.wraps(fn)
        def counted(rows, c, guard):
            best = fn(rows, c, guard)
            tracer.subsets += math.comb(len(rows), len(c))
            return best

        return counted

    # -- patching --------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        pkg = PACKAGE
        replaced: dict[int, object] = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"{pkg}.{short}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    if name not in UNTRACED:
                        wrapper = self._wrap(obj, name)
                        replaced[id(obj)] = wrapper
                        self._set(mod, attr, wrapper)
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._install_class(short, obj)
        lp = sys.modules[f"{pkg}.lpsolve"]
        self._set(lp, "_enumerate_vertices", self._wrap_subsets(lp._enumerate_vertices))
        # Re-point names imported with `from .x import f` at the wrappers.
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == pkg or modname.startswith(pkg + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and mod.__dict__[attr] is not wrapper:
                    self._set(mod, attr, wrapper)
        self._reset_registry()

    def _install_class(self, short: str, cls: type) -> None:
        cname = f"{short}.{cls.__name__}"
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                continue
            name = f"{cname}.{attr}"
            if name in UNTRACED:
                continue
            if cname == STREAM_CLASS:
                wrapper = self._wrap_stream(obj, name, is_draw=attr != "split")
            else:
                wrapper = self._wrap(obj, name)
            self._set(cls, attr, wrapper)

    def _reset_registry(self) -> None:
        # Registry entries capture the protocol functions when first built.
        sys.modules[f"{PACKAGE}.registry"]._REGISTRY = None

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._reset_registry()

    # -- results ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-name calls and self seconds, plus the stream and subset counters."""
        out = {
            name: {"calls": self.calls[i], "self_s": self.self_ns[i] / 1e9}
            for i, name in enumerate(self.names)
            if self.calls[i]
        }
        stream_self = sum(self.self_ns[i] for i in self.stream_ids) / 1e9
        return {
            "layers": out,
            "stream_draws": self.draws,
            "stream_self_s": stream_self,
            "oracle_subsets": self.subsets,
            "total_self_s": sum(self.self_ns) / 1e9,
        }

    def dump(self, path: str) -> None:
        """Write the stored spans as JSON, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"fields":["name","start_ns","end_ns","parent"],')
            fh.write(f'"dropped":{self.spans_dropped},"spans":[\n')
            for i in range(len(self.span_name)):
                sep = "," if i else ""
                name = json.dumps(self.names[self.span_name[i]])
                fh.write(f"{sep}[{name},{self.span_start[i]},{self.span_end[i]},{self.span_parent[i]}]\n")
            fh.write("]}\n")
