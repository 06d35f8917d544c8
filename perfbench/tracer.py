"""Spans and counters around the program's public functions, from outside it.

``install`` wraps every public function of every ``dconn`` module and
rebinds the wrapper in every namespace that holds the original: the
defining module, modules that bound it with ``from ... import``, and
module-level dicts such as the CLI dispatch table.  A few class members get
wrappers too (``MetricComplex`` construction, ``GroupElement`` allocation,
``DiscreteLagrangian.d1_eval``), and each connection returned by
``resolve_connection`` gets its ``local_rep`` wrapped.

``unwrapped`` lists every binding of a public ``dconn`` function that still
holds the original, so a function that ``install`` missed shows by name.

A span records name, start, end, parent and operation id.  Self time is a
span's duration minus the durations of its direct children, so the self
times of one operation add up to the duration of its root span by
construction; what the wrappers cost outside the root span is the only
remainder.  Spans are kept in memory, up to ``SPAN_CAP``, and written out
when the run ends; the aggregates count every call.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from array import array
from collections import defaultdict

import numpy as np

SOLVES = ("mechanical.del_step", "mechanical.mechanical_connection")
SPAN_CAP = 300_000


class Tracer:
    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.stack: list[list] = []  # [child seconds, name id, span id]
        self.op_id = -1
        self.origin = time.perf_counter()
        self.next_span = 0
        self.spans = {
            "id": array("q"), "name": array("i"), "parent": array("q"),
            "op": array("i"), "start": array("d"), "end": array("d"),
        }
        self._solve_ids: set[int] = set()
        self._seen: set = set()
        self._undo: list = []
        self._wrappers: set = set()
        self.modules: tuple = ()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            if name in SOLVES:
                self._solve_ids.add(self._ids[name])
        return self._ids[name]

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._seen.clear()

    def in_solve(self) -> bool:
        return any(frame[1] in self._solve_ids for frame in self.stack)

    def wrap(self, name: str, fn, before=None, after=None):
        """A span around ``fn``; ``before(args)`` and ``after(result)`` run inside it."""
        nid = self._id(name)
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_id = self.next_span
            self.next_span += 1
            frame = [0.0, nid, span_id]
            parent = stack[-1][2] if stack else -1
            stack.append(frame)
            t0 = clock()
            try:
                if before is not None:
                    before(args)
                result = fn(*args, **kwargs)
                if after is not None:
                    result = after(result)
                return result
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                self.self_s[nid] += duration - frame[0]
                self.calls[nid] += 1
                if stack:
                    stack[-1][0] += duration
                if span_id < SPAN_CAP:
                    spans["id"].append(span_id)
                    spans["name"].append(nid)
                    spans["parent"].append(parent)
                    spans["op"].append(self.op_id)
                    spans["start"].append(t0 - self.origin)
                    spans["end"].append(t1 - self.origin)

        return wrapper

    def counter(self, name: str, fn, when=None):
        """Counts calls of ``fn`` without a span (for very frequent calls),
        only those for which ``when()`` holds if it is given."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled and (when is None or when()):
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def removed(self):
        """Run a block with every wrapper taken out, then put them back."""
        modules = self.modules
        self.uninstall()
        try:
            yield
        finally:
            self.install(modules)

    def install(self, modules) -> None:
        """Wrap the public functions of ``modules`` wherever they are bound."""
        self.modules = modules
        wrappers = {}
        self._wrappers.clear()
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj, *self._hooks(layer, attr))
        self._wrappers.update(wrappers.values())
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for k, v in list(obj.items()):
                        if inspect.isfunction(v) and v in wrappers:
                            self._set(obj, k, wrappers[v])
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        mc = by_name["levi_civita"].MetricComplex
        self._set(mc, "__init__", self.wrap("levi_civita.MetricComplex", mc.__init__))
        for ctor in ("from_edge_lengths", "from_embedding"):
            raw = mc.__dict__[ctor].__func__
            self._set(mc, ctor, classmethod(self.wrap(f"levi_civita.{ctor}", raw)))
        ge = by_name["lie_group"].GroupElement
        self._set(ge, "__post_init__",
                  self.counter("lie_group.GroupElement.built", ge.__post_init__))
        dl = by_name["mechanical"].DiscreteLagrangian
        self._set(dl, "d1_eval", self.counter("mechanical.d1_eval.in_solve", dl.d1_eval,
                                              when=self.in_solve))

    def unwrapped(self) -> list[str]:
        """Bindings, in a module namespace or a module-level dict, of a public
        ``dconn`` function that is not a wrapper of the current install."""
        missed = []
        for mod in self.modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                places = [(f"{layer}.{attr}", obj)]
                if isinstance(obj, dict) and not attr.startswith("__"):
                    places += [(f"{layer}.{attr}[{k!r}]", v) for k, v in obj.items()]
                missed += [where for where, fn in places
                           if inspect.isfunction(fn) and fn not in self._wrappers
                           and fn.__module__.startswith("dconn.")
                           and not fn.__name__.startswith("_")]
        return missed

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def _hooks(self, layer: str, attr: str):
        if (layer, attr) == ("levi_civita", "holonomy"):
            def before(args):
                self.counts["levi_civita.holonomy.steps"] += len(args[2]) - 1
            return before, None
        if (layer, attr) == ("presets", "resolve_connection"):
            return None, self._wrap_local_rep
        return None, None

    def _wrap_local_rep(self, conn):
        inner = conn.local_rep
        tag = id(conn)

        def before(args):
            key = (tag, args[0].coords.tobytes(), args[1].coords.tobytes())
            if key in self._seen:
                self.counts["connection.local_rep.repeats"] += 1
            self._seen.add(key)

        # DiscreteConnection is frozen; the wrapper replaces the stored callable.
        object.__setattr__(conn, "local_rep", self.wrap("connection.local_rep", inner, before))
        return conn

    # -- results --------------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for nid, name in enumerate(self.names):
            out[name.split(".", 1)[0]] += self.self_s[nid]
        return dict(out)

    def stat(self, name: str) -> tuple[int, float]:
        nid = self._ids.get(name)
        return (0, 0.0) if nid is None else (self.calls[nid], self.self_s[nid])

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), dropped=max(0, self.next_span - SPAN_CAP),
            **{k: np.frombuffer(v, dtype=v.typecode) for k, v in self.spans.items()},
        )
