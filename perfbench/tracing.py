"""Per-layer tracing by wrapping the program's functions from outside it.

A layer is one module of ``verma_ext``.  While a ``Tracer`` is installed,
every public function a layer takes from another layer is replaced, in the
importing module, by a wrapper that opens a span.  A span records calls,
total time and self time (its duration minus the spans opened inside it).
Calls a layer makes to itself are not wrapped, or pass straight through, so
each span marks a layer boundary.  A few spans inside one layer are named
explicitly: the verify suites, ``comparable_pairs``, ``dimension_rows`` and
the ``cmd_*`` handlers of the command line.

The program itself is not modified on disk; ``uninstall`` restores every
attribute it replaced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pathlib
import time
from collections import defaultdict

LAYERS = ("coxeter", "reflection", "rpoly", "vtable", "verify", "cli")


class Tracer:
    def __init__(self):
        self.modules = {name: importlib.import_module(f"verma_ext.{name}") for name in LAYERS}
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.tables: dict[int, object] = {}  # VTables filled during the current pass
        self._depth: dict[str, int] = defaultdict(int)  # open boundary spans per layer
        self._stack: list[list] = []  # [layer, child seconds] of each open span
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _span(self, layer: str, key: str, fn, inner: bool = False, hook=None):
        """Wrap fn so that a call opens span ``key`` in ``layer``.

        A call made while the layer already has an open span passes straight
        through, unless ``inner`` is set.  ``hook(args, result)`` updates
        counters after the call.
        """
        depth, stack, perf = self._depth, self._stack, time.perf_counter
        calls, total, self_time = self.calls, self.total, self.self_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[layer] and not inner:
                return fn(*args, **kwargs)
            depth[layer] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                depth[layer] -= 1
                if stack:
                    stack[-1][1] += elapsed
                calls[key] += 1
                total[key] += elapsed
                self_time[key] += elapsed - frame[1]
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _outermost(self, key: str, fn, first=None):
        """Wrap a recursive method: time its outermost calls, count table growth.

        ``first(table, args)`` runs on every call, nested ones included.
        """
        perf, total, counts, tables = time.perf_counter, self.total, self.counts, self.tables
        active = [False]

        @functools.wraps(fn)
        def wrapper(table, *args):
            if first is not None:
                first(table, args)
            if active[0]:
                return fn(table, *args)
            active[0] = True
            before = getattr(table, "computed", 0)
            start = perf()
            try:
                return fn(table, *args)
            finally:
                total[key] += perf() - start
                counts[f"{key}.computed"] += getattr(table, "computed", 0) - before
                tables[id(table)] = table
                active[0] = False

        return wrapper

    def _replace(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, owner, name: str, make) -> None:
        """Replace owner.name by make(owner.name).

        A class or name the program no longer has is skipped, so a refactor
        of the program leaves that span empty instead of breaking the run.
        """
        original = getattr(owner, name, None)
        if original is not None:
            self._replace(owner, name, make(original))

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        mods = self.modules
        counts = self.counts

        def count(name, measure):
            def hook(args, result):
                counts[name] += measure(args, result)
            return hook

        # Every public function one layer imports from another.
        for layer, mod in mods.items():
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                hook = None
                if name == "membership_report":
                    hook = count("vtable.membership_rows", lambda a, r: len(r))
                wrapped = self._span(layer, f"{layer}.{name}", fn, hook=hook)
                for other_layer, other in mods.items():
                    if other_layer != layer and vars(other).get(name) is fn:
                        self._replace(other, name, wrapped)

        # Methods called across layers.
        rtable = getattr(mods["rpoly"], "RTable", None)
        vtable = getattr(mods["vtable"], "VTable", None)

        def r_first(table, args):
            counts["rpoly.r_calls"] += 1
            if args in getattr(table, "entries", ()):  # keyed (y, x), the argument order
                counts["rpoly.r_hits"] += 1

        self._wrap(getattr(mods["reflection"], "RationalSubspace", None), "contains",
                   lambda f: self._span("reflection", "reflection.contains", f))
        self._wrap(rtable, "r", lambda f: self._span(
            "rpoly", "rpoly.r", self._outermost("rpoly.fill", f, r_first)))
        self._wrap(rtable, "load_csv", lambda f: self._span(
            "rpoly", "rpoly.load_csv", f, hook=count("rpoly.load_rows", lambda a, r: r)))
        self._wrap(rtable, "save_csv", lambda f: self._span("rpoly", "rpoly.save_csv", f))
        self._wrap(vtable, "v", lambda f: self._span("vtable", "vtable.v", f))
        self._wrap(vtable, "_v", lambda f: self._outermost("vtable.fill", f))

        # Named spans inside one layer.
        def suite_span(fn):
            key = f"verify.suite_{fn.__name__[-1].upper()}"
            return self._span("verify", key, fn, inner=True,
                              hook=count(f"{key}_checked", lambda a, r: r.checked))

        verify, cli = mods["verify"], mods["cli"]
        self._wrap(verify, "_SUITES", lambda suites: tuple(map(suite_span, suites)))
        for name in ("comparable_pairs", "dimension_rows"):
            self._wrap(verify, name, lambda f, key=f"verify.{name}": self._span("verify", key, f, inner=True))
        for name in ("cmd_enumerate", "cmd_rpoly", "cmd_vspace", "cmd_verify", "cmd_report"):
            self._wrap(cli, name, lambda f, key=f"cli.{name}": self._span("cli", key, f, inner=True))
        self._wrap(cli, "main", lambda f: self._span("cli", "cli.main", f))

        # File writes, charged to the layer whose span is innermost.
        stack, total = self._stack, self.total
        write_text = pathlib.Path.write_text

        @functools.wraps(write_text)
        def traced_write_text(path, data, *args, **kwargs):
            layer = stack[-1][0] if stack else "bench"
            start = time.perf_counter()
            try:
                return write_text(path, data, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                if stack:
                    stack[-1][1] += elapsed
                total[f"{layer}.write"] += elapsed
                counts[f"{layer}.bytes_written"] += len(data.encode())

        self._replace(pathlib.Path, "write_text", traced_write_text)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- reading -----------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """All counters as one flat dict, for differencing around a pass."""
        flat: dict[str, float] = {}
        for key, value in self.calls.items():
            flat[f"{key}#calls"] = value
        for key, value in self.total.items():
            flat[f"{key}#s"] = value
        for key, value in self.self_time.items():
            flat[f"{key}#self_s"] = value
        flat.update(self.counts)
        return flat

    def take_distinct_subspaces(self) -> int:
        """Distinct subspaces per VTable filled since the last call, summed."""
        found = sum(len(set(getattr(t, "entries", {}).values())) for t in self.tables.values())
        self.tables.clear()
        return found


def layer_metrics(d: dict[str, float], stdout_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one pass from a snapshot difference ``d``."""
    g = lambda key: d.get(key, 0)  # noqa: E731
    m = {
        "coxeter.build_s": g("coxeter.build_system#s"),
        "coxeter.enumerate_calls": g("coxeter.enumerate_elements#calls"),
        "coxeter.enumerate_s": g("coxeter.enumerate_elements#s"),
        "coxeter.bruhat_calls": g("coxeter.bruhat_leq#calls"),
        "coxeter.bruhat_s": g("coxeter.bruhat_leq#s"),
        "coxeter.right_multiply_calls": g("coxeter.right_multiply#calls"),
        "coxeter.reduced_word_calls": g("coxeter.reduced_word#calls"),
        "coxeter.reduced_word_s": g("coxeter.reduced_word#s"),
    }
    for fn in ("act", "add_line", "contains"):
        m[f"reflection.{fn}_calls"] = g(f"reflection.{fn}#calls")
        m[f"reflection.{fn}_s"] = g(f"reflection.{fn}#s")
    r_calls = g("rpoly.r_calls")
    m.update({
        "rpoly.r_calls": r_calls,
        "rpoly.computed": g("rpoly.fill.computed"),
        "rpoly.memo_hit_ratio": g("rpoly.r_hits") / r_calls if r_calls else 0.0,
        "rpoly.fill_s": g("rpoly.fill#s"),
        "rpoly.direct_calls": g("rpoly.r_coeff_direct#calls"),
        "rpoly.direct_s": g("rpoly.r_coeff_direct#s"),
        "rpoly.load_s": g("rpoly.load_csv#s"),
        "rpoly.load_rows": g("rpoly.load_rows"),
        "rpoly.save_s": g("rpoly.save_csv#s"),
        "rpoly.cache_bytes": g("rpoly.bytes_written"),
        "vtable.fill_s": g("vtable.fill#s"),
        "vtable.computed": g("vtable.fill.computed"),
        "vtable.distinct_subspaces": g("vtable.distinct_subspaces"),
        "vtable.membership_s": g("vtable.membership_report#s"),
        "vtable.membership_rows": g("vtable.membership_rows"),
        "vtable.singular_s": g("vtable.singular_v#s"),
    })
    for suite in "TGBRSM":
        m[f"verify.suite_{suite}_s"] = g(f"verify.suite_{suite}#self_s")
        m[f"verify.suite_{suite}_checked"] = g(f"verify.suite_{suite}_checked")
    m.update({
        "verify.pairs_s": g("verify.comparable_pairs#s"),
        "verify.dimension_rows_s": g("verify.dimension_rows#s"),
        "verify.write_s": g("verify.write#s"),
        "verify.bytes_written": g("verify.bytes_written"),
        "cli.self_s": g("cli.main#s") - sum(
            g(f"cli.cmd_{c}#s") for c in ("enumerate", "rpoly", "vspace", "verify", "report")),
        "cli.stdout_bytes": stdout_bytes,
    })
    return m
