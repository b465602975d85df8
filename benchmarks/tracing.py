"""Spans around bifgraph's public functions, installed from the outside.

``Tracer.install`` wraps every public function of each layer module, cached
ones included, both on its defining module and on every bifgraph module
(the package included) that bound it with ``from ... import``.  It also wraps the ``Diagram``
lookups and construction, ``Matroid.is_independent``, and the ``indep``
callable each ``Matroid`` receives.  ``uninstall`` restores the originals,
so untimed and untraced code never pays for the wrappers.

A span is (name, start, end, parent, job).  Self time is a span's duration
minus the durations of its direct children; calls run on one thread, so
children never overlap.  Totals per function count only the outermost
activation of a recursive function, so time is not counted twice.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("laws", "trees", "enumeration", "diagram", "documents", "represent",
          "graphs", "classes", "spanning", "matroids", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls = array("q")
        self.total = array("d")
        self.self_time = array("d")
        self.errors = array("q")
        self.active = array("q")
        self.counters: dict[str, int] = defaultdict(int)
        self.job = -1
        self.keep_spans = False
        self.spans = {key: array(code) for key, code in (
            ("span", "q"), ("name", "i"), ("start", "d"), ("end", "d"), ("parent", "q"),
            ("job", "i"))}
        self._next_span = 0
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            for arr in (self.calls, self.total, self.self_time, self.errors, self.active):
                arr.append(0)
        return self.names.index(name)

    def wrap(self, name: str, fn, on_args=None, on_result=None):
        """``fn`` with a span named ``name`` around every call."""
        nid = self._name_id(name)
        stack, calls, total, self_time, errors, active = (
            self._stack, self.calls, self.total, self.self_time, self.errors, self.active)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_args is not None:
                on_args(self.counters, args)
            span = self._next_span
            self._next_span += 1
            frame = [span, 0.0]  # [span id, time covered by direct children]
            parent = stack[-1] if stack else None
            stack.append(frame)
            active[nid] += 1
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                active[nid] -= 1
                calls[nid] += 1
                if active[nid] == 0:
                    total[nid] += dur
                self_time[nid] += dur - frame[1]
                if failed:
                    errors[nid] += 1
                if parent is not None:
                    parent[1] += dur
                if self.keep_spans:
                    sp = self.spans
                    sp["span"].append(span)
                    sp["name"].append(nid)
                    sp["start"].append(start)
                    sp["end"].append(end)
                    sp["parent"].append(-1 if parent is None else parent[0])
                    sp["job"].append(self.job)
            if on_result is not None:
                on_result(self.counters, result)
            return result

        return traced

    def stats(self, name: str) -> tuple[int, float, float, int]:
        """(calls, total seconds, self seconds, errors) for one span name."""
        if name not in self.names:
            return 0, 0.0, 0.0, 0
        i = self.names.index(name)
        return self.calls[i], self.total[i], self.self_time[i], self.errors[i]

    def reset_stats(self) -> None:
        for arr in (self.calls, self.total, self.self_time, self.errors):
            for i in range(len(arr)):
                arr[i] = 0
        self.counters.clear()

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, bg) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "bifgraph" or name.startswith("bifgraph."))]
        hooks = _hooks()
        for layer in LAYERS:
            mod = sys.modules[f"bifgraph.{layer}"]
            for attr, fn in sorted(vars(mod).items()):
                if attr.startswith("_") or inspect.isclass(fn) or not callable(fn):
                    continue
                base = inspect.unwrap(fn)  # functools caches wrap a plain function
                if not inspect.isfunction(base) or base.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                traced = self.wrap(name, fn, *hooks.get(name, (None, None)))
                for m in modules:
                    if vars(m).get(attr) is fn:
                        self._patch(m, attr, traced)
        diagram = bg.Diagram
        for method in ("edge", "vertex", "incident_edges"):
            self._patch(diagram, method, self.wrap(f"diagram.{method}", getattr(diagram, method)))
        self._patch(diagram, "__init__", self.wrap("diagram.construct", diagram.__init__))
        matroid = bg.Matroid
        self._patch(matroid, "is_independent",
                    self.wrap("matroids.is_independent", matroid.is_independent))
        init = matroid.__init__

        def traced_init(m, ground, indep, *args, **kwargs):
            init(m, ground, self.wrap("matroids.indep", indep), *args, **kwargs)

        self._patch(matroid, "__init__", traced_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------

    def write_spans(self, path: Path) -> int:
        """Write the kept spans as gzipped TSV; returns how many."""
        sp = self.spans
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\tjob\n")
            for span, nid, start, end, parent, job in zip(
                    sp["span"], sp["name"], sp["start"], sp["end"], sp["parent"], sp["job"]):
                fh.write(f"{span}\t{self.names[nid]}\t{start:.9f}\t{end:.9f}\t{parent}\t{job}\n")
        return len(sp["name"])


def _hooks():
    """Counters recorded at the same boundaries as the spans."""
    def count_len(key):
        def hook(counters, value):
            counters[key] += len(value)
        return hook

    def text_in(counters, args):
        if args and isinstance(args[0], str):
            counters["documents.bytes_in"] += len(args[0].encode())

    def text_out(counters, value):
        counters["documents.bytes_out"] += len(value.encode())

    hooks = {"enumeration.enumerate_colored": (None, count_len("enumeration.trees_materialised")),
             "diagram.check_cycle_parity": (None, count_len("diagram.cycles_reported"))}
    for fn in ("parse_diagram", "parse_graph", "parse_matroid", "parse_tree"):
        hooks[f"documents.{fn}"] = (text_in, None)
    for fn in ("emit_diagram", "emit_dot", "emit_graph", "emit_tree", "emit_binary_tree"):
        hooks[f"documents.{fn}"] = (None, text_out)
    return hooks


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer and per-function metrics of the recorded passes."""
    out: dict[str, float] = {}
    for layer in LAYERS:
        rows = [tracer.stats(n) for n in tracer.names if n.split(".")[0] == layer]
        out[f"{layer}.calls"] = sum(r[0] for r in rows)
        out[f"{layer}.self_s"] = sum(r[2] for r in rows)
        out[f"{layer}.errors"] = sum(r[3] for r in rows)
    for name in ("enumeration.count_colored", "trees.count_shapes", "enumeration.enumerate_colored",
                 "enumeration.tree_to_diagram", "diagram.validate_diagram",
                 "diagram.check_cycle_parity", "diagram.check_period_consistency",
                 "diagram.construct", "documents.parse_diagram", "represent.to_star",
                 "represent.to_clique", "represent.line_graph", "matroids.has_vamos_minor",
                 "graphs.all_graphs", "graphs.graphs_isomorphic", "classes.has_diamond_minor",
                 "spanning.spanning_count_kirchhoff", "spanning.tutte_11",
                 "spanning.spanning_enumerate_brute"):
        out[f"{name}.s"] = tracer.stats(name)[1]
    for name in ("enumeration.count_colored", "laws.splits_for_child_count",
                 "diagram.junction_periods_consistent", "diagram.incident_edges", "diagram.edge",
                 "diagram.vertex", "laws.is_admissible_star", "classes.block_decomposition",
                 "matroids.is_independent"):
        out[f"{name}.calls"] = tracer.stats(name)[0]
    out["documents.emit.s"] = sum(tracer.stats(n)[1] for n in tracer.names
                                  if n.startswith("documents.emit_"))
    for key in ("enumeration.trees_materialised", "diagram.cycles_reported",
                "documents.bytes_in", "documents.bytes_out"):
        out[key] = tracer.counters[key]
    evals = tracer.stats("matroids.indep")[0]
    queries = tracer.stats("matroids.is_independent")[0]
    out["matroids.oracle_evals"] = evals
    out["matroids.memo_hit_ratio"] = 1 - evals / queries if queries else 0.0
    return out
