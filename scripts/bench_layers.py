"""Per-layer timings from one registry of rows.

Each row of a topic is a registry entry: the function, its input, and
optionally the oracle from ``tests/helpers.py`` that it must agree with.
The script times every row of one topic and writes ``BENCH_<topic>.json``:

    python3 scripts/bench_layers.py [--topic validate] [--out BENCH_validate.json]

Inputs are built once, untimed.  Each row is the median (and every run) of
``RUNS`` calls, with the functools caches of bifgraph and of
``tests/helpers.py`` emptied before each call.  A row with an oracle is
followed by the oracle's own row, timed the same way on the same input: the
oracle is the code the function replaced, so the pair is the before and
after.  The two results must be equal, and each row records a short
summary of its result.

Topic ``validate``: diagram documents and validation.  ``parse_diagram``
runs on the JSON text of a 1,500-node admissible tree in dimension 4 and of
a 1,200-node saddle-node ring, against ``eager_parse_diagram``;
``Diagram`` construction and ``validate_diagram`` (k = 3, against
``stepwise_validate_diagram``) on the tree; ``check_cycle_parity`` on the
ring; ``check_period_consistency`` on a 300-node period-labelled tree.

Topic ``emit``: listing and writing trees, diagrams and graphs.
``enumerate_colored`` lists k=2 d=4 n=7 plane and k=1 d=4 n=9 free trees;
``write_trees_json`` (against ``dumped_trees_json``) and
``write_trees_dot`` (against ``formatted_trees_dot``) write the k=2 d=4
n=5 plane trees, each writer's text taken from a ``StringIO``;
``emit_diagram`` (against ``dumped_diagram``) writes the 1,500-node tree
diagram and ``emit_graph`` (against ``dumped_graph``) its clique graph.
The last two rows list and write as JSON the two 400-node paths of a law
table holding only the saddle-node entries, in free mode.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import random
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import bifgraph as bg  # noqa: E402
from bifgraph.documents import write_trees_dot, write_trees_json  # noqa: E402
from helpers import (  # noqa: E402
    dumped_diagram, dumped_graph, dumped_trees_json, eager_parse_diagram, formatted_trees_dot,
    period_labelled, sn_cycle, stepwise_validate_diagram,
)

RUNS = 5


@dataclass(frozen=True)
class Row:
    """One registry entry: ``fn(*args())`` is timed, ``args`` built once."""

    fn: Callable
    input: str
    args: Callable[[], tuple]
    oracle: Callable | None = None


def clear_caches() -> None:
    for name, mod in list(sys.modules.items()):
        if name in ("bifgraph", "helpers") or name.startswith("bifgraph."):
            for fn in vars(mod).values():
                if hasattr(fn, "cache_clear"):
                    fn.cache_clear()


def admissible_tree(nodes: int, d: int, seed: int) -> bg.ColoredTree:
    """A seeded admissible colored tree with ``nodes`` nodes in dimension
    d: each node, taken in turn, gets 1 to 4 children by a random split
    its color allows, until the tree is that large."""
    rng, table = random.Random(seed), bg.builtin_table(d)
    colors, kids, size = [1], [[]], 1
    for node in range(nodes):
        if size == nodes:
            break
        c = rng.randint(1, min(4, nodes - size))
        splits = sorted(bg.splits_for_child_count(table, c, colors[node]))
        if not splits:
            continue
        for color in rng.choice(splits):
            kids[node].append(len(colors))
            colors.append(color)
            kids.append([])
        size += c
    built = [None] * len(colors)
    for node in reversed(range(len(colors))):
        built[node] = bg.ColoredTree(colors[node], tuple(built[k] for k in kids[node]))
    return built[0]


def tree_diagram(nodes: int) -> bg.Diagram:
    return bg.tree_to_diagram(admissible_tree(nodes, 4, seed=nodes), 4)


def diagram_fields(diagram: bg.Diagram) -> tuple:
    return diagram.dimension, diagram.edges, diagram.vertices


def ring(nodes: int) -> bg.Diagram:
    return sn_cycle(2, [(-1) ** i for i in range(nodes)])


SADDLE_NODES_ONLY = {"schemaVersion": "1", "dimension": 1, "mode": "replace", "entries": [
    {"kind": "saddle_node", "parent": 1, "children": [-1]},
    {"kind": "saddle_node", "parent": -1, "children": [1]}]}


def saddle_node_paths(n: int) -> bg.EnumerationSpec:
    return bg.EnumerationSpec(1, 1, n, "free", bg.load_law_table(SADDLE_NODES_ONLY))


def listed(k: int, d: int, n: int, mode: str = "plane") -> tuple:
    return bg.enumerate_colored(bg.EnumerationSpec(k, d, n, mode))


def text_of(write: Callable) -> Callable:
    """``write(trees, out)`` as a function of the trees that returns the text."""
    def text(trees) -> str:
        out = io.StringIO()
        write(trees, out)
        return out.getvalue()

    text.__name__ = write.__name__
    return text


def summary(value) -> str:
    if isinstance(value, str):
        return f"{len(value)} chars"
    if type(value) is tuple:  # enumerate_colored
        return f"{len(value)} trees"
    if isinstance(value, bg.Diagram):
        return f"{len(value.edges)} edges, {len(value.vertices)} vertices"
    if isinstance(value, bg.ValidationReport):
        return f"{len(value.violations)} violations"
    if isinstance(value, list):  # check_cycle_parity
        return f"{len(value)} cycles, {sum(not c.ok for c in value)} failing"
    return f"{len(value.violations)} period violations"


TOPICS = {
    "validate": (
        Row(bg.parse_diagram, "1,500-node tree document",
            lambda: (bg.emit_diagram(tree_diagram(1500)),), eager_parse_diagram),
        Row(bg.parse_diagram, "1,200-node saddle-node ring document",
            lambda: (bg.emit_diagram(ring(1200)),), eager_parse_diagram),
        Row(bg.Diagram, "1,500-node tree", lambda: diagram_fields(tree_diagram(1500))),
        Row(bg.validate_diagram, "1,500-node tree, k=3",
            lambda: (tree_diagram(1500), 3, bg.builtin_table(4)), stepwise_validate_diagram),
        Row(bg.check_cycle_parity, "1,200-node saddle-node ring", lambda: (ring(1200),)),
        Row(bg.check_period_consistency, "300-node period-labelled tree",
            lambda: (period_labelled(random.Random(300), tree_diagram(300)),)),
    ),
    "emit": (
        Row(bg.enumerate_colored, "k=2 d=4 n=7 plane", lambda: (bg.EnumerationSpec(2, 4, 7),)),
        Row(bg.enumerate_colored, "k=1 d=4 n=9 free",
            lambda: (bg.EnumerationSpec(1, 4, 9, "free"),)),
        Row(text_of(write_trees_json), "k=2 d=4 n=5 plane trees", lambda: (listed(2, 4, 5),),
            dumped_trees_json),
        Row(text_of(write_trees_dot), "k=2 d=4 n=5 plane trees", lambda: (listed(2, 4, 5),),
            text_of(formatted_trees_dot)),
        Row(bg.emit_diagram, "1,500-node tree", lambda: (tree_diagram(1500),), dumped_diagram),
        Row(bg.emit_graph, "clique graph of the 1,500-node tree",
            lambda: (bg.to_clique(tree_diagram(1500)),), dumped_graph),
        Row(bg.enumerate_colored, "400-node saddle-node paths, free",
            lambda: (saddle_node_paths(400),)),
        Row(text_of(write_trees_json), "400-node saddle-node paths, free",
            lambda: (bg.enumerate_colored(saddle_node_paths(400)),)),
    ),
}


def time_call(fn, args: tuple) -> tuple[dict, object]:
    """Time ``RUNS`` calls.  The garbage collector skips the objects alive
    before each call (``gc.freeze``), as in a fresh process: otherwise the
    results kept from earlier calls make its passes, and the call, slower."""
    times, results = [], []
    for _ in range(RUNS):
        clear_caches()
        gc.freeze()
        start = time.perf_counter()
        results.append(fn(*args))
        times.append(time.perf_counter() - start)
        gc.unfreeze()
    if any(r != results[0] for r in results):
        raise SystemExit(f"{fn.__name__} gave different results on one input")
    return {"median_s": statistics.median(times), "runs_s": times,
            "answer": summary(results[0])}, results[0]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--topic", choices=sorted(TOPICS), default="validate")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    out = args.out or ROOT / f"BENCH_{args.topic}.json"

    rows = []
    for row in TOPICS[args.topic]:
        inputs = row.args()
        results = []
        for fn in (row.fn, row.oracle) if row.oracle else (row.fn,):
            timing, result = time_call(fn, inputs)
            results.append(result)
            rows.append({"function": fn.__name__, "input": row.input, **timing})
            print(f"{fn.__name__:26s} {row.input:38s} {timing['median_s']:9.4f} s"
                  f"  -> {timing['answer']}")
        if results[-1] != results[0]:
            raise SystemExit(f"{row.fn.__name__} differs from {row.oracle.__name__}")
    record = {"topic": args.topic, "python": platform.python_version(),
              "platform": platform.platform(), "machine": platform.machine(),
              "cpus": os.cpu_count(), "runs": RUNS, "rows": rows}
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
