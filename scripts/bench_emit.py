"""Timings of the two tree writers behind ``enumerate --emit json|dot``.

Times ``write_trees_json`` and ``write_trees_dot`` against the per-object
paths they replaced, and writes the medians to ``BENCH_emit.json``:

    python3 scripts/bench_emit.py [--out BENCH_emit.json]

Each row is the median (and every run) of ``RUNS`` runs, each of which
enumerates the trees and writes them, with bifgraph's functools caches
emptied before it; the ``enumerate_colored`` rows time the enumeration
alone, the last of them on a law table of the two saddle-node entries
only, whose trees are two paths.  The reference paths come from ``tests/helpers.py``:
``dumped_trees_json`` is ``json.dumps`` of the whole list of tree
documents, ``diagram_trees_dot`` builds a Diagram and its star graph for
every tree.  The writers' output goes to a sink that only counts
characters; each row records that count, equal for a writer and its
reference.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import bifgraph as bg  # noqa: E402
from bifgraph.documents import write_trees_dot, write_trees_json  # noqa: E402
from helpers import diagram_trees_dot, dumped_trees_json  # noqa: E402

RUNS = 5


class Sink:
    """A text stream that keeps only the number of characters written."""

    def __init__(self):
        self.chars = 0

    def write(self, text: str) -> None:
        self.chars += len(text)


def clear_caches() -> None:
    for name, mod in list(sys.modules.items()):
        if name == "bifgraph" or name.startswith("bifgraph."):
            for fn in vars(mod).values():
                if hasattr(fn, "cache_clear"):
                    fn.cache_clear()


def written(write, trees) -> int:
    sink = Sink()
    write(trees, sink)
    return sink.chars


# name -> (trees, d) -> characters of output (the tree count for the
# enumeration alone)
PATHS = {
    "enumerate_colored": lambda trees, d: len(trees),
    "write_trees_json": lambda trees, d: written(write_trees_json, trees),
    "dumped_trees_json": lambda trees, d: len(dumped_trees_json(trees)),
    "write_trees_dot": lambda trees, d: written(write_trees_dot, trees),
    "diagram_trees_dot": lambda trees, d: len(diagram_trees_dot(trees, d)),
}


SADDLE_NODES_ONLY = bg.load_law_table({
    "schemaVersion": "1", "dimension": 1, "mode": "replace", "entries": [
        {"kind": "saddle_node", "parent": 1, "children": [-1]},
        {"kind": "saddle_node", "parent": -1, "children": [1]}]})


def run_once(name: str, spec: bg.EnumerationSpec) -> tuple[float, int]:
    clear_caches()
    start = time.perf_counter()
    size = PATHS[name](bg.enumerate_colored(spec), spec.d)
    return time.perf_counter() - start, size


def describe(spec: bg.EnumerationSpec) -> str:
    table = " saddle nodes only" if spec.table is not None else ""
    return f"k={spec.k} d={spec.d} n={spec.n} {spec.mode.value}{table}"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_emit.json")
    args = ap.parse_args()

    cases = []
    for k, d, n in ((2, 4, 5), (1, 3, 6)):
        spec = bg.EnumerationSpec(k, d, n)
        cases += [("enumerate_colored", spec),
                  ("write_trees_json", spec), ("dumped_trees_json", spec),
                  ("write_trees_dot", spec), ("diagram_trees_dot", spec)]
    spec = bg.EnumerationSpec(2, 4, 7)
    cases += [("enumerate_colored", spec),
              ("write_trees_json", spec), ("dumped_trees_json", spec),
              ("enumerate_colored", bg.EnumerationSpec(1, 4, 9, "free")),
              ("enumerate_colored", bg.EnumerationSpec(1, 1, 400, "free", SADDLE_NODES_ONLY))]

    rows = []
    for name, spec in cases:
        times, sizes = [], set()
        for _ in range(RUNS):
            took, size = run_once(name, spec)
            times.append(took)
            sizes.add(size)
        (size,) = sizes
        unit = "trees" if name == "enumerate_colored" else "chars"
        row = {"function": name, "input": describe(spec),
               "median_s": statistics.median(times), "runs_s": times, unit: size}
        rows.append(row)
        print(f"{name:20s} {row['input']:36s} {row['median_s']:10.4f} s  {size} {unit}")
    record = {"python": platform.python_version(), "platform": platform.platform(),
              "machine": platform.machine(), "cpus": os.cpu_count(), "runs": RUNS,
              "rows": rows}
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
