"""Per-layer timings of the graph and tree-shape catalogs.

Times ``all_graphs`` and ``connected_graphs`` against the permutation
sweep they replaced, and the free shape count, ``canonical_trees`` and
``free_trees`` against the cached listers they replaced, and writes the
medians to ``BENCH_graphs.json``:

    python3 scripts/bench_graphs.py [--out BENCH_graphs.json]

Each row is the median (and every run) of ``RUNS`` calls, with the
functools caches of bifgraph and of ``tests/helpers.py`` emptied before
each call, so no catalog, listing or edge permutation is reused.  The
references come from ``tests/helpers.py``: ``swept_all_graphs`` pushes
every new orbit representative through each vertex permutation one edge
bit at a time; ``cached_canonical_trees`` and ``cached_free_trees`` list
through module-level caches; ``listed_free_shape_count`` counts free
shapes by listing them.  Each row records the count, or the number of
graphs or trees listed; a function and its reference must give the same
answer.
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
from helpers import (  # noqa: E402
    cached_canonical_trees, cached_free_trees, listed_free_shape_count, swept_all_graphs,
)

RUNS = 5


def clear_caches() -> None:
    for name, mod in list(sys.modules.items()):
        if name in ("bifgraph", "helpers") or name.startswith("bifgraph."):
            for fn in vars(mod).values():
                if hasattr(fn, "cache_clear"):
                    fn.cache_clear()


def swept_connected_graphs(n: int) -> tuple:
    return tuple(g for g in swept_all_graphs(n) if g.is_connected())


def time_call(fn, args) -> tuple[dict, object]:
    times, results = [], set()
    for _ in range(RUNS):
        clear_caches()
        start = time.perf_counter()
        got = fn(*args)
        times.append(time.perf_counter() - start)
        results.add(got)
    (got,) = results
    answer = got if isinstance(got, int) else len(got)
    return {"median_s": statistics.median(times), "runs_s": times, "answer": answer}, got


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_graphs.json")
    args = ap.parse_args()

    # each case: the function and its arguments, then the reference it replaced
    cases = [((bg.all_graphs, 5), (swept_all_graphs, 5)),
             ((bg.all_graphs, 6), (swept_all_graphs, 6)),
             ((bg.connected_graphs, 6), (swept_connected_graphs, 6)),
             ((bg.count_shapes, 3, 17, "free"), (listed_free_shape_count, 3, 17)),
             ((bg.count_shapes, 3, 60, "free"),),
             ((bg.canonical_trees, 14), (cached_canonical_trees, 14)),
             ((bg.canonical_trees, 16, 4), (cached_canonical_trees, 16, 4)),
             ((bg.free_trees, 14), (cached_free_trees, 14))]
    rows = []
    for calls in cases:
        got = []
        for fn, *params in calls:
            row, answer = time_call(fn, params)
            got.append(answer)
            text = ", ".join(map(repr, params))
            rows.append({"function": fn.__name__, "input": text, **row})
            print(f"{fn.__name__:24s} {text:14s} {row['median_s']:10.4f} s  -> {row['answer']}")
        if any(answer != got[0] for answer in got):
            raise SystemExit(f"{calls[0][0].__name__} differs from its reference")
    record = {"python": platform.python_version(), "platform": platform.platform(),
              "machine": platform.machine(), "cpus": os.cpu_count(), "runs": RUNS,
              "rows": rows}
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
