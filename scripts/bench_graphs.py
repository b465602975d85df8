"""Per-layer timings of the graph catalogs.

Times ``all_graphs`` and ``connected_graphs`` against the permutation
sweep they replaced, and writes the medians to ``BENCH_graphs.json``:

    python3 scripts/bench_graphs.py [--out BENCH_graphs.json]

Each row is the median (and every run) of ``RUNS`` calls, with the
functools caches of bifgraph and of ``tests/helpers.py`` emptied before
each call, so neither the catalog nor the sweep's edge permutations are
reused.  The reference is ``swept_all_graphs`` from ``tests/helpers.py``,
which pushes every new orbit representative through each vertex
permutation one edge bit at a time.  Each row records the number of
graphs listed; a catalog and its reference must list the same graphs.
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
from helpers import swept_all_graphs  # noqa: E402

RUNS = 5


def clear_caches() -> None:
    for name, mod in list(sys.modules.items()):
        if name in ("bifgraph", "helpers") or name.startswith("bifgraph."):
            for fn in vars(mod).values():
                if hasattr(fn, "cache_clear"):
                    fn.cache_clear()


def swept_connected_graphs(n: int) -> tuple:
    return tuple(g for g in swept_all_graphs(n) if g.is_connected())


def time_call(fn, n: int) -> tuple[dict, tuple]:
    times, results = [], set()
    for _ in range(RUNS):
        clear_caches()
        start = time.perf_counter()
        got = fn(n)
        times.append(time.perf_counter() - start)
        results.add(got)
    (got,) = results
    return {"median_s": statistics.median(times), "runs_s": times, "answer": len(got)}, got


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_graphs.json")
    args = ap.parse_args()

    cases = [(bg.all_graphs, swept_all_graphs, 5), (bg.all_graphs, swept_all_graphs, 6),
             (bg.connected_graphs, swept_connected_graphs, 6)]
    rows = []
    for fn, reference, n in cases:
        got = {}
        for f in (fn, reference):
            row, got[f] = time_call(f, n)
            rows.append({"function": f.__name__, "input": f"n={n}", **row})
            print(f"{f.__name__:24s} n={n} {row['median_s']:10.4f} s  -> {row['answer']} graphs")
        if got[fn] != got[reference]:
            raise SystemExit(f"{fn.__name__}({n}) differs from {reference.__name__}({n})")
    record = {"python": platform.python_version(), "platform": platform.platform(),
              "machine": platform.machine(), "cpus": os.cpu_count(), "runs": RUNS,
              "rows": rows}
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
