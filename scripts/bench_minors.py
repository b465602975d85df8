"""Per-layer timings of the two forbidden-minor tests.

Times ``has_diamond_minor`` and ``has_vamos_minor`` against the brute-force
searches they replaced, and writes the medians to ``BENCH_minors.json``:

    python3 scripts/bench_minors.py [--out BENCH_minors.json]

Each row is the median (and every run) of ``RUNS`` calls on a fresh
input, with bifgraph's functools caches emptied before each call.  The
reference paths come from ``tests/helpers.py``: the diamond search runs
only where it finishes (C8, C10); the Vamos rows time the split search
kept as a test oracle and the restriction sweep that the mask filter
replaced.
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
    searched_diamond_minor, searched_vamos_minor, swept_vamos_minor,
)

RUNS = 5


def triangle_cactus(n: int) -> bg.SimpleGraph:
    """A path with a chord (i - 2, i) at every even i: a chain of triangles."""
    return bg.SimpleGraph.from_edges(
        n, [(i - 1, i) for i in range(1, n)] + [(i - 2, i) for i in range(2, n, 2)])


def vamos_with_coloops(k: int) -> bg.Matroid:
    base = bg.vamos()
    extra = tuple(f"z{i}" for i in range(k))
    return bg.Matroid(base.ground + extra,
                      lambda s: base.is_independent(s - set(extra)), name="vamos+coloops")


def clear_caches() -> None:
    for name, mod in list(sys.modules.items()):
        if name == "bifgraph" or name.startswith("bifgraph."):
            for fn in vars(mod).values():
                if hasattr(fn, "cache_clear"):
                    fn.cache_clear()


def time_call(fn, make) -> dict:
    times, answers = [], set()
    for _ in range(RUNS):
        arg = make()
        clear_caches()
        start = time.perf_counter()
        answers.add(fn(arg))
        times.append(time.perf_counter() - start)
    (answer,) = answers
    return {"median_s": statistics.median(times), "runs_s": times, "answer": answer}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_minors.json")
    args = ap.parse_args()

    cases = [
        ("has_diamond_minor", bg.has_diamond_minor, "C8", lambda: bg.cycle_graph(8)),
        ("searched_diamond_minor", searched_diamond_minor, "C8", lambda: bg.cycle_graph(8)),
        ("has_diamond_minor", bg.has_diamond_minor, "C10", lambda: bg.cycle_graph(10)),
        ("searched_diamond_minor", searched_diamond_minor, "C10", lambda: bg.cycle_graph(10)),
        ("has_diamond_minor", bg.has_diamond_minor, "C2000", lambda: bg.cycle_graph(2000)),
        ("has_diamond_minor", bg.has_diamond_minor, "triangle cactus, 2000 vertices",
         lambda: triangle_cactus(2000)),
    ]
    for label, make in (("graphic K6", lambda: bg.graphic_matroid(bg.complete_graph(6))),
                        ("vamos + 3 coloops", lambda: vamos_with_coloops(3))):
        cases += [("has_vamos_minor", bg.has_vamos_minor, label, make),
                  ("swept_vamos_minor", swept_vamos_minor, label, make),
                  ("searched_vamos_minor", searched_vamos_minor, label, make)]

    rows = []
    for name, fn, label, make in cases:
        row = {"function": name, "input": label, **time_call(fn, make)}
        rows.append(row)
        print(f"{name:24s} {label:32s} {row['median_s']:10.4f} s  -> {row['answer']}")
    record = {"python": platform.python_version(), "platform": platform.platform(),
              "machine": platform.machine(), "cpus": os.cpu_count(), "runs": RUNS,
              "rows": rows}
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
