"""Summaries over benchmark runs, and the pairwise comparison rule.

    python3 benchmarks/summarize.py RESULTS_DIR
    python3 benchmarks/summarize.py PARENT_DIR --against CHANGE_DIR

RESULTS_DIR holds the per-run records ``run.py`` writes (by default under
``benchmarks/out/results``).  The first form prints, per workload and
metric, the median, the quartiles and the quartile spread as a share of the
median.  The second pairs the parent's and the change's runs by seed and
reports, per metric, how many pairs the change won (ties count for
neither), and whether the change claims a gain: it wins at least nine
tenths of the pairs and the medians differ by more than the parent's own
quartile spread.  It also flags every metric whose change median is worse
than the parent's by more than the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """{(workload, trace): {metric: {seed: value}}, ...} plus directions."""
    runs: dict = defaultdict(lambda: defaultdict(dict))
    better: dict = {}
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        for name, m in rec["metrics"].items():
            runs[(rec["workload"], rec["trace"])][name][rec["seed"]] = m["value"]
            better[name] = m["better"]
    return runs, better


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summary(runs) -> None:
    for (workload, trace), metrics in sorted(runs.items()):
        print(f"{workload} (trace {trace})")
        for name, by_seed in metrics.items():
            q1, med, q3 = quartiles(list(by_seed.values()))
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:40s} n={len(by_seed):2d} median {med:12.6g} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.2%}")


def compare(parent, change, better, bounds) -> None:
    for key in sorted(set(parent) & set(change)):
        print(f"{key[0]} (trace {key[1]})")
        for name, base in parent[key].items():
            new = change[key].get(name, {})
            seeds = sorted(set(base) & set(new))
            if not seeds:
                continue
            sign = 1 if better[name] == "higher" else -1
            wins = sum(1 for s in seeds if sign * (new[s] - base[s]) > 0)
            q1, pmed, q3 = quartiles([base[s] for s in seeds])
            cmed = statistics.median(new[s] for s in seeds)
            gain = wins >= 0.9 * len(seeds) and abs(cmed - pmed) > q3 - q1
            worse = sign * (pmed - cmed) / pmed if pmed else 0.0
            bound = bounds.get(name)
            flag = " REGRESSION" if bound is not None and worse > bound else ""
            print(f"  {name:40s} pairs {len(seeds):2d} wins {wins:2d} parent {pmed:12.6g} "
                  f"change {cmed:12.6g} {'GAIN' if gain else '    '}{flag}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("results", type=Path)
    ap.add_argument("--against", type=Path, help="the change's results directory")
    args = ap.parse_args(argv)
    parent, better = load(args.results)
    if args.against is None:
        summary(parent)
        return 0
    change, better_new = load(args.against)
    better.update(better_new)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    compare(parent, change, better, bounds)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
