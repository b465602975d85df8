"""In-process timings of ``bifgraph.cli.main``, one argv per subcommand.

Times ``main``, which builds only the named subcommand's parser, against
the same call through the full parser of all ten subcommands (how every
call was parsed before the subcommand table), and the two parser builds
alone.  Writes the medians to ``BENCH_cli.json``:

    python3 scripts/bench_cli.py [--out BENCH_cli.json]

Each row is the median (and every run) of ``RUNS`` runs; a run is the mean
of ``CALLS`` calls, with bifgraph's functools caches emptied before each
call.  Output goes to a string buffer; both paths must print the same
bytes and return the same exit code.  Input documents are written to a
temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bifgraph as bg  # noqa: E402
from bifgraph import cli  # noqa: E402

RUNS = 5
CALLS = 50

K4 = {"vertexCount": 4, "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]}
U24 = {"groundSet": ["a", "b", "c", "d"],
       "bases": [["a", "b"], ["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"], ["c", "d"]]}


def clear_caches() -> None:
    for name, mod in list(sys.modules.items()):
        if name == "bifgraph" or name.startswith("bifgraph."):
            for fn in vars(mod).values():
                if hasattr(fn, "cache_clear"):
                    fn.cache_clear()


def through_the_full_parser(argv) -> int:
    args = cli.build_parser().parse_args(argv)
    return args.func(args)


def single_parser(command) -> argparse.ArgumentParser:
    return cli._fill(argparse.ArgumentParser(prog=f"bifgraph {command[0]}"), command)


def outcome(fn, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = fn(argv)
    return code, out.getvalue()


def time_calls(fn, *args) -> dict:
    runs = []
    for _ in range(RUNS):
        total = 0.0
        for _ in range(CALLS):
            clear_caches()
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                fn(*args)
                total += time.perf_counter() - start
        runs.append(total / CALLS)
    return {"median_s": statistics.median(runs), "runs_s": runs}


def argvs(tmp: Path) -> list[list[str]]:
    files = {"diagram.json": bg.emit_diagram(bg.nonadmissible_period_fixture()),
             "graph.json": json.dumps(K4), "matroid.json": json.dumps(U24),
             "tree.json": "[[], [[]], []]"}
    for name, text in files.items():
        (tmp / name).write_text(text, encoding="utf-8")
    diagram, graph = str(tmp / "diagram.json"), str(tmp / "graph.json")
    return [["validate", diagram, "--k", "1"],
            ["enumerate", "--k", "1", "--d", "4", "--n", "6"],
            ["ratio", "--k1", "1", "--k2", "2", "--d", "4", "--n-max", "10"],
            ["share", "--k", "1", "--d1", "2", "--d2", "3", "--n-max", "10"],
            ["classify", graph], ["spanning", graph], ["repr", diagram, "--star"],
            ["matroid", str(tmp / "matroid.json")], ["count", "--kary", "3", "10"],
            ["convert", str(tmp / "tree.json")]]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_cli.json")
    args = ap.parse_args()

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for argv in argvs(Path(tmp)):
            shown = " ".join(a if not a.startswith(tmp) else Path(a).name for a in argv)
            if outcome(cli.main, argv) != outcome(through_the_full_parser, argv):
                raise SystemExit(f"{shown}: the two parser paths differ")
            for path, fn in (("single", cli.main), ("full", through_the_full_parser)):
                row = time_calls(fn, argv)
                rows.append({"function": "main", "parser": path, "input": shown, **row})
                print(f"main {path:6s} {shown:48s} {row['median_s'] * 1e3:8.3f} ms")
    for command in cli.COMMANDS:
        row = time_calls(single_parser, command)
        rows.append({"function": "single_parser", "input": command[0], **row})
        print(f"single_parser {command[0]:10s} {row['median_s'] * 1e3:8.3f} ms")
    row = time_calls(cli.build_parser)
    rows.append({"function": "build_parser", "input": "all", **row})
    print(f"build_parser  {'all':10s} {row['median_s'] * 1e3:8.3f} ms")
    record = {"python": platform.python_version(), "platform": platform.platform(),
              "machine": platform.machine(), "cpus": os.cpu_count(), "runs": RUNS,
              "calls_per_run": CALLS, "rows": rows}
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
