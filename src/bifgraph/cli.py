"""Command-line surface.

Every subcommand is deterministic (identical inputs and flags give
byte-identical output) and exits nonzero on validation failure, 2 on
schema/usage errors.  The environment variable BIFGRAPH_LIMIT caps explicit
enumeration sizes; --limit overrides it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import classes, documents, enumeration, matroids, represent, spanning, trees
from .diagram import validate_diagram
from .laws import builtin_table
from .trees import EnumerationLimitError, TreeMode


class UsageError(ValueError):
    """Bad flag/file combination; reported on stderr with exit code 2."""


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _limit(args) -> int | None:
    if getattr(args, "limit", None) is not None:
        return args.limit
    env = os.environ.get("BIFGRAPH_LIMIT")
    return int(env) if env else None


def _table_for(args, dimension: int):
    if getattr(args, "law_table", None):
        table = documents.load_law_table(_read(args.law_table))
        if table.dimension != dimension:
            raise UsageError(f"law table is for dimension {table.dimension}, "
                             f"input has dimension {dimension}")
        return table
    return builtin_table(dimension)


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    diagram = documents.parse_diagram(_read(args.file))
    table = _table_for(args, diagram.dimension)
    report = validate_diagram(diagram, args.k, table)
    if args.json:
        _emit_json({"valid": report.ok,
                    "violations": [{"code": v.code, "message": v.message,
                                    "vertexId": v.vertex_id,
                                    "edgeIds": list(v.edge_ids)}
                                   for v in report.violations]})
    else:
        if report.ok:
            print(f"valid: member of the admissible family (k={args.k}, "
                  f"d={diagram.dimension})")
        for v in report.violations:
            print(f"violation [{v.code}] {v.message}")
    return 0 if report.ok else 1


def cmd_enumerate(args) -> int:
    spec = enumeration.EnumerationSpec(args.k, args.d, args.n,
                                       TreeMode.coerce(args.mode),
                                       _table_for(args, args.d), _limit(args))
    if args.emit in ("counts", "csv"):
        table = enumeration.CountTable()
        counts = enumeration.count_sequence(args.k, args.d, args.n, spec.mode,
                                            spec.resolved_table())
        for n, count in enumerate(counts, start=1):
            table.record(args.k, args.d, n, spec.mode, count, "count_sequence")
        sys.stdout.write(table.to_csv())
        return 0
    colored = enumeration.enumerate_colored(spec)
    write = documents.write_trees_json if args.emit == "json" else documents.write_trees_dot
    write(colored, sys.stdout)
    return 0


def _print_fractions(values, as_json: bool) -> None:
    rows = [{"n": i + 1, "value": None if v is None else f"{v.numerator}/{v.denominator}",
             "approx": None if v is None else float(v)}
            for i, v in enumerate(values)]
    if as_json:
        _emit_json(rows)
    else:
        print("n,value,approx")
        for r in rows:
            print(f"{r['n']},{r['value']},{r['approx']}")


def cmd_ratio(args) -> int:
    values = enumeration.ratio_sequence(args.k1, args.k2, args.d, args.n_max,
                                        TreeMode.coerce(args.mode),
                                        _table_for(args, args.d))
    _print_fractions(values, args.json)
    return 0


def cmd_share(args) -> int:
    values = enumeration.share_sequence(args.k, args.d1, args.d2, args.n_max,
                                        TreeMode.coerce(args.mode))
    _print_fractions(values, args.json)
    return 0


def cmd_classify(args) -> int:
    g = documents.parse_graph(_read(args.file))
    if not g.is_connected():
        raise UsageError("classify needs a connected graph")
    facts = {
        "tree": len(g.edges) == g.n - 1,
        "block_graph": classes.is_block_graph(g),
        "cactus": classes.is_cactus(g),
        "claw_free": classes.is_claw_free(g),
        "diamond_minor": classes.has_diamond_minor(g),
    }
    if args.json:
        _emit_json(facts)
    else:
        for key in sorted(facts):
            print(f"{key}: {str(facts[key]).lower()}")
    return 0


def cmd_spanning(args) -> int:
    g = documents.parse_graph(_read(args.file))
    if args.method == "kirchhoff":
        count = spanning.spanning_count_kirchhoff(g)
    elif args.method == "brute":
        count = len(spanning.spanning_enumerate_brute(g))
    else:
        count = spanning.tutte_11(g)
    if args.json:
        _emit_json({"method": args.method, "count": str(count),
                    "connected": g.is_connected()})
    else:
        print(count)
    return 0


def cmd_repr(args) -> int:
    if args.line:
        g = documents.parse_graph(_read(args.file))
        out = represent.line_graph(g)
    else:
        diagram = documents.parse_diagram(_read(args.file))
        out = represent.to_star(diagram) if args.star else represent.to_clique(diagram)
    if args.emit == "json":
        sys.stdout.write(documents.emit_graph(out))
    else:
        sys.stdout.write(documents.emit_dot(out))
    return 0


def cmd_matroid(args) -> int:
    m = documents.parse_matroid(_read(args.file))
    if args.vamos_minor:
        found = matroids.has_vamos_minor(m)
        if args.json:
            _emit_json({"vamosMinor": found,
                        "representable": None if not found else False})
        else:
            print("vamos minor present: non-representable over any field"
                  if found else "no vamos minor found")
        return 1 if found else 0
    if args.json:
        _emit_json({"groundSize": len(m.ground), "rank": m.rank})
    else:
        print(f"ground size {len(m.ground)}, rank {m.rank}")
    return 0


def _parse_sizes(text: str) -> dict[int, int]:
    out: dict[int, int] = {}
    for part in text.split(","):
        if not part:
            continue
        size, _, count = part.partition("=")
        out[int(size)] = int(count)
    return out


def cmd_count(args) -> int:
    if args.kary:
        k, n = (int(x) for x in args.kary)
        value = trees.count_kary_formula(k, n)
    elif args.husimi is not None:
        value = classes.husimi_count(_parse_sizes(args.husimi))
    else:
        value = classes.cactus_count(_parse_sizes(args.cactus))
    if args.json:
        _emit_json({"count": str(value)})
    else:
        print(value)
    return 0


def cmd_convert(args) -> int:
    tree = documents.parse_tree(_read(args.file))
    sys.stdout.write(documents.emit_binary_tree(trees.mary_to_binary(tree)))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bifgraph",
                                description="Bifurcation-diagram graph toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def add_json(sp):
        sp.add_argument("--json", action="store_true", help="machine-readable output")

    sp = sub.add_parser("validate", help="check a diagram document against the laws")
    sp.add_argument("file")
    sp.add_argument("--k", type=int, default=1, help="branching budget (degree bound k+2)")
    sp.add_argument("--law-table", help="JSON law-table override")
    add_json(sp)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("enumerate", help="enumerate or count admissible colored trees")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--mode", choices=["plane", "free"], default="plane")
    sp.add_argument("--emit", choices=["counts", "csv", "json", "dot"],
                    default="counts", help="csv is an alias for counts")
    sp.add_argument("--limit", type=int)
    sp.add_argument("--law-table")
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("ratio", help="count ratios across branching budgets")
    sp.add_argument("--k1", type=int, required=True)
    sp.add_argument("--k2", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--mode", choices=["plane", "free"], default="plane")
    sp.add_argument("--law-table")
    add_json(sp)
    sp.set_defaults(func=cmd_ratio)

    sp = sub.add_parser("share", help="count ratios across dimensions")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--d1", type=int, required=True)
    sp.add_argument("--d2", type=int, required=True)
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--mode", choices=["plane", "free"], default="plane")
    add_json(sp)
    sp.set_defaults(func=cmd_share)

    sp = sub.add_parser("classify", help="graph-class facts for a graph document")
    sp.add_argument("file")
    add_json(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("spanning", help="spanning-tree counts")
    sp.add_argument("file")
    sp.add_argument("--method", choices=["kirchhoff", "brute", "tutte"],
                    default="kirchhoff")
    add_json(sp)
    sp.set_defaults(func=cmd_spanning)

    sp = sub.add_parser("repr", help="star/clique representation or line graph")
    sp.add_argument("file")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--star", action="store_true")
    group.add_argument("--clique", action="store_true")
    group.add_argument("--line", action="store_true",
                       help="line graph of a graph document")
    sp.add_argument("--emit", choices=["dot", "json"], default="dot")
    sp.set_defaults(func=cmd_repr)

    sp = sub.add_parser("matroid", help="matroid checks from a bases document")
    sp.add_argument("file")
    sp.add_argument("--vamos-minor", action="store_true",
                    help="search for a Vamos minor (exit 1 when present)")
    add_json(sp)
    sp.set_defaults(func=cmd_matroid)

    sp = sub.add_parser("count", help="closed-form counting formulas")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--husimi", metavar="SPEC",
                       help="block-size spec, e.g. 2=1,3=2")
    group.add_argument("--cactus", metavar="SPEC",
                       help="polygon-size spec, e.g. 3=2")
    group.add_argument("--kary", nargs=2, metavar=("K", "N"))
    add_json(sp)
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("convert", help="ordered tree to binary tree")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_convert)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, EnumerationLimitError, OSError) as exc:
        # SchemaError, DiagramError and UsageError are ValueErrors too;
        # OSError covers missing, unreadable and directory paths
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
