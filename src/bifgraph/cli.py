"""Command-line surface.

Every subcommand is deterministic (identical inputs and flags give
byte-identical output) and exits nonzero on validation failure, 2 on
schema/usage errors.  The environment variable BIFGRAPH_LIMIT caps explicit
enumeration sizes; --limit overrides it.

A handler ``cmd_*(args)`` writes nothing: it returns its exit code and its
stdout, a ``str`` or an iterable of ``str`` chunks.  Only ``_run`` writes stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable
from dataclasses import replace
from decimal import Decimal

# every library module, imported up front: benchmarks/tracing.py wraps each
# layer it finds in sys.modules once bifgraph.cli is imported
from . import classes, documents, enumeration, matroids, represent, spanning, trees
from .diagram import validate_diagram
from .laws import builtin_table
from .trees import EnumerationLimitError


class UsageError(ValueError):
    """Bad flag/file combination; reported on stderr with exit code 2."""


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _limit(args) -> int | None:
    if args.limit is not None:
        return args.limit
    env = os.environ.get("BIFGRAPH_LIMIT")
    return _int("BIFGRAPH_LIMIT", env) if env else None


def _table_for(args, dimension: int):
    if getattr(args, "law_table", None):
        table = documents.load_law_table(_read(args.law_table))
        if table.dimension != dimension:
            raise UsageError(f"law table is for dimension {table.dimension}, "
                             f"input has dimension {dimension}")
        return table
    return builtin_table(dimension)


def _digits(x: int) -> str:
    """Decimal text of ``x``: ``str(x)``, or ``Decimal`` past the int-to-text digit cap."""
    try:
        return str(x)
    except ValueError:
        return format(Decimal(x), "f")


def _shown(as_json: bool, payload, text: str) -> str:
    """``payload`` as indented JSON with sorted keys, or else ``text``; then a newline."""
    return (json.dumps(payload, indent=2, sort_keys=True) if as_json else text) + "\n"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> tuple[int, str]:
    diagram = documents.parse_diagram(_read(args.file))
    report = validate_diagram(diagram, args.k, _table_for(args, diagram.dimension))
    lines = [f"violation [{v.code}] {v.message}" for v in report.violations] or [
        f"valid: member of the admissible family (k={args.k}, d={diagram.dimension})"]
    return 0 if report.ok else 1, _shown(
        args.json, {"valid": report.ok,
                    "violations": [{"code": v.code, "message": v.message,
                                    "vertexId": v.vertex_id, "edgeIds": list(v.edge_ids)}
                                   for v in report.violations]}, "\n".join(lines))


def cmd_enumerate(args) -> tuple[int, str | Iterable[str]]:
    spec = enumeration.EnumerationSpec(args.k, args.d, args.n, args.mode,
                                       _table_for(args, args.d))
    if args.emit in ("counts", "csv"):  # ints and a mode name: no field needs CSV quoting
        counts = enumeration.count_sequence(args.k, args.d, args.n, spec.mode, spec.table)
        return 0, "k,d,n,mode,count\n" + "".join(
            f"{args.k},{args.d},{n},{spec.mode.value},{_digits(count)}\n"
            for n, count in enumerate(counts, start=1))
    colored = enumeration.enumerate_colored(replace(spec, limit=_limit(args)))
    return 0, (documents.trees_json if args.emit == "json" else documents.trees_dot)(colored)


def _approx(v) -> float | None:
    """The nearest float to a Fraction, or None beyond the float range."""
    try:
        return float(v)
    except OverflowError:
        return None


def _json_row(n: int, value: str | None, approx: float | None) -> str:
    """One row of ``_fractions`` in the text ``json.dumps`` gives it
    as a member of a list, at indent 2 with sorted keys."""
    value = "null" if value is None else f'"{value}"'
    approx = "null" if approx is None else repr(approx)
    return f'  {{\n    "approx": {approx},\n    "n": {n},\n    "value": {value}\n  }}'


def _fractions(values, as_json: bool) -> str:
    """One row per n: the exact value "p/q" and its nearest float ``approx``,
    both null where the value is None; ``approx`` alone is null where the
    value is beyond the float range.  JSON is written directly, in the text
    of ``json.dumps(rows, indent=2, sort_keys=True)``."""
    rows = [(n, None, None) if v is None else
            (n, f"{_digits(v.numerator)}/{_digits(v.denominator)}", _approx(v))
            for n, v in enumerate(values, start=1)]
    if as_json:
        return "[\n" + ",\n".join(_json_row(*row) for row in rows) + "\n]\n" if rows else "[]\n"
    return "\n".join(["n,value,approx"] + [f"{n},{v},{a}" for n, v, a in rows]) + "\n"


def cmd_ratio(args) -> tuple[int, str]:
    values = enumeration.ratio_sequence(args.k1, args.k2, args.d, args.n_max, args.mode,
                                        _table_for(args, args.d))
    return 0, _fractions(values, args.json)


def cmd_share(args) -> tuple[int, str]:
    values = enumeration.share_sequence(args.k, args.d1, args.d2, args.n_max, args.mode)
    return 0, _fractions(values, args.json)


def cmd_classify(args) -> tuple[int, str]:
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
    return 0, _shown(args.json, facts, "\n".join(f"{key}: {str(facts[key]).lower()}"
                                                for key in sorted(facts)))


def cmd_spanning(args) -> tuple[int, str]:
    g = documents.parse_graph(_read(args.file))
    if args.method == "kirchhoff":
        count = spanning.spanning_count_kirchhoff(g)
    elif args.method == "brute":
        count = len(spanning.spanning_enumerate_brute(g))
    else:
        count = spanning.tutte_11(g)
    digits = _digits(count)
    return 0, _shown(args.json, {"method": args.method, "count": digits,
                                 "connected": g.is_connected()}, digits)


def cmd_repr(args) -> tuple[int, str]:
    if args.line:
        out = represent.line_graph(documents.parse_graph(_read(args.file)))
    else:
        diagram = documents.parse_diagram(_read(args.file))
        out = represent.to_star(diagram) if args.star else represent.to_clique(diagram)
    return 0, (documents.emit_graph if args.emit == "json" else documents.emit_dot)(out)


def cmd_matroid(args) -> tuple[int, str]:
    m = documents.parse_matroid(_read(args.file))
    if args.vamos_minor:
        found = matroids.has_vamos_minor(m)
        return 1 if found else 0, _shown(
            args.json, {"vamosMinor": found, "representable": None if not found else False},
            "vamos minor present: non-representable over any field"
            if found else "no vamos minor found")
    return 0, _shown(args.json, {"groundSize": len(m.ground), "rank": m.rank},
                     f"ground size {len(m.ground)}, rank {m.rank}")


def _int(option: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{option}: {text!r} is not an integer") from None


def _parse_sizes(option: str, text: str) -> dict[int, int]:
    """A SIZE=COUNT,... spec as {size: count}; each error names the option and the part."""
    sizes: dict[int, int] = {}
    for part in filter(None, text.split(",")):
        size, _, count = part.partition("=")
        if (size := _int(option, size) if size else None) in sizes:
            raise UsageError(f"{option}: size {size} is given twice")
        if size is None or not count:
            raise UsageError(f"{option}: {part!r} is not SIZE=COUNT")
        if size < 2:
            raise UsageError(f"{option}: {part!r}: sizes start at 2")
        if (count := _int(option, count)) < 0:
            raise UsageError(f"{option}: {part!r}: counts are nonnegative")
        sizes[size] = count
    return sizes


def cmd_count(args) -> tuple[int, str]:
    if args.kary:
        k, n = (_int("--kary", x) for x in args.kary)
        value = trees.count_kary_formula(k, n)
    elif args.husimi is not None:
        value = classes.husimi_count(_parse_sizes("--husimi", args.husimi))
    else:
        value = classes.cactus_count(_parse_sizes("--cactus", args.cactus))
    digits = _digits(value)
    return 0, _shown(args.json, {"count": digits}, digits)


def cmd_convert(args) -> tuple[int, str]:
    tree = documents.parse_tree(_read(args.file))
    return 0, documents.emit_binary_tree(trees.mary_to_binary(tree))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _arg(*flags, one_of=False, **options):
    """One argument: its flags, its ``add_argument`` keywords, and whether it
    belongs to its subcommand's one required mutually exclusive group."""
    return flags, tuple(options.items()), one_of


def _ints(*flags):
    """Required int options."""
    return tuple(_arg(flag, type=int, required=True) for flag in flags)


_FILE = _arg("file")
_JSON = _arg("--json", action="store_true", help="machine-readable output")
_MODE = _arg("--mode", choices=("plane", "free"), default="plane")
_LAW_TABLE = _arg("--law-table")

# (name, help, handler, arguments in help order) per subcommand
COMMANDS = (
    ("validate", "check a diagram document against the laws", cmd_validate,
     (_FILE, _arg("--k", type=int, default=1, help="branching budget (degree bound k+2)"),
      _arg("--law-table", help="JSON law-table override"), _JSON)),
    ("enumerate", "enumerate or count admissible colored trees", cmd_enumerate,
     (*_ints("--k", "--d", "--n"), _MODE,
      _arg("--emit", choices=("counts", "csv", "json", "dot"), default="counts",
           help="csv is an alias for counts"),
      _arg("--limit", type=int), _LAW_TABLE)),
    ("ratio", "count ratios across branching budgets", cmd_ratio,
     (*_ints("--k1", "--k2", "--d", "--n-max"), _MODE, _LAW_TABLE, _JSON)),
    ("share", "count ratios across dimensions", cmd_share,
     (*_ints("--k", "--d1", "--d2", "--n-max"), _MODE, _JSON)),
    ("classify", "graph-class facts for a graph document", cmd_classify, (_FILE, _JSON)),
    ("spanning", "spanning-tree counts", cmd_spanning,
     (_FILE, _arg("--method", choices=("kirchhoff", "brute", "tutte"), default="kirchhoff"),
      _JSON)),
    ("repr", "star/clique representation or line graph", cmd_repr,
     (_FILE, _arg("--star", action="store_true", one_of=True),
      _arg("--clique", action="store_true", one_of=True),
      _arg("--line", action="store_true", one_of=True, help="line graph of a graph document"),
      _arg("--emit", choices=("dot", "json"), default="dot"))),
    ("matroid", "matroid checks from a bases document", cmd_matroid,
     (_FILE, _arg("--vamos-minor", action="store_true",
                  help="search for a Vamos minor (exit 1 when present)"), _JSON)),
    ("count", "closed-form counting formulas", cmd_count,
     (_arg("--husimi", metavar="SPEC", one_of=True, help="block-size spec, e.g. 2=1,3=2"),
      _arg("--cactus", metavar="SPEC", one_of=True, help="polygon-size spec, e.g. 3=2"),
      _arg("--kary", nargs=2, metavar=("K", "N"), one_of=True), _JSON)),
    ("convert", "ordered tree to binary tree", cmd_convert, (_FILE,)),
)


def _fill(parser: argparse.ArgumentParser, command) -> argparse.ArgumentParser:
    """Add one ``COMMANDS`` row's arguments and handler to ``parser``."""
    _, _, handler, arguments = command
    group = None
    for flags, options, one_of in arguments:
        if one_of and group is None:
            group = parser.add_mutually_exclusive_group(required=True)
        (group if one_of else parser).add_argument(*flags, **dict(options))
    parser.set_defaults(func=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, for top-level help and errors."""
    p = argparse.ArgumentParser(prog="bifgraph",
                                description="Bifurcation-diagram graph toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        _fill(sub.add_parser(command[0], help=command[1]), command)
    return p


def _run(args) -> int:
    """Call the parsed subcommand's handler and write its stdout; its exit code."""
    code, out = args.func(args)
    (sys.stdout.write if isinstance(out, str) else sys.stdout.writelines)(out)
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a named subcommand gets a parser of its own, which prints what the full
    # parser's subparser would; anything else goes to the full parser
    name = argv[0] if argv else None
    command = next((c for c in COMMANDS if c[0] == name), None)
    if command is None:
        args = build_parser().parse_args(argv)
    else:
        parser = _fill(argparse.ArgumentParser(prog=f"bifgraph {command[0]}"), command)
        args, extra = parser.parse_known_args(argv[1:])
        if extra:  # the full parser reports these as bifgraph's own error
            args = build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout: the flush at exit goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    except (ValueError, EnumerationLimitError, OSError) as exc:
        # SchemaError, DiagramError and UsageError are ValueErrors too;
        # OSError covers missing, unreadable and directory paths
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
