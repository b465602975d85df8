"""Per-layer timings from one registry of rows.

Each row of a topic is a registry entry: the function, its input, and the
oracles from ``tests/helpers.py`` that it must agree with.  The script
times every row of one topic and writes ``BENCH_<topic>.json``:

    python3 scripts/bench_layers.py [--topic validate] [--out BENCH_validate.json]

Every row is timed by one rule.  The input is built before every call and
is not timed, so no call reuses what an earlier one memoised on its input
(a ``Matroid`` memoises on itself), and the functools caches of bifgraph
and of ``tests/helpers.py`` are emptied before every call.  One timed first
call sets how many calls a run averages: as many as last about ``CALL_S``.
Each call starts with the garbage collector's counts at zero, so a long
call's runs do not spread with the counts that earlier calls left.
A row records the median (and every run) of ``RUNS`` runs, in seconds as
measured (``median_s``, ``runs_s``) and at the reference speed of
``benchmarks/run.py`` (``median_ref_s``): each run divided by the mean time
of its calibration loop just before and just after it (``calibration_s``),
times ``CALIBRATION_S``.  A shared host's speed drifts, so only the
reference-speed values compare between records taken at different times.
A row with oracles is followed by each oracle's own row, timed the same
way on the same input: an oracle is the code the function replaced, so the
rows are the before and after.  The function and its oracles take turns
run by run, so each run of one has a run of each other next to it, under
the same drift of the machine's speed.  Every call of a row must give the
first call's result, each oracle must give the function's, and each row
records a short summary of its result.  After its timed runs, each
function and oracle makes one more call, untimed, on a freshly built input
with the caches emptied, traced by ``tracemalloc`` from just before to just
after it: ``retained_bytes`` is what the call left allocated, its result
included, once the garbage collector has run.  No timed call runs under
``tracemalloc``.

Topic ``validate``: diagram documents and validation.  ``parse_diagram``
runs on the JSON text of a 1,500-node admissible tree in dimension 4, of
a 1,200-node saddle-node ring and of the 30,000-vertex period-doubling
spine that CI validates, against ``eager_parse_diagram``;
``Diagram`` construction and ``validate_diagram`` (k = 3, against
``stepwise_validate_diagram``) on the tree; ``to_star`` on the tree, against
``branched_to_star``; ``check_cycle_parity`` on the ring;
``check_period_consistency`` on a 300-node period-labelled tree; the law
lookups ``splits_for_child_count`` of every child count up to 8 and parent
index in dimension 4, against the kind-keyed lookup
``kind_keyed_child_multisets`` it replaced, given the kind each child count
names.

Topic ``emit``: listing and writing trees, diagrams and graphs.
``enumerate_colored`` lists k=2 d=4 n=7 plane and k=1 d=4 n=9 free trees,
against ``cached_colored_trees``, the recursive lister that keeps every
smaller list in module-level caches;
``trees_json`` (against ``dumped_trees_json``) and ``trees_dot``
(against ``formatted_trees_dot``) write the rows of the k=2 d=4 n=5 plane
trees (``enumerate_rows``), each generator's chunks joined into its text,
and the oracles write the same trees as ``ColoredTree``s; both write the 20
plane listings of the ``emission`` workload of ``benchmarks/run.py``
(``emission_listings``), each as JSON and then as DOT, against the writers
they replaced, ``joined_trees_json`` and ``joined_trees_dot`` (which read
``ColoredTree``s), and ``reindented_trees_json`` and ``walked_trees_dot``.
``listed_and_written`` runs those 20 listings as the CLI's ``enumerate
--emit json|dot`` does, listing rows and writing them, against
``enumerate_colored`` and the joined writers, the path before rows.
``emit_diagram`` (against ``dumped_diagram``) writes the 1,500-node tree
diagram and ``emit_graph`` (against ``dumped_graph``) its clique graph.
The last three rows list the two 3,000-node paths of a law table holding
only the saddle-node entries, in free mode, and list two 400-node paths
and write them as JSON, against ``joined_trees_json``.

Topic ``graphs``: the graph and tree-shape catalogs, and the intersection
graphs.  ``all_graphs`` (n = 5, 6) and ``connected_graphs`` (n = 6) against
``swept_all_graphs``, which pushes every new orbit representative through
each vertex permutation one edge bit at a time; the free shape count (k = 3,
n = 17 against ``listed_free_shape_count``, which lists the shapes; n = 60
alone); ``canonical_trees`` (n = 14, and n = 16 with at most 4 children) and
``free_trees`` (n = 14) against ``cached_canonical_trees`` and
``cached_free_trees``, which list through module-level caches;
``slot_trees`` (arity 3, n = 9) against ``cached_slot_trees``, the cached
recursive lister; ``canonical_trees`` of the one 3,000-node path (at most
one child), whose row compares the sizes of the trees listed.
``graphs_isomorphic`` on two seeded relabelings of a 300-vertex path plus
150 chords, against ``recursive_graphs_isomorphic``, which backtracks by
recursion, and alone on a 600-vertex path and a seeded relabeling of it,
where colour refinement takes one round per vertex.  The search maps the
unrelabeled path from one end; between two relabelings of the path it
backtracks over the path's mirror images and ran for minutes.  The
intersection graphs pair the members at each shared point; their oracles
test every pair: ``line_graph`` on a 1,000-vertex path plus 500 seeded
random chords against ``pairwise_line_graph``, and alone on an 8,000-vertex
path plus 4,000 chords; ``block_intersection_graph`` on a 4,000-vertex path
against ``pairwise_block_intersection_graph``; ``to_clique`` on the
1,500-node tree diagram against ``looped_to_clique``, which adds each pair to
a set.

Topic ``minors``: the two forbidden-minor tests, and the block
decomposition that the diamond test reads.  ``has_diamond_minor`` on the
cycles C8 and C9, against the brute-force ``searched_diamond_minor``,
which finishes only that small, and alone on C2000 and a chain of
triangles on 2,000 vertices; ``block_decomposition`` on the same two
graphs, against ``tracked_block_decomposition``, which tracks the cut
vertices during the search instead of reading them off the blocks;
``has_vamos_minor`` on the graphic matroid of K6, of a seeded 11-edge
graph on 6 vertices (the shape of the benchmark's slowest ``structures``
jobs) and on the Vamos matroid plus 3 coloops, against
``contracted_vamos_minor``, which lists each contraction's triples and
quadruples again (the search before the subset levels), the restriction
sweep ``swept_vamos_minor`` and the split search ``searched_vamos_minor``.
The coloops are added once through a ``Matroid`` oracle on frozensets, as
a user writes one, and once through ``from_bases``, whose oracle answers
on masks.  On the uniform matroid U(7,15) from ``from_bases`` (6,435
bases) it runs against ``contracted_vamos_minor`` alone: the other two
take minutes there.  ``from_bases`` itself, with the rank of what it
builds, runs on the bases of the Vamos matroid with 0 and 3 coloops and of
U(7,15), against ``set_from_bases``, which checks basis exchange and
answers on frozensets, and ``scanned_from_bases``, which tests every fill
against every basis mask and scans the bases on each query (the version
before the holder bitsets).

Topic ``spanning``: the spanning-tree counts.  ``tutte_11`` on K6 and on
two disjoint copies of C5, against ``relabeled_tutte_11``, which relabels
each component and each contraction to consecutive vertices;
``spanning_count_kirchhoff`` on K30, and on two disjoint copies of K15,
where the connectivity check answers before any determinant.

Topic ``count``: the count engine.  ``count_sequence`` in plane mode for
k=1 d=4 at n = 100, 220 and 1,000, k=2 d=4 at n = 200 and k=2 d=2 at
n = 400, and in free mode for k=2 d=4 at n = 400, each against
``prefix_count_sequence``, the engine that took one product per power and
prefix of each rule before it took the factor A_root out of a root's rules,
and ``per_color_count_sequence``, the engine that filled one series per
color before colors with equal series were merged into one class.  In
d = 2 no two colors merge, and color 0 has no rules.  ``count_colored`` at
k=3 d=2 n=6 and k=1 d=1 n=3, where the per-call set-up (law rules,
classes, plan) is most of the time.

Topic ``cli``: ``bifgraph.cli.main``, which builds only the named
subcommand's parser, on one command line per subcommand and on
``enumerate --k 1 --d 4 --n 220``, the largest counts job of the
benchmark's ``counting`` workload, which writes 220 count rows, against
``through_the_full_parser``, the same call through the parser of every
subcommand (how every call was parsed before the subcommand table), run
by ``cli._run`` as ``main`` runs it.  Both print to a buffer, and must
print the same bytes and return the same exit code.  The documents a
command line names are written to a temporary working directory before
each call.  The last rows build each subcommand's own parser
(``single_parser``) and the full parser (``build_parser``) alone.

Topic ``import``: cold start.  Each row is one fresh ``python`` process
that imports bifgraph from ``src/`` (``PYTHONPATH=src``) and writes
bytecode, which the untimed first call leaves in place: ``pass`` alone
(the interpreter's floor), ``import bifgraph``, the benchmark's set-up
(``import bifgraph`` and ``builtin_table(d)`` for d = 1..4), and
``bifgraph count --kary 3 10`` and ``bifgraph validate`` on a small
diagram through ``python -m bifgraph.cli``.  With ``--against DIR``, a
checkout of another commit, each row is followed by the same process on
``DIR/src``, which must give the same exit code and stdout:

    python3 scripts/bench_layers.py --topic import --against ../parent

In any other topic, ``--against DIR`` loads ``DIR/src/bifgraph`` beside
this bifgraph, as the package ``bifgraph_against``, and gives each row whose
function is a name of bifgraph one more oracle, first: that name of the
other package, recorded as ``<name> at <commit of DIR>``.  It takes turns
with the function run by run, as every oracle does, so the two compare
under the same drift.  Its input is moved into the other package's classes
(``TERMINAL`` included) and its result back into bifgraph's, by pickling,
outside the timed call, so the two results compare as values.  A row with
``of`` gets ``of(bifgraph_against, name)`` as that oracle instead, given
the row's input as it is: the tree writers read trees only through their
fields, and a listing moved by pickling would lose the subtrees its trees
share, which the writers reuse:

    python3 scripts/bench_layers.py --topic count --against ../parent
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import io
import json
import os
import pickle
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import dataclass, replace
from itertools import combinations
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "benchmarks")]

import bifgraph as bg  # noqa: E402
import helpers  # noqa: E402
from bifgraph import cli  # noqa: E402
from bifgraph.diagram import PeriodReport  # noqa: E402
from bifgraph.documents import trees_dot, trees_json  # noqa: E402
from bifgraph.enumeration import enumerate_rows  # noqa: E402
import inputs  # noqa: E402
from run import CALIBRATION_S, calibration_loop  # noqa: E402
from helpers import (  # noqa: E402
    branched_to_star, cached_canonical_trees, cached_colored_trees, cached_free_trees,
    cached_slot_trees, contracted_vamos_minor, disjoint_union, dumped_diagram, dumped_graph,
    dumped_trees_json, eager_parse_diagram, formatted_trees_dot, joined_trees_dot,
    joined_trees_json, kind_keyed_child_multisets, looped_to_clique,
    pairwise_block_intersection_graph, pairwise_line_graph,
    per_color_count_sequence, period_labelled, prefix_count_sequence, recursive_graphs_isomorphic,
    reindented_trees_json, relabeled_tutte_11, scanned_from_bases, searched_diamond_minor,
    searched_vamos_minor,
    set_from_bases, sn_cycle, stepwise_validate_diagram, swept_all_graphs, swept_vamos_minor,
    tracked_block_decomposition, triangle_cactus, vamos_bases, walked_trees_dot,
)

RUNS = 5
CALL_S = 0.01  # about how long one run lasts


@dataclass(frozen=True)
class Row:
    """One registry entry: ``fn(*args())`` is timed, ``args()`` built
    before every call.  ``of(package, name)``, when given, is the row's
    function in another bifgraph package, named ``name``, for ``--against``."""

    fn: Callable
    input: str
    args: Callable[[], tuple]
    oracles: tuple[Callable, ...] = ()
    of: Callable | None = None


def clear_caches() -> None:
    for name, mod in list(sys.modules.items()):
        if name.partition(".")[0] in ("bifgraph", "bifgraph_against", "helpers"):
            for fn in vars(mod).values():
                if hasattr(fn, "cache_clear"):
                    fn.cache_clear()


# -- inputs and adapters: validate and emit ------------------------------------

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


def spine_document(n: int) -> str:
    """The JSON text of the period-doubling spine that CI validates in
    dimension 1: vertex v{i} doubles edge e{i} into the terminal index-0
    branch z{i} and the index-1 edge e{i+1}, and the last e{n} is terminal."""
    edges = [{"id": "e0", "index": 1, "endpoints": ["terminal", "v0"]}]
    for i in range(n):
        edges += [{"id": f"z{i}", "index": 0, "endpoints": [f"v{i}", "terminal"]},
                  {"id": f"e{i + 1}", "index": 1,
                   "endpoints": [f"v{i}", f"v{i + 1}" if i + 1 < n else "terminal"]}]
    vertices = [{"id": f"v{i}", "kind": "period_doubling", "parentEdge": f"e{i}"}
                for i in range(n)]
    return json.dumps({"schemaVersion": "1", "dimension": 1, "edges": edges,
                       "vertices": vertices})


LOOKUPS = [(c, parent) for c in range(1, 9) for parent in (-1, 0, 1)]


def every_split(table: bg.LawTable) -> dict:
    """``splits_for_child_count`` on every (child count, parent) of ``LOOKUPS``."""
    return {key: bg.splits_for_child_count(table, *key) for key in LOOKUPS}


def kind_keyed_every_split(table: bg.LawTable) -> dict:
    """``every_split`` through ``kind_keyed_child_multisets``, given the
    kind each child count names."""
    return {(c, parent): kind_keyed_child_multisets(table, bg.kind_for_child_count(c), parent)
            for c, parent in LOOKUPS}


SADDLE_NODES_ONLY = {"schemaVersion": "1", "dimension": 1, "mode": "replace", "entries": [
    {"kind": "saddle_node", "parent": 1, "children": [-1]},
    {"kind": "saddle_node", "parent": -1, "children": [1]}]}


def saddle_node_paths(n: int) -> bg.EnumerationSpec:
    return bg.EnumerationSpec(1, 1, n, "free", bg.load_law_table(SADDLE_NODES_ONLY))


def listed(spec: bg.EnumerationSpec) -> tuple:
    """The row table, listed row ids and listed trees of one spec: the input
    of a writer row, whose row writers read the table and whose oracles the
    trees."""
    return (*enumerate_rows(spec), bg.enumerate_colored(spec))


def of_rows(write: Callable) -> Callable:
    """``write(table, listed)`` as a function of a ``listed`` input that
    returns the joined text."""
    def text(table, listed, trees) -> str:
        return "".join(write(table, listed))

    text.__name__ = write.__name__
    return text


def of_trees(write: Callable) -> Callable:
    """``write(trees)`` as a function of a ``listed`` input that returns the
    joined text."""
    def text(table, listed, trees) -> str:
        return "".join(write(trees))

    text.__name__ = write.__name__
    return text


def emission_specs() -> tuple:
    """(k, d, n) of the plane listings of the ``emission`` workload's
    ``enum_json`` jobs (its ``enum_dot`` jobs list the same): k = 1, 2,
    d = 1..4, n = 4..6, and n = 4, 5 at k = 2."""
    return tuple((job["k"], job["d"], job["n"])
                 for job in inputs.emission_jobs(random.Random(0)) if job["family"] == "enum_json")


def emission_listings() -> tuple:
    """Each of ``emission_specs`` as a ``listed`` input."""
    return tuple(listed(bg.EnumerationSpec(*spec)) for spec in emission_specs())


def emitted(trees_json: Callable, trees_dot: Callable, name: str, write=of_rows):
    """A function of ``listed`` inputs that writes each as JSON and then as
    DOT with these two writers, taken by ``write`` (``of_rows`` or
    ``of_trees``), and returns the texts joined; named ``name``."""
    writers = write(trees_json), write(trees_dot)

    def emit(listings) -> str:
        return "".join([w(*listing) for listing in listings for w in writers])

    emit.__name__ = name
    return emit


def listed_and_written(specs) -> str:
    """The ``emission`` workload's ``enum_json`` and ``enum_dot`` jobs as the
    CLI runs them: for each (k, d, n) and each writer, the rows listed by
    ``enumerate_rows`` and then written; the texts joined."""
    chunks: list = []
    for k, d, n in specs:
        for write in (trees_json, trees_dot):
            chunks += write(*enumerate_rows(bg.EnumerationSpec(k, d, n)))
    return "".join(chunks)


def colored_and_written(package, trees_json: Callable, trees_dot: Callable, name: str):
    """``listed_and_written`` as the CLI ran before rows: ``ColoredTree``s
    listed by ``package.enumerate_colored`` and written by these writers;
    named ``name``."""
    def run(specs) -> str:
        chunks: list = []
        for k, d, n in specs:
            for write in (trees_json, trees_dot):
                chunks += write(package.enumerate_colored(package.EnumerationSpec(k, d, n)))
        return "".join(chunks)

    run.__name__ = name
    return run


# -- inputs and adapters: graphs and minors ------------------------------------

def swept_connected_graphs(n: int) -> tuple:
    return tuple(g for g in swept_all_graphs(n) if g.is_connected())


def path_with_chords(n: int) -> bg.SimpleGraph:
    """A path on n vertices plus n/2 chords between seeded random vertices."""
    rng = random.Random(n)
    chords = [rng.sample(range(n), 2) for _ in range(n // 2)]
    return bg.SimpleGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)] + chords)


def relabeled(g: bg.SimpleGraph, seed: int) -> bg.SimpleGraph:
    """g with its vertices renumbered by a seeded random permutation."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return bg.SimpleGraph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def sizes_of(lister: Callable) -> Callable:
    """``lister(*args)`` as a function that returns the size of each tree
    it lists: two separately built deep trees cannot be compared."""
    def sizes(*args) -> tuple:
        return tuple(map(bg.tree_size, lister(*args)))

    sizes.__name__ = lister.__name__
    return sizes


def listed_free_shape_count(k: int, n: int, mode: str) -> int:
    """``helpers.listed_free_shape_count`` called as ``count_shapes`` is, in
    free mode."""
    return helpers.listed_free_shape_count(k, n)


def vamos_with_coloops(k: int) -> bg.Matroid:
    base = bg.vamos()
    extra = tuple(f"z{i}" for i in range(k))
    return bg.Matroid(base.ground + extra,
                      lambda s: base.is_independent(s - set(extra)), name="vamos+coloops")


def uniform_bases(r: int, n: int) -> tuple:
    """Ground set and bases of the uniform matroid U(r, n): every r-set."""
    return tuple(range(n)), list(combinations(range(n), r))


def graphic_on_six(edges: int, seed: int) -> bg.Matroid:
    """Graphic matroid of ``edges`` seeded random edges of K6; K6 is
    5-edge-connected, so at least 11 of them span it."""
    pairs = list(combinations(range(6), 2))
    return bg.graphic_matroid(bg.SimpleGraph.from_edges(6, random.Random(seed).sample(pairs, edges)))


def rank_of_built(build: Callable) -> Callable:
    """``build(ground, bases)`` as a function that returns the rank of the
    matroid it builds."""
    def rank(ground, bases) -> int:
        return build(ground, bases).rank

    rank.__name__ = build.__name__
    return rank


# -- inputs and adapters: cli --------------------------------------------------

DOCUMENTS = {
    "diagram.json": bg.emit_diagram(bg.nonadmissible_period_fixture()),
    "graph.json": json.dumps({"vertexCount": 4, "edges": [
        [0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]}),
    "matroid.json": json.dumps({"groundSet": ["a", "b", "c", "d"], "bases": [
        ["a", "b"], ["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"], ["c", "d"]]}),
    "tree.json": "[[], [[]], []]",
}

COMMAND_LINES = (
    "validate diagram.json --k 1", "enumerate --k 1 --d 4 --n 6",
    "enumerate --k 1 --d 4 --n 220",
    "ratio --k1 1 --k2 2 --d 4 --n-max 10", "share --k 1 --d1 2 --d2 3 --n-max 10",
    "classify graph.json", "spanning graph.json", "repr diagram.json --star",
    "matroid matroid.json", "count --kary 3 10", "convert tree.json",
)


def written(argv: Sequence[str]) -> Sequence[str]:
    """``argv``, once each document it names is written to the working
    directory."""
    for name in DOCUMENTS.keys() & set(argv):
        Path(name).write_text(DOCUMENTS[name], encoding="utf-8")
    return argv


def command(line: str) -> Callable[[], tuple]:
    """The input of a ``cli`` row: the argv of ``line``."""
    return lambda: (written(line.split()),)


class Printed(NamedTuple):
    code: int
    out: str


def printed(run: Callable) -> Callable:
    """``run(argv)`` as a function that returns its exit code and stdout."""
    def call(argv) -> Printed:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run(argv)
        return Printed(code, out.getvalue())

    call.__name__ = run.__name__
    return call


def through_the_full_parser(argv) -> int:
    return cli._run(cli.build_parser().parse_args(argv))


def single_parser(command) -> str:
    """One subcommand's parser, built as ``main`` builds it; its name."""
    return cli._fill(argparse.ArgumentParser(prog=f"bifgraph {command[0]}"), command).prog


def build_parser() -> str:
    """The parser of every subcommand; its name."""
    return cli.build_parser().prog


# -- inputs and adapters: import ----------------------------------------------

SETUP = "import bifgraph\nfor d in (1, 2, 3, 4):\n    bifgraph.builtin_table(d)"

PROCESSES = (
    ("pass", ("-c", "pass")),
    ("import bifgraph", ("-c", "import bifgraph")),
    ("import bifgraph; builtin_table(d), d = 1..4", ("-c", SETUP)),
    ("bifgraph count --kary 3 10", ("-m", "bifgraph.cli", "count", "--kary", "3", "10")),
    ("bifgraph validate diagram.json", ("-m", "bifgraph.cli", "validate", "diagram.json")),
)


def fresh_python(src: Path, name: str = "python") -> Callable:
    """``python *argv`` as a function of argv that returns the exit code
    and stdout of a fresh interpreter importing bifgraph from ``src`` and
    writing bytecode."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(src)

    def python(*argv) -> Printed:
        done = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                              timeout=60)
        return Printed(done.returncode, done.stdout)

    python.__name__ = name
    return python


def summary(value) -> str:
    if isinstance(value, int):  # a count or a minor test
        return str(value)
    if isinstance(value, str):
        return f"{len(value)} chars"
    if isinstance(value, Printed):
        return f"exit {value.code}, {len(value.out)} chars"
    if type(value) is list and value and type(value[-1]) is int:  # a count sequence
        return f"{len(value)} counts, the last of {value[-1].bit_length()} bits"
    if type(value) is tuple:  # a listing
        return f"{len(value)} listed"
    if isinstance(value, bg.Diagram):
        return f"{len(value.edges)} edges, {len(value.vertices)} vertices"
    if isinstance(value, bg.ValidationReport):
        return f"{len(value.violations)} violations"
    if isinstance(value, bg.SimpleGraph):
        return f"{value.n} vertices, {len(value.edges)} edges"
    if isinstance(value, bg.BlockDecomposition):
        return f"{len(value.blocks)} blocks, {len(value.cut_vertices)} cut vertices"
    if isinstance(value, dict):  # every law lookup
        return f"{len(value)} lookups, {sum(map(len, value.values()))} child multisets"
    if isinstance(value, PeriodReport):
        return f"{len(value.violations)} period violations"
    return f"{len(value)} cycles, {sum(not c.ok for c in value)} failing"  # check_cycle_parity


VAMOS_ORACLES = (contracted_vamos_minor, swept_vamos_minor, searched_vamos_minor)

TOPICS = {
    "validate": (
        Row(bg.parse_diagram, "1,500-node tree document",
            lambda: (bg.emit_diagram(tree_diagram(1500)),), (eager_parse_diagram,)),
        Row(bg.parse_diagram, "1,200-node saddle-node ring document",
            lambda: (bg.emit_diagram(ring(1200)),), (eager_parse_diagram,)),
        Row(bg.parse_diagram, "30,000-vertex spine document",
            lambda: (spine_document(30000),), (eager_parse_diagram,)),
        Row(bg.Diagram, "1,500-node tree", lambda: diagram_fields(tree_diagram(1500))),
        Row(bg.validate_diagram, "1,500-node tree, k=3",
            lambda: (tree_diagram(1500), 3, bg.builtin_table(4)), (stepwise_validate_diagram,)),
        Row(bg.to_star, "1,500-node tree", lambda: (tree_diagram(1500),), (branched_to_star,)),
        Row(bg.check_cycle_parity, "1,200-node saddle-node ring", lambda: (ring(1200),)),
        Row(bg.check_period_consistency, "300-node period-labelled tree",
            lambda: (period_labelled(random.Random(300), tree_diagram(300)),)),
        Row(every_split, "builtin_table(4), c <= 8", lambda: (bg.builtin_table(4),),
            (kind_keyed_every_split,)),
    ),
    "emit": (
        Row(bg.enumerate_colored, "k=2 d=4 n=7 plane", lambda: (bg.EnumerationSpec(2, 4, 7),),
            (cached_colored_trees,)),
        Row(bg.enumerate_colored, "k=1 d=4 n=9 free",
            lambda: (bg.EnumerationSpec(1, 4, 9, "free"),), (cached_colored_trees,)),
        Row(of_rows(trees_json), "k=2 d=4 n=5 plane trees",
            lambda: listed(bg.EnumerationSpec(2, 4, 5)), (of_trees(dumped_trees_json),)),
        Row(of_rows(trees_dot), "k=2 d=4 n=5 plane trees",
            lambda: listed(bg.EnumerationSpec(2, 4, 5)), (of_trees(formatted_trees_dot),)),
        Row(emitted(trees_json, trees_dot, "trees_json + trees_dot"),
            "the emission workload's 20 plane listings", lambda: (emission_listings(),),
            (emitted(joined_trees_json, joined_trees_dot, "joined, of trees", of_trees),
             emitted(reindented_trees_json, walked_trees_dot, "reindented + walked", of_trees)),
            lambda package, name: emitted(package.documents.trees_json,
                                          package.documents.trees_dot, name, of_trees)),
        Row(listed_and_written, "the emission workload's 20 plane listings, listed",
            lambda: (emission_specs(),),
            (colored_and_written(bg, joined_trees_json, joined_trees_dot,
                                 "enumerate_colored + joined"),),
            lambda package, name: colored_and_written(package, package.documents.trees_json,
                                                      package.documents.trees_dot, name)),
        Row(bg.emit_diagram, "1,500-node tree", lambda: (tree_diagram(1500),), (dumped_diagram,)),
        Row(bg.emit_graph, "clique graph of the 1,500-node tree",
            lambda: (bg.to_clique(tree_diagram(1500)),), (dumped_graph,)),
        Row(bg.enumerate_colored, "3,000-node saddle-node paths, free",
            lambda: (saddle_node_paths(3000),)),
        Row(bg.enumerate_colored, "400-node saddle-node paths, free",
            lambda: (saddle_node_paths(400),)),
        Row(of_rows(trees_json), "400-node saddle-node paths, free",
            lambda: listed(saddle_node_paths(400)),
            (of_trees(joined_trees_json),)),
    ),
    "graphs": (
        Row(bg.all_graphs, "5", lambda: (5,), (swept_all_graphs,)),
        Row(bg.all_graphs, "6", lambda: (6,), (swept_all_graphs,)),
        Row(bg.connected_graphs, "6", lambda: (6,), (swept_connected_graphs,)),
        Row(bg.count_shapes, "3, 17, 'free'", lambda: (3, 17, "free"),
            (listed_free_shape_count,)),
        Row(bg.count_shapes, "3, 60, 'free'", lambda: (3, 60, "free")),
        Row(bg.canonical_trees, "14", lambda: (14,), (cached_canonical_trees,)),
        Row(bg.canonical_trees, "16, 4", lambda: (16, 4), (cached_canonical_trees,)),
        Row(bg.free_trees, "14", lambda: (14,), (cached_free_trees,)),
        Row(bg.slot_trees, "3, 9", lambda: (3, 9), (cached_slot_trees,)),
        Row(sizes_of(bg.canonical_trees), "3000, 1", lambda: (3000, 1)),
        Row(bg.graphs_isomorphic, "relabeled path 300 + 150 chords, twice",
            lambda: (relabeled(path_with_chords(300), 1), relabeled(path_with_chords(300), 2)),
            (recursive_graphs_isomorphic,)),
        Row(bg.graphs_isomorphic, "path 600 and a relabeling",
            lambda: (bg.path_graph(600), relabeled(bg.path_graph(600), 1))),
        Row(bg.line_graph, "path 1000 + 500 chords", lambda: (path_with_chords(1000),),
            (pairwise_line_graph,)),
        Row(bg.line_graph, "path 8000 + 4000 chords", lambda: (path_with_chords(8000),)),
        Row(bg.block_intersection_graph, "path 4000", lambda: (bg.path_graph(4000),),
            (pairwise_block_intersection_graph,)),
        Row(bg.to_clique, "1,500-node tree", lambda: (tree_diagram(1500),), (looped_to_clique,)),
    ),
    "minors": (
        Row(bg.has_diamond_minor, "C8", lambda: (bg.cycle_graph(8),), (searched_diamond_minor,)),
        Row(bg.has_diamond_minor, "C9", lambda: (bg.cycle_graph(9),), (searched_diamond_minor,)),
        Row(bg.has_diamond_minor, "C2000", lambda: (bg.cycle_graph(2000),)),
        Row(bg.has_diamond_minor, "triangle cactus, 2000 vertices",
            lambda: (triangle_cactus(2000),)),
        Row(bg.block_decomposition, "C2000", lambda: (bg.cycle_graph(2000),),
            (tracked_block_decomposition,)),
        Row(bg.block_decomposition, "triangle cactus, 2000 vertices",
            lambda: (triangle_cactus(2000),), (tracked_block_decomposition,)),
        Row(bg.has_vamos_minor, "graphic K6",
            lambda: (bg.graphic_matroid(bg.complete_graph(6)),), VAMOS_ORACLES),
        Row(bg.has_vamos_minor, "graphic, 11 edges on 6 vertices",
            lambda: (graphic_on_six(11, 11),), VAMOS_ORACLES),
        Row(bg.has_vamos_minor, "vamos + 3 coloops", lambda: (vamos_with_coloops(3),),
            VAMOS_ORACLES),
        Row(bg.has_vamos_minor, "vamos + 3 coloops, from bases",
            lambda: (bg.from_bases(*vamos_bases(3)),), VAMOS_ORACLES),
        Row(bg.has_vamos_minor, "U(7,15), from bases",
            lambda: (bg.from_bases(*uniform_bases(7, 15)),), (contracted_vamos_minor,)),
        *(Row(rank_of_built(bg.from_bases), label, bases,
              (rank_of_built(set_from_bases), rank_of_built(scanned_from_bases)))
          for label, bases in (("vamos bases", lambda: vamos_bases(0)),
                               ("vamos + 3 coloops bases", lambda: vamos_bases(3)),
                               ("U(7,15) bases", lambda: uniform_bases(7, 15)))),
    ),
    "spanning": (
        Row(bg.tutte_11, "K6", lambda: (bg.complete_graph(6),), (relabeled_tutte_11,)),
        Row(bg.tutte_11, "C5 + C5",
            lambda: (disjoint_union(bg.cycle_graph(5), bg.cycle_graph(5)),), (relabeled_tutte_11,)),
        Row(bg.spanning_count_kirchhoff, "K30", lambda: (bg.complete_graph(30),)),
        Row(bg.spanning_count_kirchhoff, "K15 + K15",
            lambda: (disjoint_union(bg.complete_graph(15), bg.complete_graph(15)),)),
    ),
    "count": (
        *(Row(bg.count_sequence, f"k={k} d={d} n={n} {mode}", lambda a=(k, d, n, mode): a,
              (prefix_count_sequence, per_color_count_sequence))
          for k, d, n, mode in ((1, 4, 100, "plane"), (1, 4, 220, "plane"), (1, 4, 1000, "plane"),
                                (2, 4, 200, "plane"), (2, 4, 400, "free"), (2, 2, 400, "plane"))),
        *(Row(bg.count_colored, f"k={k} d={d} n={n} plane", lambda a=(k, d, n): a)
          for k, d, n in ((3, 2, 6), (1, 1, 3))),
    ),
    "cli": (
        *(Row(printed(cli.main), line, command(line), (printed(through_the_full_parser),))
          for line in COMMAND_LINES),
        *(Row(single_parser, c[0], lambda c=c: (c,)) for c in cli.COMMANDS),
        Row(build_parser, "all", lambda: ()),
    ),
    "import": tuple(Row(fresh_python(ROOT / "src"), label, lambda argv=argv: written(argv))
                    for label, argv in PROCESSES),
}


def timed(fn, args: Callable[[], tuple]) -> tuple[float, object]:
    """One call on a freshly built input, with the caches emptied.  The
    garbage collector skips the objects alive before the call
    (``gc.freeze``), as in a fresh process: otherwise the results kept from
    earlier calls make its passes, and the call, slower.  It also starts
    the call with no pending counts (``gc.collect`` of the then empty
    generations), so how often it runs within a call does not depend on
    the calls before; the counts those left made a 0.5 s call's runs spread
    widely."""
    inputs = moved_for(fn, args())
    clear_caches()
    gc.freeze()
    gc.collect()
    start = time.perf_counter()
    result = fn(*inputs)
    elapsed = time.perf_counter() - start
    gc.unfreeze()
    return elapsed, moved(result, OTHER, "bifgraph") if is_beside(fn) else result


def retained(fn, args: Callable[[], tuple]) -> int:
    """Bytes that one call on a freshly built input, with the caches
    emptied, leaves allocated (its result included), by ``tracemalloc``
    traced around the call alone."""
    inputs = moved_for(fn, args())
    clear_caches()
    gc.collect()
    tracemalloc.start()
    result = fn(*inputs)  # alive until measured: what it holds counts
    gc.collect()
    size = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    return size


def calibration() -> float:
    """Seconds of one run of the calibration loop of ``benchmarks/run.py``."""
    start = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - start


def time_row(row: Row) -> list[dict]:
    """The timing record of the row's function and of each of its oracles:
    ``RUNS`` runs each, taken in turn run by run, each run the mean of as
    many calls as the first call says last about ``CALL_S`` and each with
    the mean calibration time around it.  Every call must give its first
    call's result, and each oracle's first call the function's.  Then one
    untimed call of each records the bytes it retains."""
    fns = (row.fn, *row.oracles)
    firsts = [timed(fn, row.args) for fn in fns]
    for fn, (_, result) in zip(fns, firsts):
        if result != firsts[0][1]:
            raise SystemExit(f"{fn.__name__} differs from {row.fn.__name__} on {row.input}")
    calls = [max(1, round(CALL_S / first)) for first, _ in firsts]
    means, calibrations = [[] for _ in fns], [[] for _ in fns]
    before = calibration()
    for _ in range(RUNS):
        for i, fn in enumerate(fns):
            total = 0.0
            for _ in range(calls[i]):
                elapsed, got = timed(fn, row.args)
                if got != firsts[i][1]:
                    raise SystemExit(f"{fn.__name__} gave different results on one input")
                total += elapsed
            after = calibration()
            means[i].append(total / calls[i])
            calibrations[i].append((before + after) / 2)
            before = after
    return [{"median_s": statistics.median(runs),
             "median_ref_s": statistics.median(
                 mean / c * CALIBRATION_S for mean, c in zip(runs, around)),
             "runs_s": runs, "calibration_s": around, "calls": n_calls,
             "retained_bytes": retained(fn, row.args), "answer": summary(result)}
            for fn, runs, around, n_calls, (_, result)
            in zip(fns, means, calibrations, calls, firsts)]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--topic", choices=sorted(TOPICS), default="validate")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--against", type=Path, metavar="DIR",
                    help="a checkout of another commit, whose bifgraph each row is timed"
                         " against (topic import: in fresh processes)")
    args = ap.parse_args()
    out = (args.out or ROOT / f"BENCH_{args.topic}.json").resolve()
    topic = TOPICS[args.topic]
    against = args.against.resolve() if args.against else None
    if against and args.topic == "import":
        other = fresh_python(against / "src", f"python on {against.name}")
        topic = tuple(replace(row, oracles=(other,)) for row in topic)
    elif against:
        commit = subprocess.run(["git", "-C", str(against), "rev-parse", "--short", "HEAD"],
                                capture_output=True, text=True).stdout.strip() or against.name
        package = loaded_beside(against / "src" / "bifgraph")
        others = [counterpart(row, package, f"{row.fn.__name__} at {commit}") for row in topic]
        topic = tuple(replace(row, oracles=(other, *row.oracles)) if other else row
                      for row, other in zip(topic, others))

    rows = []
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)  # where the cli rows write their documents
        for row in topic:
            for fn, timing in zip((row.fn, *row.oracles), time_row(row)):
                rows.append({"function": fn.__name__, "input": row.input, **timing})
                print(f"{fn.__name__:26s} {row.input:38s} {timing['median_s']:11.6f} s"
                      f" {timing['median_ref_s']:11.6f} ref s"
                      f" {timing['retained_bytes'] / 1e6:9.3f} MB  -> {timing['answer']}")
        os.chdir(ROOT)
    record = {"topic": args.topic, "python": platform.python_version(),
              "platform": platform.platform(), "machine": platform.machine(),
              "cpus": os.cpu_count(), "runs": RUNS, "call_s": CALL_S,
              "calibration_ref_s": CALIBRATION_S, "rows": rows}
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


OTHER = "bifgraph_against"  # the package name of ``--against DIR``


def loaded_beside(package_dir: Path):
    """The package in ``package_dir``, imported as ``bifgraph_against``; its
    modules import each other relatively, so they stay apart from bifgraph."""
    spec = importlib.util.spec_from_file_location(
        OTHER, package_dir / "__init__.py",
        submodule_search_locations=[str(package_dir)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package
    spec.loader.exec_module(package)
    return package


def beside(fn: Callable, name: str) -> Callable:
    """``fn`` of the package of ``--against DIR`` as an oracle named ``name``,
    marked for ``is_beside``."""
    def call(*args):
        return fn(*args)

    call.__name__, call.beside = name, True
    return call


def counterpart(row: Row, package, name: str) -> Callable | None:
    """The row's function in ``package`` as an oracle named ``name``: that of
    ``row.of``, which reads this package's input as it is, or, when the row's
    function is a name of bifgraph, that name of ``package``, given its input
    moved into its classes (``beside``).  None for any other row."""
    if row.of:
        return row.of(package, name)
    if getattr(bg, row.fn.__name__, None) is row.fn:
        return beside(getattr(package, row.fn.__name__), name)
    return None


def is_beside(fn: Callable) -> bool:
    """True for an oracle of the package of ``--against DIR``."""
    return getattr(fn, "beside", False)


class _Moving(pickle.Unpickler):
    """Loads the classes of one package from another of the same layout."""

    def __init__(self, data: bytes, source: str, target: str):
        super().__init__(io.BytesIO(data))
        self.source, self.target = source, target

    def find_class(self, module: str, name: str):
        root, dot, rest = module.partition(".")
        return super().find_class(self.target + dot + rest if root == self.source else module,
                                  name)


class _Flat(pickle.Pickler):
    """Pickles each colored tree, of either package, as its class and the
    flat record of ``ColoredTree.__reduce__``: a package may pickle its
    trees through a helper the other lacks, or only by recursion, which a
    3,000-node path exceeds."""

    def reducer_override(self, obj):
        if type(obj).__name__ != "ColoredTree":
            return NotImplemented
        return rebuilt, (type(obj), *bg.ColoredTree.__reduce__(obj)[1])


def rebuilt(cls, record) -> object:
    """The tree of a flat record, built by ``cls``: its last entry."""
    built = []
    for color, kids, slots in record:
        built.append(cls(color, tuple(built[i] for i in kids), slots))
    return built[-1]


def moved(value, source: str, target: str):
    """``value`` with every object of package ``source`` rebuilt, by
    pickling, as the equal object of package ``target``."""
    data = io.BytesIO()
    _Flat(data).dump(value)
    return _Moving(data.getvalue(), source, target).load()


def moved_for(fn: Callable, inputs: tuple) -> tuple:
    """The inputs in the classes of ``fn``'s package."""
    return moved(inputs, "bifgraph", OTHER) if is_beside(fn) else inputs


if __name__ == "__main__":
    main()
