"""Shared builders and independent oracles for the test suite.

The oracles here deliberately take different routes from the library code
they check (mask sweeps, direct definitions) so each closed form or detector
is confirmed by a second, dumber computation.
"""

from __future__ import annotations

import csv
import io
import json
import random
import sys
from collections import Counter
from dataclasses import dataclass, fields, replace
from functools import lru_cache, partial
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb, factorial
from operator import attrgetter, mul

from hypothesis import strategies as st

from bifgraph import (
    TERMINAL, COLOR_OF, ColoredTree, ConservationCheck, Diagram, Edge, LawEntry, LawTable,
    Matroid, SimpleGraph, ValidationReport, Vertex, Violation, builtin_table, canonical_trees,
    check_cycle_parity, check_period_consistency, emit_dot, junction,
    junction_periods_consistent, kind_for_child_count, load_law_table, matroid_minor,
    period_doubling, saddle_node, splits_for_child_count, to_star, tree_size,
    tree_to_diagram, type_m,
)
from bifgraph.classes import BlockDecomposition, block_decomposition, has_diamond_subgraph
from bifgraph.documents import (
    SCHEMA_VERSION, _as_object, _expect, _graph_dot, _is_index, _is_int, _json_array,
    _tree_tail, kind_from_json,
)
from bifgraph.diagram import CycleCheck, PeriodReport, PeriodViolation, _saddle_node_cycles
from bifgraph.enumeration import _count_rules
from bifgraph.laws import (
    JUNCTION, PERIOD_DOUBLING, SADDLE_NODE, TYPE_M, _junction_children, check_index,
)
from bifgraph.graphs import _norm_edge, _refine_labels, graph_from_mask
from bifgraph.matroids import VAMOS_CIRCUIT_QUADS, VAMOS_GROUND, _on_masks
from bifgraph.represent import _branch_vertices
from bifgraph.spanning import _int_det, _laplacian
from bifgraph import trees
from bifgraph.trees import _classes, _fold, _tree_edges


def star_diagram(parent_index: int, child_indexes, parent_period=None,
                 child_periods=None, dimension=4, m=None) -> Diagram:
    """One bifurcation vertex with terminal far ends everywhere."""
    kind = kind_for_child_count(len(child_indexes))
    if kind.name == "type_m" and m is not None:
        kind = type_m(m)
    if kind.name == "saddle_node":
        edges = (Edge("p", parent_index, (TERMINAL, "v"), parent_period),
                 Edge("c0", child_indexes[0], ("v", TERMINAL),
                      None if child_periods is None else child_periods[0]))
        return Diagram(dimension, edges, (Vertex("v", kind),))
    edges = [Edge("p", parent_index, (TERMINAL, "v"), parent_period)]
    for i, ci in enumerate(child_indexes):
        period = None if child_periods is None else child_periods[i]
        edges.append(Edge(f"c{i}", ci, ("v", TERMINAL), period))
    return Diagram(dimension, tuple(edges), (Vertex("v", kind, "p"),))


def sn_cycle(dimension: int, colors) -> Diagram:
    """Cycle of saddle-node vertices with the given edge colors."""
    n = len(colors)
    edges = tuple(Edge(f"e{i}", colors[i], (f"v{i}", f"v{(i + 1) % n}"))
                  for i in range(n))
    verts = tuple(Vertex(f"v{i}", saddle_node()) for i in range(n))
    return Diagram(dimension, edges, verts)


def simple_cycles(diagram: Diagram):
    """Every vertex-simple cycle of a diagram's multigraph, including loops
    and parallel-edge 2-cycles, as (edge ids, vertex ids), by recursive
    search; exponential, so small diagrams only.

    Order: loops in edge order, parallel pairs by vertex pair, then longer
    cycles by least vertex, each read toward the smaller neighbour.
    """
    vids = sorted(v.id for v in diagram.vertices)
    between: dict[tuple[str, str], list[str]] = {}
    loops = []
    for e in diagram.edges:
        a, b = e.ends
        if a is TERMINAL or b is TERMINAL:
            continue
        if a == b:
            loops.append(e)
            continue
        key = (a, b) if str(a) <= str(b) else (b, a)
        between.setdefault(key, []).append(e.id)

    for e in loops:
        yield (e.id,), (e.ends[0],)
    for (a, b), eids in sorted(between.items()):
        for e1, e2 in combinations(sorted(eids), 2):
            yield (e1, e2), (a, b)

    neighbors: dict[str, set[str]] = {v: set() for v in vids}
    for (a, b) in between:
        neighbors[a].add(b)
        neighbors[b].add(a)

    def edges_between(u, w):
        key = (u, w) if str(u) <= str(w) else (w, u)
        return sorted(between.get(key, []))

    def extend(start, path, used_edges, visited):
        u = path[-1]
        for w in sorted(neighbors[u]):
            if w == start and len(path) >= 3:
                if path[1] < path[-1]:  # kill the reversed traversal
                    for eid in edges_between(u, start):
                        yield tuple(used_edges) + (eid,), tuple(path)
            elif w > start and w not in visited:
                for eid in edges_between(u, w):
                    yield from extend(start, path + [w], used_edges + [eid], visited | {w})

    for s in vids:
        yield from extend(s, [s], [], {s})


def saddle_node_cycles(diagram: Diagram) -> list:
    """The simple cycles whose vertices are all saddle nodes, in the order
    ``simple_cycles`` finds them."""
    saddle = {v.id for v in diagram.vertices if v.kind.name == "saddle_node"}
    return [(eids, vids) for eids, vids in simple_cycles(diagram)
            if set(vids) <= saddle]


def random_sn_doubling_diagram(rng: random.Random, max_vertices: int = 9) -> Diagram:
    """Random multigraph of saddle nodes (degree 2) and period doublings
    (degree 3), with loops, parallel edges and terminal ends, and vertex
    ids numbered so that string order differs from numeric order."""
    kinds = [rng.random() < 0.7 for _ in range(rng.randint(1, max_vertices))]
    names = [f"v{i}" for i in rng.sample(range(1, 2 * max_vertices), len(kinds))]
    stubs = [name for name, sn in zip(names, kinds) for _ in range(2 if sn else 3)]
    stubs += [TERMINAL] * rng.randint(0, 3)
    if len(stubs) % 2:
        stubs.append(TERMINAL)
    rng.shuffle(stubs)
    edges = tuple(Edge(f"e{i}", rng.choice((-1, 0, 1)), (stubs[2 * i], stubs[2 * i + 1]))
                  for i in range(len(stubs) // 2))
    vertices = []
    for name, sn in zip(names, kinds):
        if sn:
            vertices.append(Vertex(name, saddle_node()))
        else:
            parent = rng.choice([e.id for e in edges if name in e.ends])
            vertices.append(Vertex(name, period_doubling(), parent))
    return Diagram(rng.choice((2, 3)), edges, tuple(vertices))


def planted_index_fault(rng: random.Random, diagram: Diagram) -> Diagram:
    """The diagram with one edge, chosen at random, given another index."""
    edges = list(diagram.edges)
    i = rng.randrange(len(edges))
    edges[i] = replace(edges[i], index=rng.choice([c for c in (-1, 0, 1) if c != edges[i].index]))
    return Diagram(diagram.dimension, tuple(edges), diagram.vertices)


def sn_chain(dimension: int, colors) -> Diagram:
    """Path of saddle-node vertices with the given edge colors, both ends
    terminal."""
    n = len(colors)
    ends = [TERMINAL] + [f"v{i}" for i in range(n - 1)] + [TERMINAL]
    edges = tuple(Edge(f"e{i}", colors[i], (ends[i], ends[i + 1])) for i in range(n))
    return Diagram(dimension, edges, tuple(Vertex(f"v{i}", saddle_node()) for i in range(n - 1)))


def period_labelled(rng: random.Random, diagram: Diagram) -> Diagram:
    """A diagram from ``tree_to_diagram`` with lawful periods: the root
    branch at a random period, one child of each event at its parent's
    period and the others doubled or multiplied (type_m gets a random m).
    Vertices are listed parents first, so one pass labels them all."""
    period = {e.id: rng.choice((1, 2, 3)) for e in diagram.edges if e.ends[0] is TERMINAL}
    vertices = []
    for v in diagram.vertices:
        p = next(period[e.id] for e in diagram.edges if e.ends[1] == v.id)
        kids = [e.id for e in diagram.edges if e.ends[0] == v.id]
        if v.kind.name == "type_m":
            m = rng.randint(3, 5)
            factors = [1, m, m]
            v = Vertex(v.id, type_m(m), v.parent_edge)
        else:  # saddle node, doubling, or a junction's doubling chain
            factors = [1] + [2 ** i for i in range(1, len(kids))]
        rng.shuffle(factors)
        period.update((eid, p * f) for eid, f in zip(kids, factors))
        vertices.append(v)
    edges = tuple(replace(e, period=period[e.id]) for e in diagram.edges)
    return Diagram(diagram.dimension, edges, tuple(vertices))


def planted_period_fault(rng: random.Random, diagram: Diagram) -> Diagram:
    """The diagram with one edge, chosen at random, given another period."""
    edges = list(diagram.edges)
    i = rng.randrange(len(edges))
    edges[i] = replace(edges[i], period=rng.choice([p for p in range(1, 9)
                                                    if p != edges[i].period]))
    return Diagram(diagram.dimension, tuple(edges), diagram.vertices)


def colored_tree_graph(tree) -> SimpleGraph:
    """Star-representation graph of a ColoredTree, built directly."""
    nodes = []
    edges = []

    def walk(t, parent_pos):
        pos = len(nodes)
        nodes.append(t.color)
        if parent_pos is not None:
            edges.append((parent_pos, pos))
        for c in t.children:
            walk(c, pos)

    walk(tree, None)
    return SimpleGraph.from_edges(len(nodes), edges, nodes)


def random_connected_graph(rng: random.Random, n: int) -> SimpleGraph:
    """Random spanning tree plus random extra edges."""
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u = order[rng.randrange(i)]
        edges.add(tuple(sorted((u, order[i]))))
    for u, v in combinations(range(n), 2):
        if rng.random() < 0.3:
            edges.add((u, v))
    return SimpleGraph.from_edges(n, edges)


def random_graph(rng: random.Random, n: int, p: float) -> SimpleGraph:
    """Each of the n-choose-2 edges independently with probability p, so
    the graph may be disconnected."""
    return SimpleGraph.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def labeled_graphs(n: int):
    """Every labeled graph on n vertices, as an edge-set generator."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield [pairs[i] for i in range(len(pairs)) if mask >> i & 1]


def chunked_digits(x: int) -> str:
    """Decimal text of a nonnegative int of any length, written from base
    10**100 chunks, each short enough for ``str``."""
    chunks = []
    while True:
        x, low = divmod(x, 10 ** 100)
        chunks.append(low)
        if not x:
            break
    return str(chunks[-1]) + "".join(str(c).zfill(100) for c in reversed(chunks[:-1]))


def csv_written_counts(k: int, d: int, mode: str, counts) -> str:
    """``enumerate --emit counts`` text as the replaced ``CountTable.to_csv``
    wrote it: the header, then a row for each n = 1.. through ``csv.writer``,
    each count in ``chunked_digits``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k", "d", "n", "mode", "count"])
    writer.writerows([k, d, n, mode, chunked_digits(count)]
                     for n, count in enumerate(counts, start=1))
    return buf.getvalue()


# -- colored-tree counts ------------------------------------------------------

def _orderings(mset) -> int:
    out = factorial(len(mset))
    for c in Counter(mset).values():
        out //= factorial(c)
    return out


@lru_cache(maxsize=None)
def _forests(table: LawTable, arity: int, mset: tuple, total: int) -> int:
    """Plane forests on ``total`` nodes whose roots have the colors of
    ``mset`` in that order."""
    if not mset:
        return 1 if total == 0 else 0
    head, rest = mset[0], mset[1:]
    out = 0
    for s in range(1, total - len(rest) + 1):
        f = _plane_trees(table, arity, s, head)
        if f:
            out += f * _forests(table, arity, rest, total - s)
    return out


@lru_cache(maxsize=None)
def _plane_trees(table: LawTable, arity: int, n: int, color: int) -> int:
    if n == 1:
        return 1
    total = 0
    for c in range(1, min(arity, n - 1) + 1):
        for mset in splits_for_child_count(table, c, color):
            total += comb(arity, c) * _orderings(mset) * _forests(table, arity, mset, n - 1)
    return total


def plane_count(k: int, d: int, n: int, table: LawTable | None = None) -> int:
    """Admissible plane colored trees on n nodes by memoized top-down
    recursion over (size, root color) and ordered child colors."""
    table = table if table is not None else builtin_table(d)
    return sum(_plane_trees(table, k + 1, n, c) for c in (-1, 0, 1))


def _coefficient(s: list[int], t: list[int], n: int, j: int = 1) -> int:
    """Coefficient n of S(x^j) * T(x), where S has no constant term."""
    return sum(map(mul, s[1:n // j + 1], t[n - j::-j]))


def _prefix_series(rules: dict, n_max: int, plane: bool, coefficient=_coefficient) -> dict:
    """``{root: [coefficients 0..n_max]}``: every rule read as written, one
    product per power and per prefix of two or more factors of each rule,
    each taken by ``coefficient``.  See ``trees._count_series`` for the
    rules' format."""
    keys = [parts for rs in rules.values() for _, parts in rs]
    a = {root: [0, 1] for root in rules}
    series = {((h, 1),): a[h] for h in rules}
    series.update({((h, 0),): [1] + [0] * n_max for h in rules})
    powers = sorted({(h, j) for parts in keys for h, m in parts for j in range(2, m + 1)})
    products = sorted({parts[:i] for parts in keys for i in range(2, len(parts) + 1)}, key=len)
    series.update({key: [0] for key in [((h, m),) for h, m in powers] + products})
    for n in range(1, n_max):
        for h, m in powers:
            if plane:
                got = coefficient(a[h], series[((h, m - 1),)], n)
            else:
                got = sum(coefficient(a[h], series[((h, m - j),)], n, j)
                          for j in range(1, m + 1)) // m
            series[((h, m),)].append(got)
        for parts in products:
            series[parts].append(coefficient(series[parts[-1:]], series[parts[:-1]], n))
        for root, rs in rules.items():
            a[root].append(sum(weight * series[parts][n] for weight, parts in rs))
    return a


def per_color_count_series(rules: dict, n_max: int, plane: bool) -> list[int]:
    """The count engine before it merged roots into classes: one series per
    root, every rule read as written, products and powers over the roots
    themselves."""
    a = _prefix_series(rules, n_max, plane)
    return [sum(a[root][n] for root in rules) for n in range(1, n_max + 1)]


def prefix_count_series(rules: dict, n_max: int, plane: bool) -> list[int]:
    """The count engine before it planned its products: one series per class
    of ``trees._classes``, each rule of a representative a product of its
    powers and prefixes, with no factor taken out, each product taken by
    ``trees._coefficient``, which takes a square's cross terms once."""
    rep, quotient = _classes(rules, plane)
    a = _prefix_series(quotient, n_max, plane, trees._coefficient)
    size = Counter(rep.values())
    return [sum(size[root] * a[root][n] for root in quotient) for n in range(1, n_max + 1)]


def prefix_products(quotient: dict, plane: bool) -> float:
    """Full products per coefficient of ``prefix_count_series`` on rules
    read over classes: a square (of A_h, or of two equal factors) counts
    1/2, and a product with A_h = x, for a class h without rules, counts 0.
    Powers count as in plane mode in both modes."""
    idle = {h for h, rs in quotient.items() if not rs}
    keys = [parts for rs in quotient.values() for _, parts in rs]
    powers = {(h, j) for parts in keys for h, m in parts for j in range(2, m + 1)}
    products = {parts[:i] for parts in keys for i in range(2, len(parts) + 1)}
    total = sum(0 if h in idle else 0.5 if j == 2 else 1 for h, j in powers)
    for parts in products:
        if parts[-1][0] not in idle and any(h not in idle for h, _ in parts[:-1]):
            total += 0.5 if parts[:-1] == parts[-1:] else 1
    return total


def per_color_count_sequence(k: int, d: int, n_max: int, mode: str = "plane",
                             table: LawTable | None = None) -> list[int]:
    """``count_sequence`` on the per-color engine ``per_color_count_series``."""
    table = table if table is not None else builtin_table(d)
    plane = mode == "plane"
    return per_color_count_series(_count_rules(k, table, n_max, plane), n_max, plane)


def prefix_count_sequence(k: int, d: int, n_max: int, mode: str = "plane",
                          table: LawTable | None = None) -> list[int]:
    """``count_sequence`` on the prefix engine ``prefix_count_series``."""
    table = table if table is not None else builtin_table(d)
    plane = mode == "plane"
    return prefix_count_series(_count_rules(k, table, n_max, plane), n_max, plane)


def _kind_json(kind: str, c: int):
    return kind if kind in ("saddle_node", "period_doubling") else {kind: c}


def legal_law_entries() -> list:
    """Every law entry with at most five children that ``LawEntry`` accepts."""
    out = []
    for kind, c in (("saddle_node", 1), ("period_doubling", 2), ("type_m", 3),
                    ("junction", 4), ("junction", 5)):
        for parent in (-1, 0, 1):
            for children in combinations_with_replacement((-1, 0, 1), c):
                try:
                    out.append(LawEntry(kind, parent, children))
                except ValueError:
                    pass
    return out


def law_table_doc(d: int, mode: str, entries) -> dict:
    """The law-table document of ``entries`` in dimension d, in ``extend``
    or ``replace`` mode."""
    return {"schemaVersion": "1", "dimension": d, "mode": mode,
            "entries": [{"kind": _kind_json(e.kind, len(e.children)), "parent": e.parent,
                         "children": list(e.children)} for e in entries]}


def law_table_of(d: int, mode: str, entries) -> LawTable:
    """``law_table_doc`` of ``entries``, loaded."""
    return load_law_table(law_table_doc(d, mode, entries))


def random_law_doc(rng: random.Random, mode: str) -> dict:
    """A law-table document of random legal entries (up to five children),
    in ``extend`` or ``replace`` mode."""
    entries = rng.sample(legal_law_entries(), rng.randint(2, 12))
    return law_table_doc(rng.randint(1, 4), mode, entries)


def random_law_table(rng: random.Random, mode: str) -> LawTable:
    """``random_law_doc``, loaded."""
    return load_law_table(random_law_doc(rng, mode))


def negated(entry: LawEntry) -> LawEntry:
    """The law entry with every index negated; legal whenever ``entry`` is."""
    return LawEntry(entry.kind, -entry.parent, tuple(sorted(-c for c in entry.children)))


def kind_keyed_child_multisets(table: LawTable, kind, parent: int) -> frozenset:
    """The kind-keyed lookup that ``splits_for_child_count`` replaced: the
    entries of the kind and parent, plus for a junction one checked
    ``LawEntry`` per generated family rule."""
    check_index(parent)
    if kind.name == JUNCTION:
        n = kind.param
        found = {e for e in table.entries
                 if e.kind == JUNCTION and e.parent == parent and len(e.children) == n}
        for family, p in table.junction_families:
            if p != parent:
                continue
            children = _junction_children(family, p, n)
            if children is not None:
                found.add(LawEntry(JUNCTION, parent, children))
        return frozenset(e.children for e in found)
    return frozenset(e.children for e in table.entries
                     if e.kind == kind.name and e.parent == parent)


# -- listing: the cached recursive listers the by-size pass replaced ---------

def recursive_orderings(mset) -> list[tuple]:
    """The distinct orderings of a multiset, in lexicographic order: each
    distinct value in turn, followed by every ordering of the rest.  How the
    colored lister ordered each law rule's child colors before it read the
    count engine's rules (``trees._pools``)."""
    rest = sorted(mset)
    return [(v,) + tail for i, v in enumerate(rest) if i == 0 or v != rest[i - 1]
            for tail in recursive_orderings(rest[:i] + rest[i + 1:])] if rest else [()]


def _compositions(total: int, parts: int):
    """Ordered tuples of positive integers of length ``parts`` summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _ckey(t: ColoredTree):
    return (t.size, t.shape(), t.color, tuple(_ckey(c) for c in t.children))


@lru_cache(maxsize=None)
def _ordered_color_tuples(table: LawTable, c: int, color: int) -> tuple:
    out = set()
    for mset in splits_for_child_count(table, c, color):
        out.update(permutations(mset))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def _colored_plane(table: LawTable, arity: int, n: int, color: int) -> tuple:
    if n == 1:
        return (ColoredTree(color),)
    out = []
    for c in range(1, min(arity, n - 1) + 1):
        tuples = _ordered_color_tuples(table, c, color)
        if not tuples:
            continue
        for slots in combinations(range(arity), c):
            for colors in tuples:
                for sizes in _compositions(n - 1, c):
                    pools = [_colored_plane(table, arity, s, col)
                             for s, col in zip(sizes, colors)]
                    for kids in product(*pools):
                        out.append(ColoredTree(color, kids, slots))
    return tuple(out)


@lru_cache(maxsize=None)
def _colored_free(table: LawTable, max_children: int, n: int, color: int) -> tuple:
    if n == 1:
        return (ColoredTree(color),)
    out = set()
    for c in range(1, min(max_children, n - 1) + 1):
        tuples = _ordered_color_tuples(table, c, color)
        if not tuples:
            continue
        for colors in tuples:
            for sizes in _compositions(n - 1, c):
                pools = [_colored_free(table, max_children, s, col)
                         for s, col in zip(sizes, colors)]
                for kids in product(*pools):
                    ordered = tuple(sorted(kids, key=_ckey, reverse=True))
                    out.add(ColoredTree(color, ordered, None))
    return tuple(sorted(out, key=_ckey))


def cached_colored_trees(spec) -> tuple:
    """``enumerate_colored`` without its cap, through one cached recursive
    lister per mode that keeps every smaller list between calls."""
    table = spec.table if spec.table is not None else builtin_table(spec.d)
    build = _colored_plane if spec.mode.value == "plane" else _colored_free
    return tuple(t for color in (-1, 0, 1) for t in build(table, spec.k + 1, spec.n, color))


@lru_cache(maxsize=None)
def cached_slot_trees(arity: int, n: int) -> tuple:
    """All slot trees on n nodes where each node has ``arity`` child positions."""
    if n < 1:
        return ()
    if n == 1:
        return ((),)
    out = []
    for c in range(1, min(arity, n - 1) + 1):
        for slots in combinations(range(arity), c):
            for sizes in _compositions(n - 1, c):
                out.extend(_assemble(slots, sizes, arity, 0, ()))
    return tuple(out)


def _assemble(slots, sizes, arity, i, acc):
    if i == len(slots):
        yield acc
        return
    for child in cached_slot_trees(arity, sizes[i]):
        yield from _assemble(slots, sizes, arity, i + 1, acc + ((slots[i], child),))


@lru_cache(maxsize=None)
def ordered_forests(total: int) -> tuple:
    if total == 0:
        return ((),)
    out = []
    for s in range(1, total + 1):
        for t in cached_ordered_trees(s):
            for rest in ordered_forests(total - s):
                out.append((t,) + rest)
    return tuple(out)


def cached_ordered_trees(n: int) -> tuple:
    """All plane trees on n nodes (ordered children, unbounded arity);
    there are Catalan(n-1) of them."""
    if n < 1:
        return ()
    return tuple(ordered_forests(n - 1))


@lru_cache(maxsize=None)
def _cached_bounded_forests(total: int, slots: int, max_children: int, max_key) -> tuple:
    """Non-increasing tuples of canonical trees: at most ``slots`` trees whose
    sizes sum to ``total``, each tree of branching at most ``max_children``,
    each no larger than ``max_key`` under the (size, structure) order."""
    if total == 0:
        return ((),)
    if slots == 0:
        return ()
    out = []
    for s in range(total, 0, -1):
        for t in cached_canonical_trees(s, max_children):
            key = (s, t)
            if max_key is not None and key > max_key:
                continue
            for rest in _cached_bounded_forests(total - s, slots - 1, max_children, key):
                out.append((t,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def cached_canonical_trees(n: int, max_children: int | None = None) -> tuple:
    """``canonical_trees`` through module-level caches that keep every
    smaller list between calls."""
    if n < 1:
        return ()
    mc = n if max_children is None else max_children
    if n == 1:
        return ((),)
    return _cached_bounded_forests(n - 1, mc, mc, None)


def listed_free_shape_count(k: int, n: int) -> int:
    """Free shapes with at most k+1 children per node, counted by listing."""
    return len(cached_canonical_trees(n, k + 1))


def chosen_free_shape_counts(k: int, n_max: int) -> list[int]:
    """Free shapes on n = 1..n_max nodes with at most k+1 children per node:
    a node's children are a multiset of smaller trees, folded in one tree
    size at a time by choosing r of the t trees of that size with
    repetition, C(t + r - 1, r) ways."""
    m = k + 1
    trees = [0, 1]
    # forests[j][total]: multisets of j trees of the sizes folded in so far
    forests = [[1] + [0] * n_max] + [[0] * (n_max + 1) for _ in range(m)]
    for size in range(1, n_max):
        grown = [row[:] for row in forests]
        for j in range(m):
            for total, ways in enumerate(forests[j]):
                for r in range(1, m - j + 1):
                    if ways and total + r * size <= n_max:
                        grown[j + r][total + r * size] += ways * comb(trees[size] + r - 1, r)
        forests = grown
        trees.append(sum(forests[j][size] for j in range(1, m + 1)))
    return trees[1:n_max + 1]


@lru_cache(maxsize=None)
def cached_free_trees(n: int) -> tuple:
    """``free_trees`` over the cached lister, with the recursive edge list."""
    out = []
    for t in cached_canonical_trees(n):
        heavy = tree_size(t[0]) if t else 0
        if 2 * heavy < n or (2 * heavy == n and t[0] >= t[1:]):
            out.append(SimpleGraph.from_edges(n, nested_tree_edges(t)))
    return tuple(out)


def distinct_children(trees, children) -> int:
    """How many distinct objects (by ``id``) sit below the roots of the
    listed trees; ``children(node)`` gives a node's children."""
    seen, stack = set(), list(trees)
    while stack:
        for child in children(stack.pop()):
            if id(child) not in seen:
                seen.add(id(child))
                stack.append(child)
    return len(seen)


# -- junction period decompositions ------------------------------------------

def _items(periods) -> tuple:
    return tuple(sorted(Counter(periods).items()))


def _sub_multisets(items):
    """All sub-count-vectors of a (value, count) tuple, as item tuples."""
    if not items:
        yield ()
        return
    (val, cnt), rest = items[0], items[1:]
    for sub in _sub_multisets(rest):
        for take in range(cnt + 1):
            yield ((val, take),) + sub if take else sub


def _strip(items):
    return tuple((v, c) for v, c in items if c)


def _diff(items, sub):
    d = dict(items)
    for v, c in sub:
        d[v] -= c
    return tuple(sorted((v, c) for v, c in d.items() if c))


@lru_cache(maxsize=None)
def _doubling_leaves(p: int, items: tuple) -> bool:
    """Can a chain of period doublings rooted at period p produce exactly
    this leaf multiset?  Each event turns one leaf q into leaves {q, 2q}.

    Two exact prunes keep the search desk-fast: every leaf is p times a
    power of two, and the surviving chain leaves exactly one leaf at p.
    """
    if items == ((p, 1),):
        return True
    total = sum(c for _, c in items)
    if total < 2:
        return False
    counts = dict(items)
    if counts.get(p, 0) != 1:
        return False
    for v in counts:
        q, r = divmod(v, p)
        if r or q & (q - 1):
            return False
    for left in map(_strip, _sub_multisets(items)):
        if not left:
            continue
        right = _diff(items, left)
        if not right:
            continue
        if _doubling_leaves(p, left) and _doubling_leaves(2 * p, right):
            return True
    return False


@lru_cache(maxsize=None)
def _multiplying_leaves(p: int, items: tuple) -> bool:
    """Same for chains of three-way events q -> {q, mq, mq}, any m >= 3
    per event.

    Prunes (all exact): leaf counts are odd (each event adds two), every
    leaf is a multiple of the root period, and exactly one leaf stays at it.
    """
    if items == ((p, 1),):
        return True
    total = sum(c for _, c in items)
    if total < 3 or total % 2 == 0:
        return False
    counts = dict(items)
    if counts.get(p, 0) != 1:
        return False
    if any(v % p for v in counts):
        return False
    values = [v for v, _ in items]
    hi = max(values)
    for m in range(3, hi // p + 1):
        if not any(v % (m * p) == 0 for v in values):
            continue
        for keep in map(_strip, _sub_multisets(items)):
            if not keep:
                continue
            rest = _diff(items, keep)
            if sum(c for _, c in rest) < 2:
                continue
            if not _multiplying_leaves(p, keep):
                continue
            for part1 in map(_strip, _sub_multisets(rest)):
                if not part1:
                    continue
                part2 = _diff(rest, part1)
                if not part2 or part1 > part2:  # unordered halves
                    continue
                if _multiplying_leaves(m * p, part1) and _multiplying_leaves(m * p, part2):
                    return True
    return False


def searched_junction_periods(parent_period: int, child_periods) -> bool:
    """True when the child periods arise from some decomposition of the
    junction into a chain of doublings or of m-fold multiplications, by
    trying every split of the leaf multiset; exponential in the number of
    leaves, so small junctions only."""
    items = _items(child_periods)
    return _doubling_leaves(parent_period, items) or _multiplying_leaves(parent_period, items)


# -- Vamos-minor search: one (contract, delete) split at a time -----------------

def _rank_over(m, subset, base) -> int:
    """Greedy rank of ``subset`` relative to an independent ``base``."""
    pool = [e for e in m.ground if e in set(subset)]
    got = list(base)
    for e in pool:
        if e in got:
            continue
        if m.is_independent(frozenset(got) | {e}):
            got.append(e)
    return len(got) - len(base)


def _matches_vamos(elements, indep) -> bool:
    """Structural isomorphism test against the Vamos matroid for a rank-4
    oracle on exactly eight elements (all triples already independent and
    exactly five dependent quadruples assumed checked by the caller)."""
    quads = [frozenset(q) for q in combinations(elements, 4) if not indep(frozenset(q))]
    pair_count = Counter()
    for q in quads:
        for pair in combinations(sorted(q, key=repr), 2):
            pair_count[frozenset(pair)] += 1
    pairs = [p for p, c in pair_count.items() if c >= 2]
    if len(pairs) != 4 or len(frozenset().union(*pairs)) != 8:
        return False
    which = {e: i for i, p in enumerate(pairs) for e in p}
    quad_edges = set()
    for q in quads:
        ps = frozenset(which[e] for e in q)
        if len(ps) != 2:
            return False
        quad_edges.add(ps)
    if len(quad_edges) != 5:
        return False
    deg = Counter()
    for e in quad_edges:
        for x in e:
            deg[x] += 1
    return sorted(deg.values()) == [2, 2, 3, 3]


def is_vamos_restriction(m, eight) -> bool:
    """True when m restricted to the eight elements ``eight`` is the Vamos
    matroid: rank 4, no dependent triple, and exactly five dependent
    quadruples, each the union of two of four disjoint pairs."""
    if m.rank_of(eight) != 4 or not all(m.is_independent(t) for t in combinations(eight, 3)):
        return False
    quads = []
    for q in combinations(eight, 4):
        if not m.is_independent(q):
            quads.append(q)
            if len(quads) > 5:
                return False
    if len(quads) != 5:
        return False
    # The diamond's vertices are the pairs lying in two or more quadruples.
    # Five distinct edges on four vertices always form a diamond.
    counts = Counter(p for q in quads for p in combinations(q, 2))
    pairs = [p for p, c in counts.items() if c >= 2]
    which = {e: i for i, p in enumerate(pairs) for e in p}
    return (len(pairs) == 4 and len(which) == 8
            and all(len({which[e] for e in q}) == 2 for q in quads))


def searched_vamos_minor(m) -> bool:
    """True when some minor of m is isomorphic to the Vamos matroid, by
    building an independence closure for every (contract, delete) split."""
    size = len(m.ground)
    if size < 8:
        return False
    if size > 15:
        raise ValueError("vamos-minor search is limited to 15 ground elements")
    removals = size - 8
    top_rank = m.rank
    for csize in range(0, min(removals, max(0, top_rank - 4)) + 1):
        for cset in combinations(m.ground, csize):
            cfs = frozenset(cset)
            if not m.is_independent(cfs):
                continue
            pool = tuple(e for e in m.ground if e not in cfs)
            for dset in combinations(pool, removals - csize):
                rem = tuple(e for e in pool if e not in dset)

                def indep(subset: frozenset, _c=cfs) -> bool:
                    return m.is_independent(subset | _c)

                if _rank_over(m, rem, cset) != 4:
                    continue
                bad = 0
                for q in combinations(rem, 4):
                    if not indep(frozenset(q)):
                        bad += 1
                        if bad > 5:
                            break
                if bad != 5:
                    continue
                if any(not indep(frozenset(t)) for t in combinations(rem, 3)):
                    continue
                if _matches_vamos(rem, indep):
                    return True
    return False


def swept_vamos_minor(m) -> bool:
    """The detector before the mask filter: ``is_vamos_restriction`` on every
    eight-element restriction of every contraction (a timing reference)."""
    for csize in range(min(len(m.ground) - 8, m.rank - 4) + 1):
        for cset in combinations(m.ground, csize):
            if m.is_independent(cset):
                minor = matroid_minor(m, contract=cset)
                if any(is_vamos_restriction(minor, eight)
                       for eight in combinations(minor.ground, 8)):
                    return True
    return False


def _vamos_candidates(m):
    """The eight-element subsets of m's ground set on which m restricts to
    the Vamos matroid.

    Each triple, and each quadruple without a dependent triple, is queried
    once; the dependent ones are kept as bitmasks over the ground set.  A
    Vamos restriction has rank 4, no dependent triple and exactly five
    dependent quadruples, two of them disjoint with the eight elements as
    their union; the four diamond vertices are the two-element
    intersections of the five quadruples, and each quadruple must be the
    union of two of them.
    """
    bit, independent = m._bit, m._independent
    bits = tuple(bit.values())
    triples = {t for t in map(sum, combinations(bits, 3)) if not independent(t)}
    quads = []
    for a, b, c, d in combinations(bits, 4):
        mask = a | b | c | d
        if triples.isdisjoint((mask ^ a, mask ^ b, mask ^ c, mask ^ d)) and not independent(mask):
            quads.append(mask)
    for eight in sorted({a | b for a, b in combinations(quads, 2) if not a & b}):
        if any(t & eight == t for t in triples):
            continue
        inside = [q for q in quads if q & eight == q]
        if len(inside) != 5:
            continue
        pairs = {a & b for a, b in combinations(inside, 2) if (a & b).bit_count() == 2}
        if (len(pairs) == 4 and sum(pairs) == eight
                and all(sum(p & q == p for p in pairs) == 2 for q in inside)
                and m._rank(eight) == 4):
            yield tuple(e for e, b in bit.items() if b & eight)


def contracted_vamos_minor(m) -> bool:
    """The detector before the level search: each independent contraction's
    triples and quadruples listed again through ``matroid_minor``, and its
    eight-sets read off them by ``_vamos_candidates``."""
    size = len(m.ground)
    if size > 15:
        raise ValueError("vamos-minor search is limited to 15 ground elements")
    for csize in range(min(size - 8, m.rank - 4) + 1):
        for cset in combinations(m.ground, csize):
            if m.is_independent(cset) and any(
                    _vamos_candidates(matroid_minor(m, contract=cset))):
                return True
    return False


# -- the frozenset oracles the built-in matroids answered with ------------------

def listed_is_forest(n: int, edges) -> bool:
    """True when the listed edges on vertices 0..n-1 close no cycle: the
    union-find that took an edge list, with a find function."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def graphic_set_oracle(g: SimpleGraph):
    """The graphic oracle on a frozenset of edges."""
    return partial(listed_is_forest, g.n)


def tabulated_set_oracle(bases):
    """The tabulated oracle on a frozenset: a subset of some listed basis."""
    basis_sets = [frozenset(b) for b in bases]
    return lambda subset: any(subset <= b for b in basis_sets)


def vamos_set_oracle(subset: frozenset) -> bool:
    """The Vamos oracle on a frozenset: at most four elements, and no
    circuit quadruple."""
    if len(subset) > 4:
        return False
    if len(subset) == 4:
        return subset not in VAMOS_CIRCUIT_QUADS
    return True


def set_exchange_check(bases) -> None:
    """The basis-exchange check on frozensets: every (basis, dropped element)
    fill set against every basis, in (i, j) order; ValueError naming the
    first failing pair."""
    basis_sets = [frozenset(b) for b in bases]
    fills: dict[frozenset, set] = {}
    drops = []
    for b in basis_sets:
        row = []
        for x in b:
            fill = fills.setdefault(b - {x}, set())
            fill.add(x)
            row.append(fill)
        drops.append(row)
    for i, row in enumerate(drops):
        for j, b2 in enumerate(basis_sets):
            if any(fill.isdisjoint(b2) for fill in row):
                raise ValueError(f"bases[{i}] and bases[{j}] break the basis exchange axiom")


def set_from_bases(ground, bases) -> Matroid:
    """``from_bases`` on frozensets: the same checks and messages, the
    exchange check of ``set_exchange_check``, and the tabulated frozenset
    oracle behind the public ``Matroid``."""
    ground = tuple(ground)
    basis_sets = [frozenset(b) for b in bases]
    if not basis_sets:
        raise ValueError("need at least one basis")
    stray = frozenset().union(*basis_sets) - set(ground)
    if stray:
        raise ValueError(f"basis elements not in the ground set: {', '.join(sorted(map(repr, stray)))}")
    if len({len(b) for b in basis_sets}) != 1:
        raise ValueError("bases must share one size")
    set_exchange_check(basis_sets)
    return Matroid(ground, tabulated_set_oracle(basis_sets), name="tabulated")


def scanned_from_bases(ground, bases) -> Matroid:
    """``from_bases`` before the holder bitsets: the exchange check tests
    every fill mask against every distinct basis mask, and the oracle scans
    the distinct bases for one that holds the queried mask."""
    ground = tuple(ground)
    basis_sets = [frozenset(b) for b in bases]
    if not basis_sets:
        raise ValueError("need at least one basis")
    stray = frozenset().union(*basis_sets) - set(ground)
    if stray:
        raise ValueError(f"basis elements not in the ground set: {', '.join(sorted(map(repr, stray)))}")
    if len({len(b) for b in basis_sets}) != 1:
        raise ValueError("bases must share one size")
    bit = {e: 1 << i for i, e in enumerate(ground)}
    masks = [sum(bit[e] for e in b) for b in basis_sets]
    fills: dict[int, int] = {}
    for b in masks:
        for x in bit.values():
            if b & x:
                fills[b ^ x] = fills.get(b ^ x, 0) | x
    distinct = tuple(dict.fromkeys(masks))
    if any(not fill & b for fill in set(fills.values()) for b in distinct):
        for i, b1 in enumerate(masks):
            row = [fills[b1 ^ x] for x in bit.values() if b1 & x]
            for j, b2 in enumerate(masks):
                if any(not fill & b2 for fill in row):
                    raise ValueError(f"bases[{i}] and bases[{j}] break the basis exchange axiom")

    def indep(mask: int) -> bool:
        return any(mask & b == mask for b in distinct)

    return _on_masks(ground, indep, "tabulated")


def vamos_bases(coloops: int = 0) -> tuple[tuple, list]:
    """Ground set and bases of the Vamos matroid plus ``coloops`` coloops
    ``z0``, ``z1``, ...: every four-set but the circuit quadruples, with
    the coloops added."""
    extra = tuple(f"z{i}" for i in range(coloops))
    bases = [b + extra for b in combinations(VAMOS_GROUND, 4)
             if frozenset(b) not in VAMOS_CIRCUIT_QUADS]
    return VAMOS_GROUND + extra, bases


def mask_subset(ground, mask: int) -> frozenset:
    """The elements ``ground[i]`` whose bit i is set in ``mask``."""
    return frozenset(e for i, e in enumerate(ground) if mask >> i & 1)


# -- free trees keyed by their centroid-rooted canonical form -------------------

def _centroids(n: int, edges) -> list[int]:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    size = [1] * n
    order = []
    parent = [-1] * n
    stack = [0]
    seen = [False] * n
    seen[0] = True
    while stack:
        u = stack.pop()
        order.append(u)
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                parent[w] = u
                stack.append(w)
    for u in reversed(order):
        if parent[u] >= 0:
            size[parent[u]] += size[u]
    best, cents = n + 1, []
    for v in range(n):
        heaviest = n - size[v]
        for w in adj[v]:
            if parent[w] == v:
                heaviest = max(heaviest, size[w])
        if heaviest < best:
            best, cents = heaviest, [v]
        elif heaviest == best:
            cents.append(v)
    return cents


def _rooted_key(n: int, edges, root: int) -> tuple:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    def canon(v, par):
        kids = sorted((canon(w, v) for w in adj[v] if w != par), reverse=True)
        return tuple(kids)

    return canon(root, -1)


def free_tree_key(n: int, edges) -> tuple:
    """Isomorphism invariant of an unrooted tree: minimum rooted canonical
    form over its one or two centroids."""
    cents = _centroids(n, edges)
    return min(_rooted_key(n, edges, c) for c in cents)


def keyed_free_trees(n: int) -> dict:
    """One tree per isomorphism class, keyed by ``free_tree_key``: every
    canonical rooted tree on n nodes, rebuilt as a graph and keyed again."""
    if n < 1:
        return {}
    seen = {}
    for t in canonical_trees(n):
        edges = _tree_edges(t)
        key = free_tree_key(n, edges)
        if key not in seen:
            seen[key] = SimpleGraph.from_edges(n, edges)
    return seen


# -- graph catalog: one permutation at a time --------------------------------

@lru_cache(maxsize=None)
def _edge_perms(n: int) -> tuple[tuple[int, ...], ...]:
    """For every vertex permutation, the induced permutation of edge slots."""
    pairs = list(combinations(range(n), 2))
    idx = {e: i for i, e in enumerate(pairs)}
    return tuple(tuple(idx[_norm_edge(perm[u], perm[v])] for u, v in pairs)
                 for perm in permutations(range(n)))


def _permuted_mask(mask: int, ep) -> int:
    """Edge bitmask after moving each edge slot i to slot ep[i]."""
    out = 0
    while mask:
        i = (mask & -mask).bit_length() - 1
        out |= 1 << ep[i]
        mask &= mask - 1
    return out


def swept_all_graphs(n: int) -> tuple:
    """``all_graphs`` before the packed orbit sums: every unseen mask's orbit
    is marked by moving it through each edge permutation, one bit at a
    time."""
    if n == 0:
        return (SimpleGraph.from_edges(0, []),)
    nbits = n * (n - 1) // 2
    seen = bytearray(1 << nbits)
    reps = []
    for mask in range(1 << nbits):
        if seen[mask]:
            continue
        reps.append(graph_from_mask(n, mask))
        for ep in _edge_perms(n):
            seen[_permuted_mask(mask, ep)] = 1
    return tuple(reps)


# -- diamond minors by contraction search --------------------------------------

def canonical_mask(g: SimpleGraph) -> int:
    """Minimum edge bitmask over all vertex relabelings. Exponential in n;
    guarded to n <= 8 where it stays cheap."""
    if g.n > 8:
        raise ValueError("canonical_mask is limited to 8 vertices")
    idx = {e: i for i, e in enumerate(combinations(range(g.n), 2))}
    mask = sum(1 << idx[e] for e in g.edges)
    return min(_permuted_mask(mask, ep) for ep in _edge_perms(g.n))


def _contract(g: SimpleGraph, u: int, v: int) -> SimpleGraph:
    """Contract edge (u, v): merge v into u, drop loops and parallels."""
    keep = [x for x in range(g.n) if x != v]
    pos = {x: i for i, x in enumerate(keep)}
    edges = set()
    for a, b in g.edges:
        a2 = u if a == v else a
        b2 = u if b == v else b
        if a2 != b2:
            edges.add(tuple(sorted((pos[a2], pos[b2]))))
    return SimpleGraph.from_edges(g.n - 1, edges)


def searched_diamond_minor(g: SimpleGraph) -> bool:
    """Brute-force minor test for the diamond (K4 minus an edge), via
    contractions and a subgraph shortcut, memoized on canonical forms;
    exponential, so small graphs only (C10 takes seconds)."""
    seen: set[tuple[int, int]] = set()

    def search(h: SimpleGraph) -> bool:
        if h.n < 4 or len(h.edges) < 5:
            return False
        key = (h.n, canonical_mask(h)) if h.n <= 8 else None
        if key is not None:
            if key in seen:
                return False
            seen.add(key)
        if has_diamond_subgraph(h):
            return True
        return any(search(_contract(h, u, v)) for u, v in sorted(h.edges))

    return search(g)


# -- chordality by scanning every unplaced vertex ------------------------------

def scanned_is_chordal(g: SimpleGraph) -> bool:
    """``is_chordal`` before the weight buckets: each step of the maximum
    cardinality search scans every unplaced vertex (quadratic), then the
    reversed order is checked as a perfect elimination order."""
    n = g.n
    adj = g.adjacency()
    weight = [0] * n
    order: list[int] = []
    placed = [False] * n
    for _ in range(n):
        v = max((w for w in range(n) if not placed[w]), key=lambda w: (weight[w], -w))
        placed[v] = True
        order.append(v)
        for w in adj[v]:
            if not placed[w]:
                weight[w] += 1
    elim = list(reversed(order))
    pos = {v: i for i, v in enumerate(elim)}
    for i, v in enumerate(elim):
        later = [w for w in adj[v] if pos[w] > i]
        if not later:
            continue
        u = min(later, key=lambda w: pos[w])
        if any(w != u and w not in adj[u] for w in later):
            return False
    return True


def filled_graph(rng: random.Random, g: SimpleGraph) -> SimpleGraph:
    """g with the fill-in of eliminating its vertices in a random order:
    each vertex's neighbours that come later become a clique, so the
    result is chordal."""
    adj = g.adjacency()
    order = list(range(g.n))
    rng.shuffle(order)
    done = set()
    for v in order:
        done.add(v)
        later = sorted(adj[v] - done)
        for a, b in combinations(later, 2):
            adj[a].add(b)
            adj[b].add(a)
    return SimpleGraph.from_edges(g.n, {(min(u, w), max(u, w)) for u in range(g.n) for w in adj[u]})


# -- any diagram that constructs (a hypothesis strategy) -----------------------

_KINDS = st.one_of(st.sampled_from([saddle_node(), period_doubling()]),
                   st.builds(type_m, st.none() | st.integers(3, 10**20)),
                   st.builds(junction, st.integers(4, 6)))
# one id type per diagram, since emission sorts the ids
_ID_TYPES = st.sampled_from([
    st.text(min_size=1, max_size=6),
    st.text(alphabet='a"\\\u00e9\u2192\U0001f600\n/', min_size=1, max_size=4),
    st.integers(-10**20, 10**20),
])


@st.composite
def constructible_diagrams(draw) -> Diagram:
    """Any diagram that constructs: each vertex's degree is its kind's, made
    of half-edges paired into edges at random, the rest ending in terminals,
    plus some edges with two terminal ends."""
    ids = draw(_ID_TYPES)
    kinds = draw(st.lists(_KINDS, max_size=4))
    vids = draw(st.lists(ids, min_size=len(kinds), max_size=len(kinds), unique=True))
    halves = draw(st.permutations([v for v, kind in zip(vids, kinds) for _ in range(kind.degree)]))
    pairs = draw(st.integers(0, len(halves) // 2))
    ends = [tuple(halves[2 * i:2 * i + 2]) for i in range(pairs)]
    ends += [(v, TERMINAL) if draw(st.booleans()) else (TERMINAL, v) for v in halves[2 * pairs:]]
    ends += [(TERMINAL, TERMINAL)] * draw(st.integers(0, 2))
    eids = draw(st.lists(ids, min_size=len(ends), max_size=len(ends), unique=True))
    edges = tuple(Edge(eid, draw(st.sampled_from([-1, 0, 1])), e,
                       draw(st.none() | st.integers(1, 10**20))) for eid, e in zip(eids, ends))
    vertices = tuple(
        Vertex(v, kind, None if kind.name == "saddle_node" else
               draw(st.sampled_from([e.id for e in edges if v in e.ends])))
        for v, kind in zip(vids, kinds))
    return Diagram(draw(st.integers(1, 10**20)), edges, vertices)


# -- blocks and stars: the code that reading blocks and one split replaced -----

def triangle_cactus(n: int) -> SimpleGraph:
    """A path with a chord (i - 2, i) at every even i: a chain of triangles."""
    return SimpleGraph.from_edges(
        n, [(i - 1, i) for i in range(1, n)] + [(i - 2, i) for i in range(2, n, 2)])


def tracked_block_decomposition(g: SimpleGraph) -> BlockDecomposition:
    """``block_decomposition`` with the cut vertices tracked during the
    search: a non-root vertex p is one when it closes a block, the root
    when it has two or more tree children."""
    if not g.is_connected():
        raise ValueError("block decomposition needs a connected graph")
    if g.n == 0:
        return BlockDecomposition((), (), frozenset(), SimpleGraph.from_edges(0, []))
    if g.n == 1:
        return BlockDecomposition((frozenset({0}),), (frozenset(),), frozenset(),
                                  SimpleGraph.from_edges(1, []))

    adj = [sorted(s) for s in g.adjacency()]
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    timer = 0
    edge_stack: list[tuple[int, int]] = []
    raw_blocks: list[list[tuple[int, int]]] = []
    cuts: set[int] = set()
    root = 0
    root_children = 0

    disc[root] = low[root] = timer
    timer += 1
    stack = [(root, -1, iter(adj[root]))]
    while stack:
        u, pu, it = stack[-1]
        w = next(it, None)
        if w is None:
            stack.pop()
            if stack:
                p = stack[-1][0]
                low[p] = min(low[p], low[u])
                if low[u] >= disc[p]:
                    block = []
                    while edge_stack[-1] != (p, u):
                        block.append(edge_stack.pop())
                    block.append(edge_stack.pop())
                    raw_blocks.append(block)
                    if p != root:
                        cuts.add(p)
            continue
        if w == pu:
            continue
        if w not in disc:
            if u == root:
                root_children += 1
            disc[w] = low[w] = timer
            timer += 1
            edge_stack.append((u, w))
            stack.append((w, u, iter(adj[w])))
        elif disc[w] < disc[u]:
            edge_stack.append((u, w))
            low[u] = min(low[u], disc[w])
    if root_children >= 2:
        cuts.add(root)

    pairs = [(frozenset(v for e in b for v in e),
              frozenset(tuple(sorted(e)) for e in b))
             for b in raw_blocks]
    pairs.sort(key=lambda p: tuple(sorted(p[0])))
    blocks = tuple(p[0] for p in pairs)
    block_edges = tuple(p[1] for p in pairs)

    b = len(blocks)
    cut_node = {c: b + j for j, c in enumerate(sorted(cuts))}
    tree_edges = [(i, cut_node[v]) for i, blk in enumerate(blocks)
                  for v in blk if v in cut_node]
    bct = SimpleGraph.from_edges(b + len(cut_node), tree_edges)
    return BlockDecomposition(blocks, block_edges, frozenset(cuts), bct)


def split_incident(v: Vertex, incident: list[Edge]) -> tuple[Edge | None, list[Edge]]:
    """(parent edge, child edges) at vertex ``v`` from its incident edges
    with multiplicity, as ``Diagram`` once split them on every call: the
    parent is the first occurrence of the parent edge; a saddle node has
    none, and its incident list (not a copy) as kids."""
    if v.parent_edge is None:
        return None, incident
    kids = list(incident)
    for i, e in enumerate(kids):
        if e.id == v.parent_edge:
            return kids.pop(i), kids


def branched_to_star(diagram: Diagram) -> SimpleGraph:
    """``to_star`` with a branch of its own for saddle nodes, which join
    their two incident branches; every other event joins its parent edge
    to each of its children, split by ``split_incident``."""
    pos, colors, names = _branch_vertices(diagram)
    edges = set()
    for v in diagram.vertices:
        if v.kind.name == SADDLE_NODE:
            a, b = (e.id for e in diagram.incident_edges(v.id))
            if a != b:
                edges.add(tuple(sorted((pos[a], pos[b]))))
            continue
        hub = pos[v.parent_edge]
        for child in split_incident(v, diagram.incident_edges(v.id))[1]:
            if pos[child.id] != hub:
                edges.add(tuple(sorted((hub, pos[child.id]))))
    return SimpleGraph.from_edges(len(pos), edges, colors, names)


# -- emission: the per-object paths the streaming writers replaced -------------

def tree_json(t) -> dict:
    """A colored tree as the document ``enumerate --emit json`` lists."""
    out = {"color": t.color, "children": [tree_json(c) for c in t.children]}
    if t.slots is not None:
        out["slots"] = list(t.slots)
    return out


def dumped_trees_json(trees) -> str:
    """``enumerate --emit json`` output through ``json.dumps`` of the whole list."""
    return json.dumps([tree_json(t) for t in trees], indent=2, sort_keys=True) + "\n"


def diagram_trees_dot(trees, dimension: int) -> str:
    """``enumerate --emit dot`` output with each tree built as a Diagram,
    turned into its star graph and exported by ``emit_dot``."""
    return "".join(emit_dot(to_star(tree_to_diagram(t, dimension)), f"t{i}")
                   for i, t in enumerate(trees))


def reindented_trees_json(trees):
    """``trees_json`` as it was: each listed tree's text built at indent 0
    from a stack walk over its new subtrees, then indented with one replace
    over the whole tree's text."""
    memo: dict = {}  # id(subtree) -> (subtree, its text indented as a child)
    sep = "[\n  "
    for tree in trees:
        yield sep + _tree_text(tree, memo).replace("\n", "\n  ")
        sep = ",\n  "
    yield "[]\n" if sep == "[\n  " else "\n]\n"


def _tree_text(root, memo: dict) -> str:
    order, stack = [], [root]  # the nodes still to write, each before its children
    while stack:
        node = stack.pop()
        order.append(node)
        stack += [c for c in node.children if id(c) not in memo]
    for node in reversed(order):
        text = ('{\n  "children": ' + _json_array([memo[id(c)][1] for c in node.children])
                + ',\n  "color": ' + str(node.color))
        if node.slots is not None:
            text += ',\n  "slots": ' + _json_array(list(map(str, node.slots)))
        text += "\n}"
        if node is root:
            return text
        memo[id(node)] = (node, text.replace("\n", "\n    "))


def walked_trees_dot(trees):
    """``trees_dot`` as it was: every node of every tree walked, with the
    line of each vertex number and color and of each edge built once."""
    vertex_lines: list[dict] = []  # [i][color]: the line of vertex i in that color
    edge_lines: dict = {}  # (u, v): the line of edge u -- v
    for t, tree in enumerate(trees):
        lines, edges = [f"graph t{t} {{\n"], []
        stack = [(tree, -1)]  # (node, its parent's number); the root's (-1, 0) sorts first
        while stack:
            node, parent = stack.pop()
            i = len(lines) - 1
            if i == len(vertex_lines):
                vertex_lines.append({c: f'  n{i} [label="e{i}", color={name}];\n'
                                     for c, name in COLOR_OF.items()})
            lines.append(vertex_lines[i][node.color])
            edges.append((parent, i))
            if node.children:
                stack += [(c, i) for c in reversed(node.children)]
        edges.sort()
        for edge in edges[1:]:
            line = edge_lines.get(edge)
            if line is None:
                line = edge_lines[edge] = "  n%d -- n%d;\n" % edge
            lines.append(line)
        lines.append("}\n")
        yield "".join(lines)


def dumped_diagram(diagram: Diagram) -> str:
    """``emit_diagram`` as it was: the document built as dicts and written
    by ``json.dumps(doc, indent=2)``."""
    doc = {"schemaVersion": SCHEMA_VERSION, "dimension": diagram.dimension,
           "edges": [], "vertices": []}
    for e in sorted(diagram.edges, key=lambda e: e.id):
        item = {"id": e.id, "index": e.index}
        if e.period is not None:
            item["period"] = e.period
        item["endpoints"] = ["terminal" if x is TERMINAL else x for x in e.ends]
        doc["edges"].append(item)
    for v in sorted(diagram.vertices, key=lambda v: v.id):
        kind = v.kind.name if v.kind.name in (SADDLE_NODE, PERIOD_DOUBLING) else {
            v.kind.name: v.kind.param}
        item = {"id": v.id, "kind": kind}
        if v.parent_edge is not None:
            item["parentEdge"] = v.parent_edge
        doc["vertices"].append(item)
    return json.dumps(doc, indent=2) + "\n"


def dumped_graph(g: SimpleGraph) -> str:
    """``emit_graph`` as it was, through ``json.dumps(doc, indent=2)``."""
    doc = {"vertexCount": g.n, "edges": [list(e) for e in g.sorted_edges()]}
    if g.colors is not None:
        doc["colors"] = list(g.colors)
    return json.dumps(doc, indent=2) + "\n"


def tree_rows(trees) -> tuple[tuple[list, list, list], list[int]]:
    """A listing of colored trees as the table, in columns (colors, slots,
    kids), and listed row ids that ``enumerate_rows`` gives: one row per
    distinct subtree object, after its children's rows.  Every tree is held
    until the end, so no ``id()`` is taken again by a new object."""
    colors, slots, kids = table = [], [], []
    done, held, listed = {}, [], []

    def row(node, children) -> int:
        colors.append(node.color)
        slots.append(node.slots)
        kids.append(tuple(children))
        return len(kids) - 1

    for tree in trees:
        held.append(tree)
        listed.append(_fold((tree,), attrgetter("children"), row, done)[id(tree)])
    return table, listed


def row_trees(table, listed) -> tuple:
    """The listed rows of a table as ``ColoredTree``s, one object per row."""
    built = []
    for color, slots, kids in zip(*table):
        built.append(ColoredTree(color, tuple(built[c] for c in kids), slots))
    return tuple(built[r] for r in listed)


def joined_trees_json(trees):
    """``trees_json`` as it was on ``ColoredTree``s: the text of each distinct
    subtree built once by ``_fold`` and kept by ``id()``, and each listed
    tree joined from its children's kept texts at their final indent."""
    memo: dict = {}  # id(subtree) -> (subtree, its text indented as a child)
    placed: dict = {}  # id(child of a listed tree) -> its text at its final indent
    tails: dict = {}  # (color, slots) -> a listed tree's text after its children
    sep = "[\n  "
    for tree in trees:
        kids = [placed.get(id(c)) or placed.setdefault(
            id(c), _subtree_text(c, memo).replace("\n", "\n  ")) for c in tree.children]
        key = tree.color, tree.slots
        tail = tails.get(key) or tails.setdefault(key, _tree_tail(*key, "\n    ") + "\n  }")
        yield sep + '{\n    "children": ' + _json_array(kids, "\n    ") + tail
        sep = ",\n  "
    yield "[]\n" if sep == "[\n  " else "\n]\n"


def _subtree_text(root, memo: dict) -> str:
    def text(node, kids) -> tuple:
        return node, ('{\n  "children": ' + _json_array([t for _, t in kids])
                      + _tree_tail(node.color, node.slots, "\n  ") + "\n}").replace("\n", "\n    ")

    return _fold((root,), attrgetter("children"), text, memo)[id(root)][1]


def joined_trees_dot(trees):
    """``trees_dot`` as it was on ``ColoredTree``s: each child of a listed
    tree numbered p has its vertex lines, its link and its run of edge
    lines built once per (id(child), p) and kept."""
    blocks: dict = {}  # (id(child), p) -> (child, size, vertex lines, link, edge lines)
    for t, tree in enumerate(trees):
        head = [f'graph t{t} {{\n  n0 [label="e0", color={COLOR_OF[tree.color]}];\n']
        links, tail, i = [], [], 1
        for c in tree.children:
            _, size, vertices, link, edges = (blocks.get((id(c), i))
                                              or blocks.setdefault((id(c), i), _dot_block(c, i)))
            head.append(vertices)
            links.append(link)
            tail.append(edges)
            i += size
        yield "".join(head + links + tail) + "}\n"


def _dot_block(root, first: int) -> tuple:
    vertices, edges, stack = [], [], [(root, -1)]  # the root's (-1, first) sorts first
    while stack:
        node, parent = stack.pop()
        i = first + len(vertices)
        vertices.append(f'  n{i} [label="e{i}", color={COLOR_OF[node.color]}];\n')
        edges.append((parent, i))
        if node.children:
            stack += [(c, i) for c in reversed(node.children)]
    edges.sort()
    return (root, len(vertices), "".join(vertices), "  n0 -- n%d;\n" % first,
            "".join(["  n%d -- n%d;\n" % edge for edge in edges[1:]]))


def formatted_trees_dot(trees):
    """``trees_dot`` as it was: each tree's preorder colors and sorted
    edges through the general DOT formatter ``_graph_dot``, one chunk per tree."""
    for i, tree in enumerate(trees):
        colors, edges = [], []
        stack = [(tree, -1)]
        while stack:
            node, parent = stack.pop()
            if parent >= 0:
                edges.append((parent, len(colors)))
            stack += [(c, len(colors)) for c in reversed(node.children)]
            colors.append(node.color)
        edges.sort()
        yield _graph_dot(f"t{i}", len(colors), [f"e{v}" for v in range(len(colors))],
                         colors, edges)


def nested_parse_tree(doc) -> tuple:
    """Nested JSON arrays as nested tuples, by recursion."""
    if not isinstance(doc, list):
        raise ValueError("must be a list")
    return tuple(nested_parse_tree(c) for c in doc)


def nested_mary_to_binary(t) -> tuple:
    """Left-child/right-sibling encoding by recursion once per child and
    once per sibling."""

    def conv(node, siblings):
        pairs = ()
        if node:
            pairs += ((0, conv(node[0], node[1:])),)
        if siblings:
            pairs += ((1, conv(siblings[0], siblings[1:])),)
        return pairs

    return ((0, conv(t[0], t[1:])),) if t else ()


def nested_tree_size(t) -> int:
    """Node count of an ordered or canonical tree, by recursion once per level."""
    return 1 + sum(nested_tree_size(c) for c in t)


def nested_slot_tree_size(t) -> int:
    """Node count of a slot tree, by recursion once per level."""
    return 1 + sum(nested_slot_tree_size(c) for _, c in t)


def nested_is_binary(t) -> bool:
    """Whether a slot tree uses only slots 0 and 1, by recursion once per level."""
    return all(s in (0, 1) and nested_is_binary(c) for s, c in t)


def nested_strip_slots(t) -> tuple:
    """Slot tree -> ordered tree, by recursion once per level."""
    return tuple(nested_strip_slots(c) for _, c in t)


def nested_canonical_form(t) -> tuple:
    """Canonical form of an ordered tree, by recursion once per level."""
    kids = sorted((nested_canonical_form(c) for c in t),
                  key=lambda c: (nested_tree_size(c), c), reverse=True)
    return tuple(kids)


def nested_tree_edges(t) -> list:
    """Edge list of an ordered tree in DFS preorder, by recursion once per level."""
    edges = []

    def walk(node, my_id):
        for child in node:
            cid = len(edges) + 1
            edges.append((my_id, cid))
            walk(child, cid)

    walk(t, 0)
    return edges


def dumped_binary_tree(t) -> str:
    """A binary slot tree through ``json.dumps(indent=2)`` of nested dicts."""

    def conv(node):
        kids = dict(node)
        return {"left": conv(kids[0]) if 0 in kids else None,
                "right": conv(kids[1]) if 1 in kids else None}

    return json.dumps(conv(t), indent=2) + "\n"


def field_values(x) -> tuple:
    """The class and the field values of a dataclass instance, children
    kept as they are (``dataclasses.astuple`` would recurse into them)."""
    return type(x), *(getattr(x, f.name) for f in fields(x))


def chain_tree(n: int) -> ColoredTree:
    """A path of n saddle nodes in plane mode, colors alternating 1, -1
    from the leaf."""
    t = ColoredTree(1)
    for i in range(n - 1):
        t = ColoredTree(-1 if i % 2 == 0 else 1, (t,), (0,))
    return t


@dataclass(frozen=True)
class PlainTree:
    """``ColoredTree`` as the dataclass defines it: generated recursive
    equality and hashing, and the recursive ``shape``."""

    color: int
    children: tuple = ()
    slots: tuple | None = None

    def shape(self):
        if self.slots is not None:
            return tuple((s, c.shape()) for s, c in zip(self.slots, self.children))
        return tuple(c.shape() for c in self.children)


def plain_tree(t: ColoredTree) -> PlainTree:
    return PlainTree(t.color, tuple(map(plain_tree, t.children)), t.slots)


def nested_repr(t: ColoredTree) -> str:
    """``repr(t)`` as the dataclass writes it, by recursion once per level:
    ``PlainTree``'s generated repr under ``ColoredTree``'s name."""
    return repr(plain_tree(t)).replace("PlainTree(", "ColoredTree(")


def with_stack_room(frames: int, fn, *args):
    """``fn(*args)`` with the recursion limit ``frames`` above the current
    depth, so a call that recurses once per tree level fails on a deeper
    input."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        return fn(*args)
    finally:
        sys.setrecursionlimit(old)


# -- diagram documents and validation before the one-pass rewrite ------------

def eager_parse_diagram(source) -> Diagram:
    """``parse_diagram`` as it was before the one-pass parser: every check
    formats its path and message before it is tested, and every kind goes
    through ``kind_from_json``, each built anew.  Structural errors stay
    ``DiagramError``s."""
    doc = _as_object(source)
    extra = set(doc) - {"schemaVersion", "dimension", "edges", "vertices", "comment"}
    _expect(not extra, "$", f"unknown keys {sorted(extra)}")
    _expect(doc.get("schemaVersion") == SCHEMA_VERSION,
            "$.schemaVersion", f"must be {SCHEMA_VERSION!r}")
    dim = doc.get("dimension")
    _expect(_is_int(dim) and dim >= 1, "$.dimension", "must be an integer >= 1")
    _expect(isinstance(doc.get("edges"), list), "$.edges", "must be a list")
    _expect(isinstance(doc.get("vertices"), list), "$.vertices", "must be a list")

    edges = []
    for i, item in enumerate(doc["edges"]):
        path = f"$.edges[{i}]"
        _expect(isinstance(item, dict), path, "must be an object")
        extra = set(item) - {"id", "index", "period", "endpoints"}
        _expect(not extra, path, f"unknown keys {sorted(extra)}")
        _expect(isinstance(item.get("id"), str) and item["id"], f"{path}.id",
                "must be a nonempty string")
        _expect(_is_index(item.get("index")), f"{path}.index", "must be -1, 0 or 1")
        period = item.get("period")
        if period is not None:
            _expect(_is_int(period) and period >= 1, f"{path}.period",
                    "must be a positive integer")
        eps = item.get("endpoints")
        _expect(isinstance(eps, list) and len(eps) == 2, f"{path}.endpoints",
                "must be a two-element list")
        ends = tuple(TERMINAL if e == "terminal" else e for e in eps)
        for j, e in enumerate(ends):
            _expect(e is TERMINAL or (isinstance(e, str) and e),
                    f"{path}.endpoints[{j}]", 'must be a vertex id or "terminal"')
        edges.append(Edge(item["id"], item["index"], ends, period))

    vertices = []
    for i, item in enumerate(doc["vertices"]):
        path = f"$.vertices[{i}]"
        _expect(isinstance(item, dict), path, "must be an object")
        extra = set(item) - {"id", "kind", "parentEdge"}
        _expect(not extra, path, f"unknown keys {sorted(extra)}")
        _expect(isinstance(item.get("id"), str) and item["id"], f"{path}.id",
                "must be a nonempty string")
        kind = kind_from_json(item.get("kind"), f"{path}.kind", {})
        parent = item.get("parentEdge")
        if parent is not None:
            _expect(isinstance(parent, str), f"{path}.parentEdge", "must be an edge id")
        vertices.append(Vertex(item["id"], kind, parent))

    eids = [e.id for e in edges]
    _expect(len(set(eids)) == len(eids), "$.edges", "edge ids must be unique")
    vids = [v.id for v in vertices]
    _expect(len(set(vids)) == len(vids), "$.vertices", "vertex ids must be unique")
    return Diagram(dim, tuple(edges), tuple(vertices))


def stepwise_index_conservation(diagram: Diagram, vertex_id: str) -> ConservationCheck:
    """``check_index_conservation`` before the one-pass validator, through
    the diagram's lookups.

    For a saddle node the two incident indices must sum to 0 (both orbit
    branches sit on one side of the event, nothing on the other).  For every
    parented kind the parent index must equal the sum of the child indices.
    """
    v = diagram.vertex(vertex_id)
    if v.kind.name == SADDLE_NODE:
        total = sum(e.index for e in diagram.incident_edges(vertex_id))
        return ConservationCheck(total == 0, total, 0)
    parent = diagram.edge(v.parent_edge).index
    kids = sum(e.index for e in split_incident(v, diagram.incident_edges(vertex_id))[1])
    return ConservationCheck(parent == kids, parent, kids)


def stepwise_validate_diagram(diagram: Diagram, k: int, table: LawTable) -> ValidationReport:
    """``validate_diagram`` as it was before the one-pass validator: each
    vertex runs every check as its own lookup, and each law query scans the
    table again.  The laws are read from ``table.entries``, the saddle-node
    pairs directly and the rest through ``kind_keyed_child_multisets``, so
    this shares no lookup with ``validate_diagram``.

    Runs the degree bound (k + 2), per-vertex index conservation, the law
    lookup per vertex, the junction two-index rule, cycle parity, and (when
    the diagram is fully period-labeled) period consistency.  Returns every
    violation found; an empty report means the diagram is admissible.
    """
    if table.dimension != diagram.dimension:
        raise ValueError(
            f"table dimension {table.dimension} != diagram dimension {diagram.dimension}")
    out: list[Violation] = []

    for v in diagram.vertices:
        deg = diagram.degree(v.id)
        if deg > k + 2:
            out.append(Violation("degree_bound",
                                 f"vertex {v.id!r} has degree {deg} > k+2 = {k + 2}",
                                 vertex_id=v.id))
        cons = stepwise_index_conservation(diagram, v.id)
        if not cons.ok:
            out.append(Violation("conservation",
                                 f"vertex {v.id!r}: parent side {cons.parent_sum} != "
                                 f"child side {cons.child_sum}", vertex_id=v.id))
        if v.kind.name == SADDLE_NODE:
            pair = tuple(sorted(e.index for e in diagram.incident_edges(v.id)))
            if pair not in {tuple(sorted((e.parent, e.children[0])))
                            for e in table.entries if e.kind == SADDLE_NODE}:
                out.append(Violation("law",
                                     f"saddle-node pair {pair} not admissible in "
                                     f"dimension {table.dimension}", vertex_id=v.id))
            continue
        parent = diagram.edge(v.parent_edge).index
        kids = [e.index for e in split_incident(v, diagram.incident_edges(v.id))[1]]
        if tuple(sorted(kids)) not in kind_keyed_child_multisets(table, v.kind, parent):
            out.append(Violation("law",
                                 f"vertex {v.id!r}: {parent} -> {tuple(sorted(kids))} not "
                                 f"admissible for {v.kind.name} in dimension {table.dimension}",
                                 vertex_id=v.id))
        if v.kind.name == JUNCTION and len(set(kids)) > 2:
            out.append(Violation("junction_two_index",
                                 f"junction {v.id!r} uses more than two child indices",
                                 vertex_id=v.id))

    for cyc in check_cycle_parity(diagram):
        if not cyc.ok:
            out.append(Violation("cycle_parity", cyc.reason, edge_ids=cyc.edge_ids))

    try:
        period = check_period_consistency(diagram)
    except ValueError as exc:
        out.append(Violation("period_partial", str(exc)))
    else:
        for pv in period.violations:
            out.append(Violation("period", pv.message,
                                 vertex_id=pv.vertex_id, edge_ids=pv.edge_pair))

    return ValidationReport(tuple(out))


# -- cycle and period rules before each check built its result once ---------

def branched_cycle_parity(diagram: Diagram) -> list[CycleCheck]:
    """``check_cycle_parity`` as three branches, with the odd-length test
    spelled out in dimension <= 2."""
    results = []
    for eids, vids in _saddle_node_cycles(diagram):
        colors = [diagram.edge(eid).index for eid in eids]
        odd = len(colors) % 2 == 1
        if diagram.dimension <= 2:
            alternating = (not odd and all(abs(c) == 1 for c in colors)
                           and all(colors[i] != colors[(i + 1) % len(colors)]
                                   for i in range(len(colors))))
            results.append(CycleCheck(
                eids, vids, alternating,
                "even alternating" if alternating
                else "saddle-node cycle must alternate +1/-1 with even length"))
        elif odd:
            ok = all(c == 0 for c in colors)
            results.append(CycleCheck(
                eids, vids, ok,
                "odd all-zero" if ok else "odd saddle-node cycle must be all index 0"))
        else:
            results.append(CycleCheck(eids, vids, True, "even"))
    return results


def branched_period_consistency(diagram: Diagram) -> PeriodReport:
    """``check_period_consistency`` with one append per rule and the
    expected periods sorted, through the diagram's lookups."""
    labels = [e.period for e in diagram.edges]
    if all(p is None for p in labels):
        return PeriodReport(False, True, ())
    if any(p is None for p in labels):
        raise ValueError("partial period labeling is ambiguous: label all edges or none")
    violations = []
    for v in diagram.vertices:
        if v.kind.name == SADDLE_NODE:
            e1, e2 = diagram.incident_edges(v.id)
            if e1.period != e2.period:
                violations.append(PeriodViolation(
                    v.id, (e1.id, e2.id),
                    f"saddle node joins periods {e1.period} and {e2.period}"))
            continue
        parent, kids = split_incident(v, diagram.incident_edges(v.id))
        p = parent.period
        got = sorted(e.period for e in kids)
        if v.kind.name == PERIOD_DOUBLING:
            if got != sorted((p, 2 * p)):
                violations.append(PeriodViolation(
                    v.id, (parent.id, kids[0].id),
                    f"doubling from period {p} must yield {{{p}, {2 * p}}}, got {got}"))
        elif v.kind.name == TYPE_M:
            m = v.kind.param
            if m is None:
                violations.append(PeriodViolation(
                    v.id, (parent.id, kids[0].id),
                    f"vertex {v.id!r}: type_m multiplier required to check periods"))
            elif got != sorted((p, m * p, m * p)):
                violations.append(PeriodViolation(
                    v.id, (parent.id, kids[0].id),
                    f"m-fold split from period {p} must yield {{{p}, {m}p x2}}, got {got}"))
        elif not junction_periods_consistent(p, got):
            violations.append(PeriodViolation(
                v.id, (parent.id, kids[0].id),
                f"junction periods {got} admit no decomposition from period {p}"))
    return PeriodReport(True, not violations, tuple(violations))


# -- spanning counts: the guard, compaction and relabeling the math covers -----

def disjoint_union(g: SimpleGraph, h: SimpleGraph) -> SimpleGraph:
    """g beside h, with h's vertices numbered after g's."""
    return SimpleGraph.from_edges(g.n + h.n, [*g.edges, *((u + g.n, v + g.n) for u, v in h.edges)])


def guarded_spanning_count_edges(n: int, edges) -> int:
    """``spanning_count_edges`` with the n <= 1 case answered up front."""
    if n <= 1:
        return 1
    return _int_det([row[1:] for row in _laplacian(n, edges)[1:]])


def compacted_span_dc(n: int, edges: tuple) -> int:
    """Deletion-contraction on vertices 0..n-1, relabeled back to 0..n-2
    after each contraction."""
    edges = tuple(e for e in edges if e[0] != e[1])
    if n == 1:
        return 1
    if not edges:
        return 0
    u, v = edges[0]
    rest = edges[1:]
    deleted = compacted_span_dc(n, rest)
    keep = [x for x in range(n) if x != v]
    pos = {x: i for i, x in enumerate(keep)}
    merged = []
    for a, b in rest:
        a2 = u if a == v else a
        b2 = u if b == v else b
        merged.append((pos[a2], pos[b2]))
    return deleted + compacted_span_dc(n - 1, tuple(merged))


def relabeled_tutte_11(g: SimpleGraph) -> int:
    """``tutte_11`` with each component relabeled by ``SimpleGraph.induced``."""
    if len(g.edges) > 20:
        raise ValueError("deletion-contraction recursion is limited to 20 edges")
    total = 1
    for comp in g.components():
        sub = g.induced(comp)
        total *= compacted_span_dc(sub.n, tuple(sub.sorted_edges()))
    return total


# -- intersection graphs by testing every pair; isomorphism by recursion -------

def looped_to_clique(diagram: Diagram) -> SimpleGraph:
    """``to_clique`` adding each pair of an event's branches to a set."""
    pos, colors, names = _branch_vertices(diagram)
    edges = set()
    for v in diagram.vertices:
        incident = sorted({pos[e.id] for e in diagram.incident_edges(v.id)})
        for a, b in combinations(incident, 2):
            edges.add((a, b))
    return SimpleGraph.from_edges(len(pos), edges, colors, names)


def pairwise_line_graph(g: SimpleGraph) -> SimpleGraph:
    """``line_graph`` testing every pair of edges for a shared endpoint."""
    es = g.sorted_edges()
    pos = {e: i for i, e in enumerate(es)}
    out = set()
    for (e1, e2) in combinations(es, 2):
        if set(e1) & set(e2):
            out.add((pos[e1], pos[e2]))
    names = tuple(f"{u}-{v}" for u, v in es)
    return SimpleGraph.from_edges(len(es), out, names=names)


def pairwise_block_intersection_graph(g: SimpleGraph) -> SimpleGraph:
    """``block_intersection_graph`` testing every pair of blocks for a
    shared vertex."""
    dec = block_decomposition(g)
    out = set()
    for i, j in combinations(range(len(dec.blocks)), 2):
        if dec.blocks[i] & dec.blocks[j]:
            out.add((i, j))
    return SimpleGraph.from_edges(len(dec.blocks), out)


def recursive_graphs_isomorphic(g1: SimpleGraph, g2: SimpleGraph,
                                respect_colors: bool = False) -> bool:
    """``graphs_isomorphic`` backtracking by recursion, one call per
    mapped vertex."""
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return False
    l1 = _refine_labels(g1, respect_colors)
    l2 = _refine_labels(g2, respect_colors)
    if sorted(l1) != sorted(l2):
        return False
    if respect_colors and (g1.colors is None) != (g2.colors is None):
        return False

    adj1 = g1.adjacency()
    adj2 = g2.adjacency()
    n = g1.n
    # map most-constrained vertices first: rare label class, high degree
    freq = Counter(l1)
    order = sorted(range(n), key=lambda v: (freq[l1[v]], -len(adj1[v])))
    cands = {v: [w for w in range(n) if l2[w] == l1[v]] for v in order}

    mapping: dict[int, int] = {}
    used: set[int] = set()

    def extend(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for w in cands[v]:
            if w in used:
                continue
            ok = True
            for u, mu in mapping.items():
                if ((u in adj1[v]) != (mu in adj2[w])):
                    ok = False
                    break
            if not ok:
                continue
            mapping[v] = w
            used.add(w)
            if extend(i + 1):
                return True
            del mapping[v]
            used.discard(w)
        return False

    return extend(0)
