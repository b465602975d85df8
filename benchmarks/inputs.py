"""Seeded input generation for the four benchmark workloads.

``generate(workload, seed)`` returns a list of job specs: plain JSON data
(argument vectors, document texts, expected answers), so the same seed
always gives byte-identical inputs and the program under test receives
only generated inputs.  Nothing here imports bifgraph: the admissibility
laws the generators sample from are restated below from the paper's law
tables, which keeps the expected answers independent of the code under test.

Each workload has a fixed job composition (how many jobs of each family);
the seed draws the parameters, sizes and orderings.  Sizes are drawn from
fixed strata, so every seed exercises the same size range.
"""

from __future__ import annotations

import json
import random
from itertools import combinations

WORKLOADS = ("counting", "validation", "emission", "structures")

# ---------------------------------------------------------------------------
# Reference law tables (the paper's catalogs, d = 1..4; d >= 4 adds nothing)
# ---------------------------------------------------------------------------

SN, PD, TM, JN = "saddle_node", "period_doubling", "type_m", "junction"


def ref_table(d: int, extra=()) -> tuple[frozenset, frozenset]:
    """(entries, junction families) of the built-in table for dimension d,
    plus ``extra`` entries given as (kind, parent, sorted children)."""
    entries = {(SN, 1, (-1,)), (SN, -1, (1,)), (PD, 1, (0, 1))}
    families = {("doubling", 1)}
    if d >= 2:
        entries.add((TM, 1, (-1, 1, 1)))
        families.add(("multiplying", 1))
    if d >= 3:
        entries |= {(SN, 0, (0,)), (PD, 0, (-1, 1)), (PD, -1, (-1, 0)),
                    (TM, -1, (-1, -1, 1))}
        families |= {("doubling", -1), ("multiplying", -1)}
    if d >= 4:
        entries |= {(TM, 0, (0, 0, 0)), (TM, 0, (-1, 0, 1))}
        families.add(("all_zero", 0))
    return frozenset(entries) | frozenset(extra), frozenset(families)


def _kind_name(c: int) -> str:
    return {1: SN, 2: PD, 3: TM}.get(c, JN)


def ref_splits(table, c: int, parent: int) -> tuple[tuple[int, ...], ...]:
    """Admissible sorted child-index multisets for a node with c children."""
    entries, families = table
    kind = _kind_name(c)
    out = {ch for (k, p, ch) in entries if k == kind and p == parent and len(ch) == c}
    if kind == JN:
        for family, p in families:
            if p != parent:
                continue
            if family == "doubling":
                out.add(tuple(sorted((p,) + (0,) * (c - 1))))
            elif family == "multiplying" and c % 2 == 1 and c >= 5:
                h = (c - 1) // 2
                out.add(tuple(sorted((p,) * (h + 1) + (-p,) * h)))
            elif family == "all_zero" and c % 3 == 0 and c >= 6:
                out.add((0,) * c)
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# Random admissible colored trees
# ---------------------------------------------------------------------------

def sample_tree(rng: random.Random, table, max_children: int,
                n: int) -> tuple[list[int], list[list[int]]]:
    """A random admissible colored tree on exactly n nodes, as parallel
    lists (colors, children) indexed by node number; node 0 is the root.

    Leaves are expanded in random order with a uniformly chosen admissible
    split, so depth stays logarithmic in n on average.
    """
    counts = range(1, max_children + 1)
    while True:
        root = rng.choice([1, -1])
        colors, children = [root], [[]]
        frontier = [0]
        while len(colors) < n and frontier:
            i = rng.randrange(len(frontier))
            node = frontier[i]
            room = n - len(colors)
            options = [ch for c in counts if c <= room
                       for ch in ref_splits(table, c, colors[node])]
            frontier[i] = frontier[-1]
            frontier.pop()
            if not options:
                continue
            kids = list(rng.choice(options))
            rng.shuffle(kids)
            for color in kids:
                children[node].append(len(colors))
                frontier.append(len(colors))
                colors.append(color)
                children.append([])
        if len(colors) == n:
            return colors, children


def tree_nested(children, colors=None):
    """Nested form built without recursion: [color, [children]] when
    colors are given, else the ordered-tree document [children...]."""
    built = {}
    order = []
    stack = [0]
    while stack:
        u = stack.pop()
        order.append(u)
        stack.extend(children[u])
    for u in reversed(order):
        kids = [built.pop(w) for w in children[u]]
        built[u] = kids if colors is None else [colors[u], kids]
    return built[0]


def tree_doc(colors, children, dimension: int, periods=None, multipliers=None) -> dict:
    """Diagram document with one branch per tree node: node i's branch is
    edge ``e<i>`` and an internal node i is vertex ``v<i>``.  The root's far
    end and every leaf end are terminals."""
    edges, vertices = [], []
    upper = {0: "terminal"}
    for u in range(len(colors)):
        kids = children[u]
        lower = f"v{u}" if kids else "terminal"
        edge = {"id": f"e{u}", "index": colors[u]}
        if periods is not None:
            edge["period"] = periods[u]
        edge["endpoints"] = [upper[u], lower]
        edges.append(edge)
        for w in kids:
            upper[w] = lower
        if not kids:
            continue
        c = len(kids)
        kind = _kind_name(c)
        if kind == TM:
            kind_json = {TM: (multipliers or {}).get(u)}
        elif kind == JN:
            kind_json = {JN: c}
        else:
            kind_json = kind
        vertex = {"id": f"v{u}", "kind": kind_json}
        if kind != SN:
            vertex["parentEdge"] = f"e{u}"
        vertices.append(vertex)
    return {"schemaVersion": "1", "dimension": dimension,
            "edges": edges, "vertices": vertices}


def plant_leaf_index(rng: random.Random, doc: dict, colors, children) -> list[str]:
    """Change the index of one leaf branch; returns the expected codes.

    The leaf's vertex no longer conserves the index, so it also fails the
    law lookup (every law entry conserves), and a junction whose children
    now use three indices also breaks the two-index rule."""
    leaves = [(u, w) for u in range(len(colors)) for w in children[u]
              if not children[w]]
    parent, leaf = rng.choice(leaves)
    new = rng.choice([x for x in (-1, 0, 1) if x != colors[leaf]])
    doc["edges"][leaf]["index"] = new
    kids_after = {new if w == leaf else colors[w] for w in children[parent]}
    codes = ["conservation", "law"]
    if len(children[parent]) >= 4 and len(kids_after) > 2:
        codes.append("junction_two_index")
    return sorted(codes)


# -- period-labelled trees ---------------------------------------------------

def _chain_leaves(rng: random.Random, p: int, c: int, multiplying: bool) -> list[int]:
    """Leaf periods of a random chain of elementary events from period p:
    doublings q -> {q, 2q}, or m-fold events q -> {q, mq, mq}."""
    leaves = [p]
    while len(leaves) < c:
        q = leaves.pop(rng.randrange(len(leaves)))
        if multiplying:
            m = rng.choice((3, 4, 5))
            leaves += [q, m * q, m * q]
        else:
            leaves += [q, 2 * q]
    return leaves


def periodic_tree(rng: random.Random, d: int, k: int, n: int):
    """Random admissible tree with a consistent minimal-period labelling."""
    table = ref_table(d)
    colors, children = sample_tree(rng, table, k + 1, n)
    periods = [0] * n
    periods[0] = rng.choice((1, 2, 3))
    multipliers = {}
    order = [0]
    for u in order:
        kids = children[u]
        order.extend(kids)
        c, p = len(kids), periods[u]
        if c == 0:
            continue
        if c == 1:
            got = [p]
        elif c == 2:
            got = [p, 2 * p]
        elif c == 3:
            m = rng.choice((3, 4, 5))
            multipliers[u] = m
            got = [p, m * p, m * p]
        else:
            got = _chain_leaves(rng, p, c, multiplying=c % 2 == 1 and rng.random() < 0.5)
        rng.shuffle(got)
        for w, q in zip(kids, got):
            periods[w] = q
    return colors, children, periods, multipliers


def period_spots(children) -> list[int]:
    """Leaves right below a saddle node or a doubling."""
    return [w for u in range(len(children)) if len(children[u]) in (1, 2)
            for w in children[u] if not children[w]]


def plant_period(rng: random.Random, doc: dict, children) -> list[str]:
    """Triple the period of one leaf below a saddle node or a doubling; no
    decomposition can absorb that, so exactly the period rule fails."""
    leaf = rng.choice(period_spots(children))
    doc["edges"][leaf]["period"] *= 3
    return ["period"]


# -- saddle-node rings and chains --------------------------------------------

def ring_doc(m: int, d: int, colors) -> dict:
    edges = [{"id": f"r{i}", "index": colors[i],
              "endpoints": [f"s{i}", f"s{(i + 1) % m}"]} for i in range(m)]
    vertices = [{"id": f"s{i}", "kind": SN} for i in range(m)]
    return {"schemaVersion": "1", "dimension": d, "edges": edges, "vertices": vertices}


def chain_doc(m: int, d: int, colors) -> dict:
    names = ["terminal"] + [f"s{i}" for i in range(m)] + ["terminal"]
    edges = [{"id": f"c{i}", "index": colors[i], "endpoints": [names[i], names[i + 1]]}
             for i in range(m + 1)]
    vertices = [{"id": f"s{i}", "kind": SN} for i in range(m)]
    return {"schemaVersion": "1", "dimension": d, "edges": edges, "vertices": vertices}


def saddle_family(rng: random.Random, shape: str, m: int, d: int, planted: bool):
    """A ring or chain of m saddle nodes that satisfies every law in d, and
    optionally one changed branch index with its expected codes.

    Rings alternate +1/-1 (even m), or in d = 3 may be an odd all-zero ring.
    Changing one branch index breaks conservation and the saddle-node pair
    law at both of its ends; on a ring it also breaks the parity law unless
    the ring is even in d >= 3, where even cycles are unconstrained."""
    odd_zero = shape == "ring" and d >= 3 and rng.random() < 0.5
    if shape == "ring":
        m += (m % 2) ^ odd_zero
        count = m
    else:
        count = m + 1
    colors = [0] * count if odd_zero else [1 - 2 * (i % 2) for i in range(count)]
    if rng.random() < 0.5 and not odd_zero:
        colors = [-c for c in colors]
    codes: list[str] = []
    if planted:
        # a chain's end branches touch one saddle node; pick an inner one
        i = rng.randrange(count) if shape == "ring" else rng.randrange(1, count - 1)
        colors[i] = 1 if odd_zero else 0
        codes = ["conservation", "law"]
        if shape == "ring" and (d <= 2 or m % 2 == 1):
            codes.append("cycle_parity")
    doc = ring_doc(m, d, colors) if shape == "ring" else chain_doc(m, d, colors)
    return doc, sorted(codes)


# ---------------------------------------------------------------------------
# Small graphs
# ---------------------------------------------------------------------------

def random_connected_graph(rng: random.Random, n: int, extra: int) -> list[list[int]]:
    """Random spanning tree on n vertices plus ``extra`` further edges."""
    edges = {tuple(sorted((v, rng.randrange(v)))) for v in range(1, n)}
    others = [e for e in combinations(range(n), 2) if e not in edges]
    rng.shuffle(others)
    edges |= set(others[:extra])
    return sorted([list(e) for e in edges])


def graph_doc(n: int, edges) -> str:
    return json.dumps({"vertexCount": n, "edges": edges})


def spanning_trees_of(n: int, edges) -> list[list[list[int]]]:
    """Spanning trees by brute force: the bases of the graphic matroid."""
    out = []
    for subset in combinations(edges, n - 1):
        parent = list(range(n))
        ok = True
        for u, v in subset:
            while parent[u] != u:
                u = parent[u]
            while parent[v] != v:
                v = parent[v]
            if u == v:
                ok = False
                break
            parent[u] = v
        if ok:
            out.append([list(e) for e in subset])
    return out


VAMOS_QUADS = (("a1", "a2", "b1", "b2"), ("a1", "a2", "c1", "c2"),
               ("b1", "b2", "c1", "c2"), ("a1", "a2", "d1", "d2"),
               ("b1", "b2", "d1", "d2"))
VAMOS = ("a1", "a2", "b1", "b2", "c1", "c2", "d1", "d2")


def vamos_coloops_doc(coloops: int) -> str:
    """Bases document of the Vamos matroid plus ``coloops`` coloops."""
    extra = [f"z{i}" for i in range(coloops)]
    quads = {frozenset(q) for q in VAMOS_QUADS}
    bases = [sorted(b) + extra for b in combinations(VAMOS, 4)
             if frozenset(b) not in quads]
    return json.dumps({"groundSet": list(VAMOS) + extra, "bases": bases})


# ---------------------------------------------------------------------------
# Workload job lists
# ---------------------------------------------------------------------------

def _strata(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """``count`` sizes spread evenly over [lo, hi], in random order.  Each
    moves by at most 5% and at most a quarter of the spacing, so every seed
    covers the range the same way: the seed changes the inputs but hardly
    the amount of work."""
    step = (hi - lo) / max(1, count - 1)
    centers = [lo + i * step for i in range(count)] if count > 1 else [(lo + hi) / 2]
    out = [min(hi, max(lo, round(c + rng.uniform(-1, 1) * min(0.05 * c, 0.25 * step))))
           for c in centers]
    rng.shuffle(out)
    return out


def _law_entry_json(kind: str, parent: int, children) -> dict:
    kind_json = kind if kind == PD else {kind: 3 if kind == TM else len(children)}
    return {"kind": kind_json, "parent": parent, "children": list(children)}


def _extra_entries(d: int) -> list[tuple]:
    """Entries absent from the d-table that a user table may add: every
    conserving doubling, 3-way or 4-junction split that the always-forbidden
    rules allow."""
    base, _ = ref_table(d)
    out = []
    for c, kind in ((2, PD), (3, TM), (4, JN)):
        for parent in (-1, 0, 1):
            for ch in sorted({tuple(sorted(x)) for x in
                              combinations((-1, -1, -1, -1, 0, 0, 0, 0, 1, 1, 1, 1), c)}):
                if sum(ch) != parent or (kind, parent, ch) in base:
                    continue
                if kind == PD and parent == 0 and ch == (0, 0):
                    continue
                if kind == TM and parent != 0 and sorted(ch) == sorted((0, parent, 0)):
                    continue
                if kind == JN and len(set(ch)) > 2:
                    continue
                out.append((kind, parent, ch))
    return out


KD = [(k, d) for k in (1, 2, 3) for d in (1, 2, 3, 4)]
BUSHY = [(d, k) for d in (2, 3, 4) for k in (1, 2, 3) if (d, k) != (2, 1)]
PATHLIKE = [(1, 1), (1, 2), (1, 3), (2, 1)]


def counting_jobs(rng: random.Random) -> list[dict]:
    # every (k, d) pair gets the same number of jobs from the same size
    # strata: the cost of a count depends strongly on k and d
    jobs = []

    def counts(k, d, n, mode="plane"):
        argv = ["enumerate", "--k", str(k), "--d", str(d), "--n", str(n)]
        if mode == "free":
            argv += ["--mode", "free"]
        jobs.append({"family": "counts" if mode == "plane" else "free", "k": k, "d": d,
                     "n": n, "mode": mode, "argv": argv + ["--emit", "counts"]})

    for k, d in KD:
        for n in _strata(rng, 3, 10, 100):
            counts(k, d, n)
        counts(k, d, _strata(rng, 1, 6, 8)[0], "free")
    counts(1, 4, 220)  # fixed: the largest tables set the peak memory
    counts(2, 4, 200)
    counts(1, 3, 9, "free")
    counts(1, 4, 9, "free")
    for k in (1, 2, 3):
        jobs.append({"family": "shapes", "op": "shapes", "k": k, "mode": "plane",
                     "n": _strata(rng, 1, 50, 200)[0]})
        jobs.append({"family": "shapes", "op": "shapes", "k": k, "mode": "free",
                     "n": _strata(rng, 1, 9, 12)[0]})
    for (k1, k2) in ((1, 2), (1, 3), (2, 3)):
        for d in (1, 2, 3, 4):
            for n in _strata(rng, 2, 10, 80):
                jobs.append({"family": "ratio", "k1": k1, "k2": k2, "d": d, "n": n,
                             "argv": ["ratio", "--k1", str(k1), "--k2", str(k2),
                                      "--d", str(d), "--n-max", str(n), "--json"]})
    # sizes go to dimensions in a fixed order: the cost depends strongly on
    # d, so a shuffled pairing would make the seed change the amount of work
    for k in (1, 2, 3):
        pairs = ((1, 4), (2, 3), (3, 4), (1, 2)) * 2
        for (d1, d2), n in zip(pairs, sorted(_strata(rng, len(pairs), 10, 70))):
            jobs.append({"family": "share", "k": k, "d1": d1, "d2": d2, "n": n,
                         "argv": ["share", "--k", str(k), "--d1", str(d1), "--d2", str(d2),
                                  "--n-max", str(n), "--json"]})
    for i, n in enumerate(sorted(_strata(rng, 12, 20, 100))):
        k, d = 3, 1 + i % 4
        pool = _extra_entries(d)
        extra = sorted(rng.sample(pool, min(len(pool), rng.randint(1, 3))))
        doc = json.dumps({"schemaVersion": "1", "dimension": d, "mode": "extend",
                          "entries": [_law_entry_json(*e) for e in extra]})
        jobs.append({"family": "lawtable", "k": k, "d": d, "n": n, "mode": "plane",
                     "extra": [[kind, p, list(ch)] for kind, p, ch in extra], "doc": doc,
                     "argv": ["enumerate", "--k", str(k), "--d", str(d), "--n", str(n),
                              "--emit", "counts", "--law-table", "@doc"]})
    return jobs


def validation_jobs(rng: random.Random) -> list[dict]:
    jobs = []

    def add(family, doc, k, codes, extra=None, lib=False):
        job = {"family": family, "doc": json.dumps(doc), "k": k,
               "valid": not codes, "codes": codes}
        job.update(extra or {})
        if lib or len(jobs) % 2:
            job["op"] = "validate"
        else:
            job["argv"] = ["validate", "@doc", "--k", str(k), "--json"]
        jobs.append(job)

    def tree(d, k, n, planted, represent):
        colors, children = sample_tree(rng, ref_table(d), k + 1, n)
        doc = tree_doc(colors, children, d)
        codes = plant_leaf_index(rng, doc, colors, children) if planted else []
        extra = {"branches": n}
        if represent:
            # star: one edge per non-root branch; clique: C(deg, 2) per vertex
            extra["represent"] = "star" if planted else "clique"
            extra["rep_edges"] = (n - 1 if planted else
                                  sum((len(c) + 1) * len(c) // 2 for c in children if c))
        add("tree", doc, k, codes, extra, lib=represent)

    # Tree cost depends on shape: in d = 1, and in d = 2 with k = 1, only one
    # child of each event can split again, so trees grow as long paths and the
    # cycle search is far slower per branch than on bushy trees.
    for d, k in BUSHY:
        for i, n in enumerate(_strata(rng, 3, 50, 500)):
            tree(d, k, n, planted=bool(i % 2), represent=i == 1 or (i == 0 and k == 2))
    for d, k in PATHLIKE:
        for i, n in enumerate(_strata(rng, 2, 30, 300)):
            tree(d, k, n, planted=bool(i % 2), represent=False)
    tree(4, 3, _strata(rng, 1, 1200, 1500)[0], planted=False, represent=False)

    for d in (1, 2, 3, 4):
        for k in (3, 4):
            for i, n in enumerate(_strata(rng, 4, 20, 300)):
                planted = bool((i + k) % 2)
                colors, children, periods, mult = periodic_tree(rng, d, k, n)
                while planted and not period_spots(children):
                    colors, children, periods, mult = periodic_tree(rng, d, k, n)
                doc = tree_doc(colors, children, d, periods, mult)
                codes = plant_period(rng, doc, children) if planted else []
                add("periodic", doc, k, codes, {"branches": n})

    for shape in ("ring", "chain"):
        for d in (2, 3):
            for i, m in enumerate(_strata(rng, 12, 10, 130)):
                doc, codes = saddle_family(rng, shape, m, d, planted=bool(i % 2))
                add(shape, doc, 1, codes, {"branches": len(doc["edges"])})
        # past the depth the recursive cycle search can reach
        doc, codes = saddle_family(rng, shape, rng.randint(1100, 1250),
                                   2 if shape == "ring" else 3, planted=False)
        add(shape, doc, 1, codes, {"branches": len(doc["edges"])})
    rng.shuffle(jobs)
    return jobs


def emission_jobs(rng: random.Random) -> list[dict]:
    jobs = []
    for k in (1, 2):
        for d in (1, 2, 3, 4):
            for n in (4, 5, 6) if k == 1 else (4, 5):
                jobs.append({"family": "enum_json", "k": k, "d": d, "n": n,
                             "argv": ["enumerate", "--k", str(k), "--d", str(d),
                                      "--n", str(n), "--emit", "json"]})
            for n in (4, 5, 6) if k == 1 else (4, 5):
                jobs.append({"family": "enum_dot", "k": k, "d": d, "n": n,
                             "argv": ["enumerate", "--k", str(k), "--d", str(d),
                                      "--n", str(n), "--emit", "dot"]})
    for i, n in enumerate(_strata(rng, 30, 5, 60)):
        d, k = 1 + i % 4, 1 + i % 3
        colors, children = sample_tree(rng, ref_table(d), k + 1, n)
        form = "--star" if i % 2 else "--clique"
        emit = "json" if i % 4 < 2 else "dot"
        edges = (n - 1 if form == "--star" else
                 sum((len(c) + 1) * len(c) // 2 for c in children if c))
        jobs.append({"family": "repr", "doc": json.dumps(tree_doc(colors, children, d)),
                     "vertices": n, "edges": edges, "emit": emit,
                     "argv": ["repr", "@doc", form, "--emit", emit]})
    for n in _strata(rng, 15, 5, 12):
        edges = random_connected_graph(rng, n, rng.randint(0, n))
        emit = rng.choice(("json", "dot"))
        jobs.append({"family": "line", "doc": graph_doc(n, edges), "n": n, "graph": edges,
                     "emit": emit, "argv": ["repr", "@doc", "--line", "--emit", emit]})
    for n in _strata(rng, 15, 10, 200):
        _, children = sample_tree(rng, ref_table(4), 4, n)
        jobs.append({"family": "convert", "doc": json.dumps(tree_nested(children)),
                     "argv": ["convert", "@doc"]})
    for i, n in enumerate(_strata(rng, 20, 10, 200)):
        d, k = 1 + i % 4, 1 + i % 3
        colors, children = sample_tree(rng, ref_table(d), k + 1, n)
        jobs.append({"family": "roundtrip", "op": "roundtrip", "d": d,
                     "tree": tree_nested(children, colors), "branches": n,
                     "vertices": sum(1 for c in children if c)})
    rng.shuffle(jobs)
    return jobs


ALL_GRAPHS = {4: 11, 5: 34, 6: 156}
CONNECTED_GRAPHS = {4: 6, 5: 21, 6: 112}


def structures_jobs(rng: random.Random) -> list[dict]:
    jobs = []
    for op, n in (("all_graphs", 5), ("all_graphs", 6), ("connected_graphs", 5),
                  ("connected_graphs", 6)):
        jobs.append({"family": "catalog", "op": op, "n": n,
                     "count": (ALL_GRAPHS if op == "all_graphs" else CONNECTED_GRAPHS)[n]})
    # The diamond-minor search grows steeply with n: 7 and 8 vertices stay rare.
    for n in [5] * 8 + [6] * 9 + [7, 7, 8]:
        edges = random_connected_graph(rng, n, rng.randint(0, n))
        jobs.append({"family": "classify", "doc": graph_doc(n, edges), "n": n,
                     "graph": edges, "argv": ["classify", "@doc", "--json"]})
    for i, n in enumerate(_strata(rng, 24, 4, 7)):
        edges = random_connected_graph(rng, n, rng.randint(0, min(5, n * (n - 1) // 2 - n + 1)))
        method = ("kirchhoff", "brute", "tutte")[i % 3]
        jobs.append({"family": "spanning", "doc": graph_doc(n, edges), "n": n,
                     "graph": edges, "method": method,
                     "argv": ["spanning", "@doc", "--method", method, "--json"]})
    for n in _strata(rng, 14, 4, 7):
        edges = random_connected_graph(rng, n, rng.randint(0, 5))
        jobs.append({"family": "spanning3", "op": "spanning3", "n": n, "graph": edges})
    for i, n in enumerate(_strata(rng, 24, 6, 9)):
        edges = random_connected_graph(rng, n, rng.randint(1, n))
        perm = list(range(n))
        rng.shuffle(perm)
        other = sorted(sorted((perm[u], perm[v])) for u, v in edges)
        iso = i % 2 == 0
        if not iso:
            other = _change_degrees(rng, n, other)
        jobs.append({"family": "isomorphic", "op": "isomorphic", "n": n, "graph": edges,
                     "other": other, "iso": iso})
    for i in range(8):
        if i % 2:
            n = rng.randint(4, 5)
            edges = random_connected_graph(rng, n, rng.randint(1, 3))
            bases = spanning_trees_of(n, [tuple(e) for e in edges])
            ground = [list(e) for e in edges]
            doc = json.dumps({"groundSet": [f"{u}-{v}" for u, v in ground],
                              "bases": [[f"{u}-{v}" for u, v in b] for b in bases]})
            rank = n - 1
        else:
            coloops = rng.randint(0, 3)
            doc, rank = vamos_coloops_doc(coloops), 4 + coloops
        jobs.append({"family": "matroid_rank", "doc": doc, "rank": rank,
                     "argv": ["matroid", "@doc", "--json"]})
    # Vamos-minor search on graphic matroids of 6 vertices and m edges; its
    # cost grows steeply and steadily with m.  The ten 11-edge searches are
    # the jobs around the 90th latency percentile, so it moves with them.
    for m in [8, 9, 10, 12, 13] + [11] * 10:
        jobs.append({"family": "vamos_graphic", "op": "vamos_graphic", "n": 6,
                     "graph": random_connected_graph(rng, 6, m - 5), "vamos": False})
    jobs.append({"family": "vamos_graphic", "op": "vamos_graphic", "n": 6,
                 "graph": [list(e) for e in combinations(range(6), 2)], "vamos": False})
    for coloops in _strata(rng, 8, 0, 4):
        jobs.append({"family": "vamos_coloops", "doc": vamos_coloops_doc(coloops),
                     "vamos": True, "argv": ["matroid", "@doc", "--vamos-minor", "--json"]})
    rng.shuffle(jobs)
    return jobs


def _change_degrees(rng: random.Random, n: int, edges) -> list:
    """Move one edge so the sorted degree sequence changes: the result is
    certainly not isomorphic to the input."""
    def degrees(es):
        deg = [0] * n
        for u, v in es:
            deg[u] += 1
            deg[v] += 1
        return sorted(deg)

    present = {tuple(e) for e in edges}
    absent = [e for e in combinations(range(n), 2) if e not in present]
    before = degrees(edges)
    moves = [(drop, add) for drop in sorted(present) for add in absent]
    rng.shuffle(moves)
    for drop, add in moves:
        after = sorted(present - {drop} | {add})
        if degrees(after) != before:
            return [list(e) for e in after]
    raise ValueError("no degree-changing edge move")


GENERATORS = {"counting": counting_jobs, "validation": validation_jobs,
              "emission": emission_jobs, "structures": structures_jobs}


def generate(workload: str, seed: int) -> list[dict]:
    """The workload's job specs for ``seed``, numbered in run order."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = GENERATORS[workload](rng)
    for i, job in enumerate(jobs):
        job["id"] = i
    return jobs
