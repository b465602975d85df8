"""Running one benchmark job against bifgraph, and checking its output.

A job is one call into the public API: ``bifgraph.cli.main(argv)`` with
stdout captured when the spec has an ``argv``, otherwise the library
operation named by ``op``.  Functions are looked up on the package at call
time, so a tracer that rebinds them sees every call.

The checks do not compare against recorded outputs of some earlier
version.  They recompute the answer another way (an independent count DP,
brute force, the known catalog sizes, the construction of the input) or
check an identity that must hold (three spanning-tree counts agree,
emitted JSON re-parses to an equal document).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from fractions import Fraction
from itertools import combinations, permutations
from math import comb
from pathlib import Path

import inputs


class Runner:
    """Prepares a workload's inputs once and runs its jobs on demand."""

    def __init__(self, bg, jobs: list[dict], workdir: Path):
        self.bg = bg
        self.jobs = jobs
        self.prepared: dict[int, object] = {}
        workdir.mkdir(parents=True, exist_ok=True)
        for job in jobs:
            if "doc" in job:
                path = workdir / f"job{job['id']}.json"
                path.write_text(job["doc"], encoding="utf-8")
                if "argv" in job:
                    job["argv"] = [str(path) if a == "@doc" else a for a in job["argv"]]
            self.prepared[job["id"]] = self._prepare(job)

    def _prepare(self, job):
        bg = self.bg
        if "graph" in job and "op" in job:
            g = bg.SimpleGraph.from_edges(job["n"], [tuple(e) for e in job["graph"]])
            if job["op"] == "isomorphic":
                return g, bg.SimpleGraph.from_edges(job["n"], [tuple(e) for e in job["other"]])
            return g
        if job.get("op") == "roundtrip":
            return colored_tree(bg, job["tree"])
        return None

    def run(self, job):
        """Execute one job; returns a comparable output value."""
        bg = self.bg
        if "argv" in job:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = bg.cli.main(job["argv"])
            return code, out.getvalue()
        op, arg = job["op"], self.prepared[job["id"]]
        if op == "validate":
            diagram = bg.parse_diagram(job["doc"])
            report = bg.validate_diagram(diagram, job["k"], bg.builtin_table(diagram.dimension))
            rep = None
            if "represent" in job:
                to = bg.to_star if job["represent"] == "star" else bg.to_clique
                g = to(diagram)
                rep = (g.n, len(g.edges))
            return report.ok, sorted({v.code for v in report.violations}), rep
        if op == "roundtrip":
            diagram = bg.tree_to_diagram(arg, job["d"])
            text = bg.emit_diagram(diagram)
            return text, bg.emit_diagram(bg.parse_diagram(text)) == text
        if op == "shapes":
            return bg.count_shapes(job["k"], job["n"], job["mode"])
        if op == "all_graphs":
            return len(bg.all_graphs(job["n"]))
        if op == "connected_graphs":
            return len(bg.connected_graphs(job["n"]))
        if op == "spanning3":
            return (bg.spanning_count_kirchhoff(arg), bg.tutte_11(arg),
                    len(bg.spanning_enumerate_brute(arg)))
        if op == "isomorphic":
            return bg.graphs_isomorphic(*arg)
        if op == "vamos_graphic":
            return bg.has_vamos_minor(bg.graphic_matroid(arg))
        raise ValueError(f"unknown op {op!r}")


def colored_tree(bg, nested):
    """ColoredTree from the [color, [children]] form, without recursion."""
    order, stack = [], [nested]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node[1])
    built = {}
    for node in reversed(order):
        built[id(node)] = bg.ColoredTree(node[0], tuple(built.pop(id(c)) for c in node[1]))
    return built[id(nested)]


# ---------------------------------------------------------------------------
# Reference answers
# ---------------------------------------------------------------------------

class Oracle:
    """Independent answers, memoised across the jobs of one run."""

    def __init__(self, bg):
        self.bg = bg
        self._plane: dict = {}
        self._enum: dict = {}

    def plane_counts(self, table, arity: int, n_max: int) -> list[int]:
        """Admissible plane colored trees on n = 0..n_max nodes, by a
        bottom-up coefficient table: a node with c children picks c of its
        ``arity`` slots, an ordering of an admissible child-color multiset,
        and a forest whose sizes sum to n - 1."""
        key = (table, arity)
        got = self._plane.get(key)
        if got is not None and len(got[0]) > n_max:
            return [sum(got[c][n] for c in (-1, 0, 1)) for n in range(n_max + 1)]
        # ordered color tuples per (parent color, c), weighted by comb(arity, c)
        rules = {color: [(comb(arity, c), t) for c in range(1, arity + 1)
                         for ms in inputs.ref_splits(table, c, color)
                         for t in sorted(set(permutations(ms)))]
                 for color in (-1, 0, 1)}
        suffixes = sorted({t[i:] for r in rules.values() for _, t in r
                           for i in range(len(t))}, key=len)
        a = {c: [0, 1] for c in (-1, 0, 1)}
        prod = {s: [0] for s in suffixes}  # prod[s][m]: forests of colors s, m nodes
        prod[()] = [1]
        for n in range(2, n_max + 1):
            m = n - 1
            prod[()].append(0)
            for s in suffixes:
                if not s:
                    continue
                head, rest = a[s[0]], prod[s[1:]]
                prod[s].append(sum(head[x] * rest[m - x] for x in range(1, m + 1)))
            for color in (-1, 0, 1):
                a[color].append(sum(w * prod[t][m] for w, t in rules[color]))
        self._plane[key] = a
        return [sum(a[c][n] for c in (-1, 0, 1)) for n in range(n_max + 1)]

    def enumerated(self, k: int, d: int, n: int, mode: str, law_doc=None) -> int:
        """Length of the program's explicit enumeration (small n only)."""
        key = (k, d, n, mode, law_doc)
        if key not in self._enum:
            bg = self.bg
            table = bg.load_law_table(law_doc) if law_doc else None
            spec = bg.EnumerationSpec(k, d, n, mode, table)
            self._enum[key] = len(bg.enumerate_colored(spec))
        return self._enum[key]


def _table_of(job):
    extra = [(kind, p, tuple(ch)) for kind, p, ch in job.get("extra", ())]
    return inputs.ref_table(job["d"], extra)


def _shape_count(k: int, n: int, mode: str) -> int:
    """Tree shapes on n nodes with at most k + 1 children per node: plane
    shapes choose slots among k + 1 (the Fuss-Catalan number), free shapes
    are multisets of at most k + 1 subtrees (bounded Euler transform)."""
    m = k + 1
    if mode == "plane":
        return comb(m * n, n) // ((m - 1) * n + 1)
    rooted = [0, 1]
    for size in range(2, n + 1):
        # forests[j][s]: multisets of j subtrees, s nodes, sizes < size
        forests = [[1] + [0] * (size - 1)] + [[0] * size for _ in range(m)]
        for t in range(1, size):
            for j in range(m, 0, -1):
                for s in range(size - 1, t - 1, -1):
                    forests[j][s] += sum(comb(rooted[t] + c - 1, c) * forests[j - c][s - c * t]
                                         for c in range(1, j + 1) if c * t <= s)
        rooted.append(sum(forests[j][size - 1] for j in range(1, m + 1)))
    return rooted[n]


def _spanning_count(n: int, edges) -> int:
    """Matrix-tree theorem with exact Fraction elimination."""
    if n == 1:
        return 1
    lap = [[Fraction(0)] * n for _ in range(n)]
    for u, v in edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    m = [row[1:] for row in lap[1:]]
    det = Fraction(1)
    for i in range(len(m)):
        pivot = next((r for r in range(i, len(m)) if m[r][i]), None)
        if pivot is None:
            return 0
        if pivot != i:
            m[i], m[pivot] = m[pivot], m[i]
            det = -det
        det *= m[i][i]
        for r in range(i + 1, len(m)):
            f = m[r][i] / m[i][i]
            for c in range(i, len(m)):
                m[r][c] -= f * m[i][c]
    return int(det)


def _line_edges(edges) -> int:
    return sum(1 for e1, e2 in combinations(edges, 2) if set(e1) & set(e2))


def _claw_free(n: int, edges) -> bool:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return not any(b not in adj[a] and c not in adj[a] and c not in adj[b]
                   for v in range(n) for a, b, c in combinations(sorted(adj[v]), 3))


def _lcrs(tree):
    """Left-child/right-sibling binary form, as {"left", "right"} objects."""
    def node(kids, i):
        # binary node for kids[i], whose right child is kids[i + 1]
        return {"left": node(kids[i], 0) if kids[i] else None,
                "right": node(kids, i + 1) if i + 1 < len(kids) else None}
    return {"left": node(tree, 0) if tree else None, "right": None}


def _tree_ok(tree, k: int, table, n: int) -> bool:
    """One emitted colored tree: n nodes, at most k+1 distinct slots per
    node, and every internal node's child colors admissible."""
    count, stack = 0, [tree]
    while stack:
        node = stack.pop()
        count += 1
        kids = node["children"]
        if kids:
            slots = node.get("slots")
            if (len(kids) > k + 1 or slots is None or len(slots) != len(kids)
                    or len(set(slots)) != len(slots) or not all(0 <= s <= k for s in slots)):
                return False
            colors = tuple(sorted(c["color"] for c in kids))
            if colors not in inputs.ref_splits(table, len(kids), node["color"]):
                return False
        stack.extend(kids)
    return count == n


def check(job: dict, output, oracle: Oracle) -> bool:
    """True when ``output`` is the right answer for ``job``."""
    fam = job["family"]
    if fam in ("counts", "free", "lawtable"):
        code, text = output
        rows = list(csv.reader(io.StringIO(text)))
        if code != 0 or rows[0] != ["k", "d", "n", "mode", "count"]:
            return False
        k, d, n = job["k"], job["d"], job["n"]
        want = [[str(k), str(d), str(i), job["mode"]] for i in range(1, n + 1)]
        if [r[:4] for r in rows[1:]] != want:
            return False
        got = [int(r[4]) for r in rows[1:]]
        if fam == "free":
            return all(got[i - 1] == oracle.enumerated(k, d, i, "free") for i in range(1, n + 1))
        ref = oracle.plane_counts(_table_of(job), k + 1, n)
        if got != ref[1:]:
            return False
        law_doc = job.get("doc")
        return all(got[i - 1] == oracle.enumerated(k, d, i, "plane", law_doc)
                   for i in range(1, min(n, 6) + 1))
    if fam in ("ratio", "share"):
        code, text = output
        n = job["n"]
        if fam == "ratio":
            lo = oracle.plane_counts(inputs.ref_table(job["d"]), job["k1"] + 1, n)
            hi = oracle.plane_counts(inputs.ref_table(job["d"]), job["k2"] + 1, n)
            want = [Fraction(hi[i], lo[i]) if lo[i] else None for i in range(1, n + 1)]
        else:
            lo = oracle.plane_counts(inputs.ref_table(job["d1"]), job["k"] + 1, n)
            hi = oracle.plane_counts(inputs.ref_table(job["d2"]), job["k"] + 1, n)
            want = [Fraction(lo[i], hi[i]) if hi[i] else None for i in range(1, n + 1)]
        want_rows = [(i + 1, None if v is None else f"{v.numerator}/{v.denominator}")
                     for i, v in enumerate(want)]
        return code == 0 and [(r["n"], r["value"]) for r in json.loads(text)] == want_rows
    if fam in ("tree", "periodic", "ring", "chain"):
        if "argv" in job:
            code, text = output
            doc = json.loads(text)
            codes = sorted({v["code"] for v in doc["violations"]})
            ok = code == (0 if job["valid"] else 1) and doc["valid"] == job["valid"]
            return ok and codes == job["codes"]
        valid, codes, rep = output
        if "represent" in job and rep != (job["branches"], job["rep_edges"]):
            return False
        return valid == job["valid"] and codes == job["codes"]
    if fam == "enum_json":
        code, text = output
        trees = json.loads(text)
        if code != 0 or json.dumps(trees, indent=2, sort_keys=True) + "\n" != text:
            return False
        table = inputs.ref_table(job["d"])
        want = oracle.plane_counts(table, job["k"] + 1, job["n"])[job["n"]]
        distinct = {json.dumps(t, sort_keys=True) for t in trees}
        return (len(trees) == want == len(distinct)
                and all(_tree_ok(t, job["k"], table, job["n"]) for t in trees))
    if fam == "enum_dot":
        code, text = output
        want = oracle.plane_counts(inputs.ref_table(job["d"]), job["k"] + 1, job["n"])[job["n"]]
        lines = text.splitlines()
        graphs = sum(1 for line in lines if line.startswith("graph t"))
        links = sum(1 for line in lines if " -- " in line)
        return code == 0 and graphs == want and links == want * (job["n"] - 1)
    if fam in ("repr", "line"):
        code, text = output
        if fam == "repr":
            vertices, edges = job["vertices"], job["edges"]
        else:
            vertices, edges = len(job["graph"]), _line_edges(job["graph"])
        if code != 0:
            return False
        if job["emit"] == "json":
            doc = json.loads(text)
            return (json.dumps(doc, indent=2) + "\n" == text and doc["vertexCount"] == vertices
                    and len(doc["edges"]) == edges)
        lines = text.splitlines()
        nodes = sum(1 for line in lines if line.startswith("  n") and " -- " not in line)
        return nodes == vertices and sum(1 for line in lines if " -- " in line) == edges
    if fam == "convert":
        code, text = output
        doc = json.loads(text)
        return (code == 0 and json.dumps(doc, indent=2) + "\n" == text
                and doc == _lcrs(json.loads(job["doc"])))
    if fam == "roundtrip":
        text, equal = output
        doc = json.loads(text)
        return (equal and json.dumps(doc, indent=2) + "\n" == text
                and len(doc["edges"]) == job["branches"]
                and len(doc["vertices"]) == job["vertices"])
    if fam == "shapes":
        return output == _shape_count(job["k"], job["n"], job["mode"])
    if fam == "catalog":
        return output == job["count"]
    if fam == "classify":
        code, text = output
        facts = json.loads(text)
        n, edges = job["n"], job["graph"]
        g = oracle.bg.SimpleGraph.from_edges(n, [tuple(e) for e in edges])
        # a connected graph is a cactus exactly when it has no diamond minor
        return (code == 0 and facts["tree"] == (len(edges) == n - 1)
                and facts["claw_free"] == _claw_free(n, edges)
                and facts["cactus"] == (not facts["diamond_minor"])
                and facts["block_graph"] == oracle.bg.is_block_graph_by_obstructions(g))
    if fam == "spanning":
        code, text = output
        doc = json.loads(text)
        return (code == 0 and doc["method"] == job["method"]
                and doc["count"] == str(_spanning_count(job["n"], job["graph"])))
    if fam == "spanning3":
        want = _spanning_count(job["n"], job["graph"])
        return output == (want, want, want)
    if fam == "isomorphic":
        return output == job["iso"]
    if fam == "matroid_rank":
        code, text = output
        return code == 0 and json.loads(text)["rank"] == job["rank"]
    if fam == "vamos_graphic":
        return output is False
    if fam == "vamos_coloops":
        code, text = output
        return code == 1 and json.loads(text) == {"vamosMinor": True, "representable": False}
    raise ValueError(f"unknown family {fam!r}")
