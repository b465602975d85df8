"""Small undirected graphs: the shared carrier type plus isomorphism testing
and exhaustive catalogs.

Everything here is desk-scale by design (vertex counts in the single or low
double digits); the detectors and counting modules that sit on top all assume
exact answers, so no approximate or hash-based shortcuts are used.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise ValueError(f"self-loop at vertex {u} not allowed in SimpleGraph")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected graph on vertices 0..n-1, optionally vertex-colored.

    Edges are stored as a frozenset of ordered pairs (u < v); no self-loops.
    ``colors`` and ``names`` are optional parallel tuples over the vertices,
    used by the diagram representations and DOT export.
    """

    n: int
    edges: frozenset[tuple[int, int]]
    colors: tuple[int, ...] | None = None
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
        if self.colors is not None and len(self.colors) != self.n:
            raise ValueError("colors length must equal vertex count")
        if self.names is not None and len(self.names) != self.n:
            raise ValueError("names length must equal vertex count")

    @classmethod
    def from_edges(cls, n: int, edges, colors=None, names=None) -> "SimpleGraph":
        es = frozenset(_norm_edge(u, v) for u, v in edges)
        return cls(n, es,
                   tuple(colors) if colors is not None else None,
                   tuple(names) if names is not None else None)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def adjacency(self) -> list[set[int]]:
        adj = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def components(self) -> list[set[int]]:
        adj = self.adjacency()
        seen: set[int] = set()
        comps = []
        for s in range(self.n):
            if s in seen:
                continue
            comp = {s}
            stack = [s]
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            comps.append(comp)
        return comps

    def induced(self, vertices) -> "SimpleGraph":
        """Induced subgraph, relabeled to 0..len(vertices)-1 in sorted order."""
        return self._renumbered(sorted(vertices))

    def relabeled(self, perm) -> "SimpleGraph":
        """Apply vertex permutation ``perm`` (perm[old] = new)."""
        old = [0] * self.n
        for v, new in enumerate(perm):
            old[new] = v
        return self._renumbered(old)

    def _renumbered(self, old) -> "SimpleGraph":
        """The subgraph induced on the vertices ``old``, vertex old[i]
        becoming i, with its colors and names."""
        pos = {v: i for i, v in enumerate(old)}
        es = [(pos[u], pos[v]) for u, v in self.edges if u in pos and v in pos]
        return SimpleGraph.from_edges(
            len(old), es, None if self.colors is None else [self.colors[v] for v in old],
            None if self.names is None else [self.names[v] for v in old])


def path_graph(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> SimpleGraph:
    edges = [(i, (i + 1) % n) for i in range(n)]
    return SimpleGraph.from_edges(n, edges)


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, combinations(range(n), 2))


def star_graph(leaves: int) -> SimpleGraph:
    """K_{1,leaves} with the hub at vertex 0."""
    return SimpleGraph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def diamond_graph() -> SimpleGraph:
    """K4 minus one edge; the forbidden configuration for block graphs and cacti."""
    return SimpleGraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


# ---------------------------------------------------------------------------
# Isomorphism
# ---------------------------------------------------------------------------

def _refine_labels(g: SimpleGraph, respect_colors: bool) -> tuple[int, ...]:
    """Iterated degree/color refinement; returns a stable label per vertex."""
    adj = g.adjacency()
    if respect_colors and g.colors is not None:
        labels = [(g.colors[v], len(adj[v])) for v in range(g.n)]
    else:
        labels = [(0, len(adj[v])) for v in range(g.n)]
    for _ in range(g.n):
        sig = [(labels[v], tuple(sorted(labels[w] for w in adj[v]))) for v in range(g.n)]
        order = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [(order[sig[v]], len(adj[v])) for v in range(g.n)]
        if new == labels:
            break
        labels = new
    canon = {l: i for i, l in enumerate(sorted(set(labels)))}
    return tuple(canon[l] for l in labels)


def graphs_isomorphic(g1: SimpleGraph, g2: SimpleGraph, respect_colors: bool = False) -> bool:
    """Exact isomorphism decision by refinement plus backtracking.

    Intended for desk-scale inputs (up to ~20 vertices). When
    ``respect_colors`` is set, vertex colors must match under the bijection.
    """
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
    from collections import Counter
    freq = Counter(l1)
    order = sorted(range(n), key=lambda v: (freq[l1[v]], -len(adj1[v])))
    cands = {v: [w for w in range(n) if l2[w] == l1[v]] for v in order}

    # backtrack on an explicit stack: level i walks the candidates of order[i]
    if n == 0:
        return True
    mapping: dict[int, int] = {}
    used: set[int] = set()
    stack = [iter(cands[order[0]])]
    while stack:
        v = order[len(stack) - 1]
        for w in stack[-1]:
            if w not in used and all((u in adj1[v]) == (mu in adj2[w])
                                     for u, mu in mapping.items()):
                break
        else:
            stack.pop()
            if stack:
                used.discard(mapping.pop(order[len(stack) - 1]))
            continue
        mapping[v] = w
        used.add(w)
        if len(stack) == n:
            return True
        stack.append(iter(cands[order[len(stack)]]))
    return False


def graph_from_mask(n: int, mask: int) -> SimpleGraph:
    pairs = list(combinations(range(n), 2))
    return SimpleGraph.from_edges(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


# ---------------------------------------------------------------------------
# Exhaustive catalogs
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def all_graphs(n: int) -> tuple[SimpleGraph, ...]:
    """All graphs on exactly n vertices up to isomorphism (n <= 6), each the
    least edge bitmask of its orbit, in ascending order of that mask.

    Column i packs the image bit of edge slot i under every vertex
    permutation into one integer, one 16-bit field per permutation (at
    most 15 edge slots).  A mask's whole orbit is then the sum of the
    columns of its set bits: distinct edges map to distinct bits, so no
    field carries.  Sweeping the masks once and marking each unseen
    mask's orbit costs one integer sum per isomorphism class.
    """
    if n > 6:
        raise ValueError("all_graphs is limited to 6 vertices")
    if n == 0:
        return (SimpleGraph.from_edges(0, []),)
    pairs = list(combinations(range(n), 2))
    slot = {e: 1 << i for i, e in enumerate(pairs)}
    perms = list(permutations(range(n)))
    columns = [int.from_bytes(array("H", [slot[_norm_edge(p[u], p[v])] for p in perms]),
                              sys.byteorder) for u, v in pairs]
    width = 2 * len(perms)
    seen = bytearray(1 << len(pairs))
    reps = []
    for mask in range(len(seen)):
        if seen[mask]:
            continue
        reps.append(graph_from_mask(n, mask))
        orbit = sum(col for i, col in enumerate(columns) if mask >> i & 1)
        for image in array("H", orbit.to_bytes(width, sys.byteorder)):
            seen[image] = 1
    return tuple(reps)


def connected_graphs(n: int) -> tuple[SimpleGraph, ...]:
    """All connected graphs on exactly n vertices up to isomorphism."""
    return tuple(g for g in all_graphs(n) if g.is_connected())
