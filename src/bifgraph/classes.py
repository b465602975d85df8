"""Graph-class detectors (block graphs, cacti, claw-free, diamond minors)
and the exact counting formulas for labeled block graphs and cacti.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, factorial, prod

from .graphs import SimpleGraph


@dataclass(frozen=True)
class BlockDecomposition:
    """Biconnected components of a connected graph.

    ``blocks`` are vertex sets, ``block_edges`` the matching edge sets (they
    partition the edges); the block-cut tree has one vertex per block
    followed by one per cut vertex, with an edge whenever the cut vertex
    lies in the block.
    """

    blocks: tuple[frozenset[int], ...]
    block_edges: tuple[frozenset[tuple[int, int]], ...]
    cut_vertices: frozenset[int]
    block_cut_tree: SimpleGraph


def block_decomposition(g: SimpleGraph) -> BlockDecomposition:
    """Blocks by the iterative depth-first search of Hopcroft and Tarjan,
    in a deterministic order.  The cut vertices are read off the sorted
    blocks: a vertex is a cut vertex exactly when it lies in two blocks."""
    if not g.is_connected():
        raise ValueError("block decomposition needs a connected graph")
    if g.n == 0:
        return BlockDecomposition((), (), frozenset(), SimpleGraph.from_edges(0, []))
    if g.n == 1:
        return BlockDecomposition((frozenset({0}),), (frozenset(),), frozenset(),
                                  SimpleGraph.from_edges(1, []))

    adj = [sorted(s) for s in g.adjacency()]
    disc = {0: 0}
    low = {0: 0}
    edge_stack: list[tuple[int, int]] = []
    raw_blocks: list[list[tuple[int, int]]] = []
    stack = [(0, -1, iter(adj[0]))]
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
            continue
        if w == pu:
            continue
        if w not in disc:
            disc[w] = low[w] = len(disc)
            edge_stack.append((u, w))
            stack.append((w, u, iter(adj[w])))
        elif disc[w] < disc[u]:
            edge_stack.append((u, w))
            low[u] = min(low[u], disc[w])

    pairs = [(frozenset(v for e in b for v in e),
              frozenset(tuple(sorted(e)) for e in b))
             for b in raw_blocks]
    pairs.sort(key=lambda p: tuple(sorted(p[0])))
    blocks = tuple(p[0] for p in pairs)
    block_edges = tuple(p[1] for p in pairs)

    seen: set[int] = set()
    cuts: set[int] = set()
    for blk in blocks:
        cuts |= blk & seen
        seen |= blk
    b = len(blocks)
    cut_node = {c: b + j for j, c in enumerate(sorted(cuts))}
    tree_edges = [(i, cut_node[v]) for i, blk in enumerate(blocks)
                  for v in blk if v in cut_node]
    bct = SimpleGraph.from_edges(b + len(cut_node), tree_edges)
    return BlockDecomposition(blocks, block_edges, frozenset(cuts), bct)


# ---------------------------------------------------------------------------
# Detectors
# ---------------------------------------------------------------------------

def is_block_graph(g: SimpleGraph) -> bool:
    """Connected graph whose every biconnected component is a clique."""
    dec = block_decomposition(g)
    for verts, edges in zip(dec.blocks, dec.block_edges):
        if len(edges) != comb(len(verts), 2):
            return False
    return True


def has_diamond_subgraph(g: SimpleGraph) -> bool:
    """Two triangles sharing an edge, i.e. an edge with two common neighbors
    (not necessarily induced; K4 qualifies)."""
    adj = g.adjacency()
    return any(len(adj[u] & adj[v]) >= 2 for u, v in g.edges)


def has_induced_diamond(g: SimpleGraph) -> bool:
    """An induced K4-minus-an-edge: an edge whose two common neighbors are
    themselves non-adjacent."""
    adj = g.adjacency()
    for u, v in g.edges:
        common = sorted(adj[u] & adj[v])
        for x, y in combinations(common, 2):
            if y not in adj[x]:
                return True
    return False


def is_chordal(g: SimpleGraph) -> bool:
    """No induced cycle of length >= 4: the reverse of a maximum cardinality
    search order is a perfect elimination order.  Keeping the unplaced
    vertices in buckets by weight makes the search linear (Tarjan and
    Yannakakis, 1984).  When v is placed, its placed neighbours must all be
    adjacent to the one placed last."""
    n = g.n
    adj = g.adjacency()
    weight = [0] * n
    buckets = [set(range(n))] + [set() for _ in range(n)]
    pos: dict[int, int] = {}
    top = 0
    for _ in range(n):
        while not buckets[top]:
            top -= 1
        v = buckets[top].pop()
        later = [w for w in adj[v] if w in pos]
        if later:
            u = max(later, key=pos.__getitem__)
            if any(w != u and w not in adj[u] for w in later):
                return False
        pos[v] = len(pos)
        for w in adj[v]:
            if w not in pos:
                buckets[weight[w]].remove(w)
                weight[w] += 1
                buckets[weight[w]].add(w)
                top = max(top, weight[w])
    return True


def is_block_graph_by_obstructions(g: SimpleGraph) -> bool:
    """Second characterization of block graphs: no induced diamond and no
    induced cycle of four or more vertices."""
    if not g.is_connected():
        raise ValueError("needs a connected graph")
    return not has_induced_diamond(g) and is_chordal(g)


def is_cactus(g: SimpleGraph) -> bool:
    """Connected graph in which every edge lies in at most one cycle: each
    block is a single edge or a chordless cycle."""
    dec = block_decomposition(g)
    for verts, edges in zip(dec.blocks, dec.block_edges):
        if len(edges) not in (0, 1) and len(edges) != len(verts):
            return False
    return True


def is_claw_free(g: SimpleGraph) -> bool:
    """No induced three-leaf star."""
    adj = g.adjacency()
    for v in range(g.n):
        nb = sorted(adj[v])
        for trio in combinations(nb, 3):
            a, b, c = trio
            if b not in adj[a] and c not in adj[a] and c not in adj[b]:
                return False
    return True


def has_diamond_minor(g: SimpleGraph) -> bool:
    """True when g, connected or not, has the diamond (K4 minus an edge) as
    a minor.

    A connected graph has no diamond minor exactly when it is a cactus,
    i.e. every block is an edge or a cycle (El-Mallah and Colbourn, 1988).
    The components are first chained together by bridges, which are blocks
    of their own, so one ``is_cactus`` call decides every component in
    linear time.
    """
    comps = g.components()
    bridges = [(min(a), min(b)) for a, b in zip(comps, comps[1:])]
    return not is_cactus(SimpleGraph.from_edges(g.n, [*g.edges, *bridges]))


# ---------------------------------------------------------------------------
# Exact counting formulas (labeled graphs)
# ---------------------------------------------------------------------------

def _spec_totals(sizes: dict[int, int]) -> tuple[int, int]:
    for i, cnt in sizes.items():
        if i < 2:
            raise ValueError("block/polygon sizes start at 2")
        if cnt < 0:
            raise ValueError("multiplicities are nonnegative")
    n = sum(cnt * (i - 1) for i, cnt in sizes.items()) + 1
    k = sum(sizes.values())
    return n, k


def husimi_count(block_sizes: dict[int, int]) -> int:
    """Number of labeled connected block graphs with the given multiset of
    block sizes: (n-1)! / prod_i ((i-1)!^{n_i} n_i!) * n^{k-1}."""
    n, k = _spec_totals(block_sizes)
    if k == 0:
        return 1
    denom = 1
    for i, cnt in block_sizes.items():
        denom *= factorial(i - 1) ** cnt * factorial(cnt)
    num = factorial(n - 1) * n ** (k - 1)
    q, r = divmod(num, denom)
    assert r == 0, "block-graph count must be an integer"
    return q


def cactus_count(polygon_sizes: dict[int, int]) -> int:
    """Number of labeled connected cacti with the given multiset of polygon
    sizes (a polygon of size 2 is a plain edge):
    (n-1)! / (2^t * prod_i n_i!) * n^{k-1}, with the reflection factor 2
    applied only to polygons of size >= 3.

    Literal application of the 1/2 to size-2 polygons would count a single
    labeled edge as one half; the brute-force oracle fixes the convention.
    The value is an integer: (n-1)! / prod_i ((i-1)!^{n_i} n_i!) counts
    set partitions, and each polygon of size i >= 3 adds a factor (i-1)!/2.
    """
    n, k = _spec_totals(polygon_sizes)
    if k == 0:
        return 1
    t = sum(cnt for i, cnt in polygon_sizes.items() if i >= 3)
    denom = 2 ** t
    for cnt in polygon_sizes.values():
        denom *= factorial(cnt)
    q, r = divmod(factorial(n - 1) * n ** (k - 1), denom)
    assert r == 0, "cactus count must be an integer"
    return q


def double_factorial(m: int) -> int:
    return prod(range(m, 0, -2))


def triangular_cactus_count(nodes: int) -> int:
    """Number of labeled triangular cacti (every edge on a triangle) on an
    odd number of nodes 2t+1: nodes^{(nodes-3)/2} * (nodes-2)!!.

    The closed form is read with its variable as the node count; the
    triangle-count reading gives non-integers already at five nodes, while
    this reading matches brute-force enumeration.
    """
    if nodes < 1 or nodes % 2 == 0:
        raise ValueError("triangular cacti exist only on an odd number of nodes")
    if nodes == 1:
        return 1
    return nodes ** ((nodes - 3) // 2) * double_factorial(nodes - 2)
