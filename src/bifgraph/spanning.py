"""Spanning-tree counting: determinant route, brute-force oracle, and the
deletion-contraction evaluation that equals the spanning-tree count on
connected graphs (and the product of per-component counts otherwise).

Counts are exact integers throughout; the determinant is taken with
fraction-free integer elimination rather than floating-point eigenvalues.
"""

from __future__ import annotations

from itertools import combinations
from math import prod

from .graphs import SimpleGraph


def _int_det(mat: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant of an integer matrix."""
    n = len(mat)
    if n == 0:
        return 1
    m = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _is_forest(n: int, edges, mask: int | None = None) -> bool:
    """True when the edges on vertices 0..n-1 close no cycle (union-find);
    with ``mask``, only the edges ``edges[i]`` whose bit i is set."""
    if mask is None:
        mask = (1 << len(edges)) - 1
    parent = list(range(n))
    while mask:
        low = mask & -mask
        mask ^= low
        u, v = edges[low.bit_length() - 1]
        # find both roots, halving the paths: targets bind left to right
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u == v:
            return False
        parent[u] = v
    return True


def _laplacian(n: int, edges) -> list[list[int]]:
    """Degree matrix minus adjacency matrix of a multigraph, loops skipped:
    symmetric, zero row sums."""
    lap = [[0] * n for _ in range(n)]
    for u, v in edges:
        if u == v:
            continue
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    return lap


def laplacian(g: SimpleGraph) -> list[list[int]]:
    """Degree matrix minus adjacency matrix: symmetric, zero row sums."""
    return _laplacian(g.n, g.edges)


def spanning_count_edges(n: int, edges) -> int:
    """Spanning-tree count of a multigraph given as an edge list (parallel
    edges allowed, loops ignored), via the reduced-Laplacian determinant."""
    return _int_det([row[1:] for row in _laplacian(n, edges)[1:]])


def spanning_count_kirchhoff(g: SimpleGraph) -> int:
    """Number of spanning trees via any principal minor of the Laplacian.

    Returns 0 on disconnected input (no spanning tree exists).
    """
    if g.n > 1 and not g.is_connected():
        return 0
    return spanning_count_edges(g.n, g.edges)


def spanning_enumerate_brute(g: SimpleGraph) -> list[tuple[tuple[int, int], ...]]:
    """All spanning trees as edge subsets, by direct search (<= 8 vertices)."""
    if g.n > 8:
        raise ValueError("brute-force spanning enumeration is limited to 8 vertices")
    if g.n <= 1:
        return [()]
    return [subset for subset in combinations(g.sorted_edges(), g.n - 1)
            if _is_forest(g.n, subset)]


def _span_dc(n: int, edges: tuple) -> int:
    """Spanning-tree count by deletion-contraction on a multigraph with n
    vertices, whatever their labels: contracting (u, v) renames v to u.
    Loops contribute a factor of one and are dropped."""
    edges = tuple(e for e in edges if e[0] != e[1])
    if n == 1:
        return 1
    if not edges:
        return 0
    (u, v), rest = edges[0], edges[1:]
    return _span_dc(n, rest) + _span_dc(
        n - 1, tuple((u if a == v else a, u if b == v else b) for a, b in rest))


def tutte_11(g: SimpleGraph) -> int:
    """Deletion-contraction count of maximal spanning forests: equals the
    spanning-tree count when g is connected, and the product of the
    per-component counts otherwise."""
    if len(g.edges) > 20:
        raise ValueError("deletion-contraction recursion is limited to 20 edges")
    edges = g.sorted_edges()
    return prod(_span_dc(len(comp), tuple(e for e in edges if e[0] in comp))
                for comp in g.components())
