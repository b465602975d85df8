"""Representations of diagrams as vertex-colored graphs.

Both encodings interchange branch colors and vertices: every orbit branch
becomes one output vertex colored by its index, and each bifurcation event
contributes either a star (hub = the bifurcating branch) or a complete graph
on all incident branches.  A saddle node contributes a single edge in both.
"""

from __future__ import annotations

from itertools import combinations

from .classes import block_decomposition
from .diagram import Diagram
from .graphs import SimpleGraph


def _branch_vertices(diagram: Diagram):
    order = [e.id for e in diagram.edges]
    pos = {eid: i for i, eid in enumerate(order)}
    colors = tuple(e.index for e in diagram.edges)
    names = tuple(str(eid) for eid in order)
    return pos, colors, names


def to_star(diagram: Diagram) -> SimpleGraph:
    """Star representation: one vertex per branch; each event joins a hub to
    every other branch of its ``Diagram.child_edges``: the bifurcating
    branch to its children, a saddle node's first branch to its second.
    The output is a tree exactly when the diagram is acyclic.  Degenerate
    loops (an event both of whose slots hold the same branch) add no edge."""
    pos, colors, names = _branch_vertices(diagram)
    edges = set()
    for v in diagram.vertices:
        kids = diagram.child_edges(v)
        hub = pos[kids[0].id if v.parent_edge is None else v.parent_edge]
        for child in kids:
            if pos[child.id] != hub:
                edges.add(tuple(sorted((hub, pos[child.id]))))
    return SimpleGraph.from_edges(len(pos), edges, colors, names)


def to_clique(diagram: Diagram) -> SimpleGraph:
    """Clique representation: same vertices as the star form, but each event
    contributes a complete graph on all of its incident branches."""
    pos, colors, names = _branch_vertices(diagram)
    edges = (pair for v in diagram.vertices
             for pair in combinations({pos[e.id] for e in diagram.incident_edges(v.id)}, 2))
    return SimpleGraph.from_edges(len(pos), edges, colors, names)


def line_graph(g: SimpleGraph) -> SimpleGraph:
    """Line graph: one vertex per edge of g, adjacent when the edges share
    an endpoint.  Each vertex of g pairs the edges listed at it."""
    es = g.sorted_edges()
    at = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(es):
        at[u].append(i)
        at[v].append(i)
    out = (pair for ids in at for pair in combinations(ids, 2))
    return SimpleGraph.from_edges(len(es), out, names=[f"{u}-{v}" for u, v in es])


def block_intersection_graph(g: SimpleGraph) -> SimpleGraph:
    """Intersection graph of the biconnected components: one vertex per
    block, adjacent when two blocks share a cut vertex.  Always a block
    graph.  Each cut vertex pairs its neighbours in the block-cut tree,
    the blocks that hold it.  ``block_decomposition`` rejects a
    disconnected input."""
    dec = block_decomposition(g)
    b = len(dec.blocks)
    tree = dec.block_cut_tree.adjacency()
    return SimpleGraph.from_edges(b, (pair for c in range(b, len(tree))
                                      for pair in combinations(tree[c], 2)))
