"""Spanning-tree counts: determinant, brute force, deletion-contraction."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bifgraph import (
    SimpleGraph, all_graphs, complete_graph, connected_graphs, cycle_graph, laplacian,
    path_graph, spanning_count_edges, spanning_count_kirchhoff,
    spanning_enumerate_brute, tutte_11,
)
from bifgraph.spanning import _int_det
from helpers import (
    disjoint_union, guarded_spanning_count_edges, random_connected_graph, relabeled_tutte_11,
)


def test_examples():
    assert spanning_count_kirchhoff(SimpleGraph.from_edges(1, [])) == 1
    assert spanning_count_kirchhoff(complete_graph(3)) == 3
    assert spanning_count_kirchhoff(complete_graph(4)) == 16  # Cayley 4^2
    assert spanning_count_kirchhoff(cycle_graph(4)) == 4
    assert spanning_count_kirchhoff(path_graph(5)) == 1


def test_cayley_formula():
    for n in range(2, 8):
        assert spanning_count_kirchhoff(complete_graph(n)) == n ** (n - 2)


def test_laplacian_shape():
    lap = laplacian(cycle_graph(4))
    assert all(sum(row) == 0 for row in lap)
    assert [lap[i][i] for i in range(4)] == [2, 2, 2, 2]
    assert lap == [list(col) for col in zip(*lap)]


def test_brute_examples():
    assert len(spanning_enumerate_brute(path_graph(3))) == 1
    assert len(spanning_enumerate_brute(cycle_graph(4))) == 4
    assert len(spanning_enumerate_brute(complete_graph(4))) == 16
    with pytest.raises(ValueError):
        spanning_enumerate_brute(complete_graph(9))


def test_tutte_examples():
    assert tutte_11(cycle_graph(3)) == 3
    two_triangles = SimpleGraph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert tutte_11(two_triangles) == 9
    assert tutte_11(SimpleGraph.from_edges(2, [(0, 1)])) == 1


def test_disconnected_counts():
    g = SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
    assert spanning_count_kirchhoff(g) == 0
    assert tutte_11(g) == 1


def test_three_routes_agree_small():
    for n in range(1, 6):
        for g in connected_graphs(n):
            kirchhoff = spanning_count_kirchhoff(g)
            assert kirchhoff == len(spanning_enumerate_brute(g))
            assert kirchhoff == tutte_11(g)


def test_deletion_contraction_identity():
    rng = random.Random(31)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(3, 7))
        full = spanning_count_kirchhoff(g)
        for e in sorted(g.edges):
            deleted = SimpleGraph(g.n, g.edges - {e})
            d_count = spanning_count_kirchhoff(deleted) if deleted.is_connected() else 0
            assert d_count <= full  # deleting never increases the count
            u, v = e
            keep = [x for x in range(g.n) if x != v]
            pos = {x: i for i, x in enumerate(keep)}
            merged = []
            for a, b in g.edges - {e}:
                a2 = u if a == v else a
                b2 = u if b == v else b
                merged.append((pos[a2], pos[b2]))
            c_count = spanning_count_edges(g.n - 1, merged)
            assert full == d_count + c_count


def test_multigraph_determinant():
    # two vertices joined by three parallel edges: three spanning trees
    assert spanning_count_edges(2, [(0, 1), (0, 1), (0, 1)]) == 3
    # loops never matter
    assert spanning_count_edges(2, [(0, 1), (1, 1)]) == 1


def test_int_det_swaps_rows_and_stops_at_a_zero_pivot():
    assert _int_det([[0, 1], [1, 0]]) == -1
    # vertex 1 is isolated: its Laplacian row is zero, so no pivot exists
    assert spanning_count_edges(4, [(0, 2), (2, 3)]) == 0


@pytest.mark.parametrize("n", range(7))
def test_counts_equal_the_relabeling_oracles_on_every_graph(n):
    for g in all_graphs(n):
        assert tutte_11(g) == relabeled_tutte_11(g)
        assert spanning_count_edges(g.n, g.edges) == guarded_spanning_count_edges(g.n, g.edges)


def test_counts_equal_the_relabeling_oracles_on_disjoint_unions():
    small = [g for n in range(4) for g in all_graphs(n)]
    for g in small:
        for h in small:
            union = disjoint_union(g, h)
            assert tutte_11(union) == relabeled_tutte_11(union) == tutte_11(g) * tutte_11(h)
            assert (spanning_count_edges(union.n, union.edges)
                    == guarded_spanning_count_edges(union.n, union.edges))


@st.composite
def _multigraphs(draw):
    n = draw(st.integers(0, 6))
    vertex = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=10)) if n else []
    return n, edges


@given(_multigraphs())
def test_edge_count_equals_the_guarded_oracle_on_multigraphs(graph):
    # parallel edges and loops included
    n, edges = graph
    assert spanning_count_edges(n, edges) == guarded_spanning_count_edges(n, edges)
