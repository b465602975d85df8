"""networkx as a third, independent oracle for the graph layer.

networkx is a test-only dependency; without it these tests are skipped.
"""

import random

import pytest

from bifgraph import (
    SimpleGraph, block_decomposition, graphs_isomorphic, is_chordal, spanning_count_kirchhoff,
)
from helpers import filled_graph, random_connected_graph, random_graph

nx = pytest.importorskip("networkx")


def to_nx(g: SimpleGraph):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def test_blocks_and_cut_vertices_match_networkx():
    rng = random.Random(31)
    for _ in range(80):
        g = random_connected_graph(rng, rng.randint(2, 12))
        dec = block_decomposition(g)
        h = to_nx(g)
        assert sorted(map(sorted, dec.blocks)) == sorted(map(sorted, nx.biconnected_components(h)))
        assert dec.cut_vertices == set(nx.articulation_points(h))
        want = sorted(sorted(tuple(sorted(e)) for e in es)
                      for es in nx.biconnected_component_edges(h))
        assert sorted(map(sorted, dec.block_edges)) == want


def test_kirchhoff_matches_networkx():
    rng = random.Random(32)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(2, 10))
        want = round(nx.number_of_spanning_trees(to_nx(g)))
        assert spanning_count_kirchhoff(g) == want


def test_isomorphism_matches_networkx():
    rng = random.Random(33)
    for _ in range(150):
        n = rng.randint(1, 8)
        p = rng.uniform(0.2, 0.6)
        a = random_graph(rng, n, p)
        # a relabelled copy half the time, an independent draw otherwise
        if rng.random() < 0.5:
            perm = list(range(n))
            rng.shuffle(perm)
            b = a.relabeled(perm)
        else:
            b = random_graph(rng, n, p)
        assert graphs_isomorphic(a, b) == nx.is_isomorphic(to_nx(a), to_nx(b))


def test_chordality_matches_networkx():
    # random graphs are rarely chordal, so each is also tested filled in
    rng = random.Random(34)
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 14), rng.uniform(0.1, 0.6))
        for h in (g, filled_graph(rng, g)):
            assert is_chordal(h) == nx.is_chordal(to_nx(h)), h.edges
