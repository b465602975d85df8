"""Star/clique representations, line graphs, isomorphism, Whitney bridge."""

import random

import pytest
from hypothesis import example, given, settings

from bifgraph import (
    Diagram, Edge, EnumerationSpec, SimpleGraph, Vertex, all_graphs, block_intersection_graph,
    complete_graph, connected_graphs, cycle_graph, enumerate_colored, free_trees, graphs_isomorphic,
    is_block_graph, is_claw_free, line_graph, path_graph, star_graph,
    saddle_node, to_clique, to_star, tree_to_diagram,
)
from bifgraph.laws import SADDLE_NODE
from helpers import (
    branched_to_star, canonical_mask, colored_tree_graph, constructible_diagrams, disjoint_union,
    looped_to_clique, pairwise_block_intersection_graph, pairwise_line_graph,
    random_connected_graph, recursive_graphs_isomorphic, star_diagram, swept_all_graphs,
    triangle_cactus, with_stack_room,
)


def path_with_chords(n: int, chords: int, seed: int) -> SimpleGraph:
    """A path on n vertices plus seeded random chords spanning 2 to 5
    steps, so that it splits into many blocks."""
    rng = random.Random(seed)
    starts = (rng.randrange(n - 5) for _ in range(chords))
    return SimpleGraph.from_edges(
        n, [(i, i + 1) for i in range(n - 1)] + [(i, i + rng.randint(2, 5)) for i in starts])


LARGE_GRAPHS = pytest.mark.parametrize(
    "g", [path_with_chords(600, 300, 11), triangle_cactus(2000)],
    ids=["path 600 + chords", "triangle cactus 2000"])


def test_saddle_node_becomes_single_edge():
    d = star_diagram(1, (-1,))
    star = to_star(d)
    assert star.n == 2 and star.edges == frozenset({(0, 1)})
    assert sorted(star.colors) == [-1, 1]
    assert to_clique(d) == star  # the 2-star is already complete


def test_doubling_becomes_three_star_with_hub_first():
    d = star_diagram(1, (0, 1))
    star = to_star(d)
    assert star.n == 3
    assert star.edges == frozenset({(0, 1), (0, 2)})  # hub is vertex 0
    assert star.colors[0] == 1 and sorted(star.colors[1:]) == [0, 1]
    clique = to_clique(d)
    assert graphs_isomorphic(clique, complete_graph(3))


def test_multiplying_clique_is_k4():
    d = star_diagram(1, (1, -1, 1), dimension=2)
    assert graphs_isomorphic(to_clique(d), complete_graph(4))
    assert to_star(d).edges < to_clique(d).edges


def test_star_and_clique_share_vertices_and_colors():
    for t in enumerate_colored(EnumerationSpec(2, 4, 5)):
        d = tree_to_diagram(t, 4)
        s, c = to_star(d), to_clique(d)
        assert s.n == c.n == len(d.edges)
        assert s.colors == c.colors
        assert s.edges <= c.edges
        all_sn = all(v.kind.name == SADDLE_NODE for v in d.vertices)
        assert (s.edges == c.edges) == all_sn


def test_star_of_acyclic_diagram_is_tree():
    for t in enumerate_colored(EnumerationSpec(2, 4, 6)):
        d = tree_to_diagram(t, 4)
        s = to_star(d)
        assert len(s.edges) == s.n - 1 and s.is_connected()
        assert graphs_isomorphic(s, colored_tree_graph(t), respect_colors=True)


@settings(deadline=None, max_examples=300)
@given(constructible_diagrams())
@example(Diagram(1, (Edge("a", 1, ("v", "v")),), (Vertex("v", saddle_node()),)))
def test_star_equals_the_two_branch_oracle(diagram):
    # saddle nodes, self-loops among them, through the one child split
    assert to_star(diagram) == branched_to_star(diagram)


@settings(deadline=None, max_examples=300)
@given(constructible_diagrams())
@example(Diagram(1, (Edge("a", 1, ("v", "v")),), (Vertex("v", saddle_node()),)))
def test_clique_equals_the_looped_oracle(diagram):
    assert to_clique(diagram) == looped_to_clique(diagram)


def test_clique_equals_the_looped_oracle_on_every_listed_tree():
    for k in (1, 2):
        for d in range(1, 5):
            for n in range(1, 6):
                for t in enumerate_colored(EnumerationSpec(k, d, n)):
                    diagram = tree_to_diagram(t, d)
                    assert to_clique(diagram) == looped_to_clique(diagram)


# -- line graphs -------------------------------------------------------------

def test_line_graph_examples():
    assert line_graph(path_graph(3)).edges == frozenset({(0, 1)})
    assert graphs_isomorphic(line_graph(star_graph(3)), complete_graph(3))
    assert graphs_isomorphic(line_graph(cycle_graph(5)), cycle_graph(5))


def test_line_graph_of_trees_is_claw_free_block_graph():
    for n in range(2, 10):
        for tree in free_trees(n):
            lg = line_graph(tree)
            assert is_block_graph(lg)
            assert is_claw_free(lg)


@pytest.mark.parametrize("n", range(7))
def test_line_graph_equals_the_pairwise_oracle_on_every_small_graph(n):
    # == compares the edge names too
    for g in all_graphs(n):
        assert line_graph(g) == pairwise_line_graph(g)


def test_line_graph_equals_the_pairwise_oracle_on_disjoint_unions():
    graphs = all_graphs(3) + all_graphs(4)
    for g in graphs:
        for h in graphs:
            union = disjoint_union(g, h)
            assert line_graph(union) == pairwise_line_graph(union)


@LARGE_GRAPHS
def test_line_graph_equals_the_pairwise_oracle_at_scale(g):
    assert line_graph(g) == pairwise_line_graph(g)


# -- block intersection graph ------------------------------------------------

@pytest.mark.parametrize("n", range(7))
def test_block_intersection_equals_the_pairwise_oracle_on_every_small_graph(n):
    for g in connected_graphs(n):
        assert block_intersection_graph(g) == pairwise_block_intersection_graph(g)


@LARGE_GRAPHS
def test_block_intersection_equals_the_pairwise_oracle_at_scale(g):
    assert block_intersection_graph(g) == pairwise_block_intersection_graph(g)


def test_block_intersection_examples():
    assert block_intersection_graph(cycle_graph(3)).n == 1
    two_tri = SimpleGraph.from_edges(
        5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    bg = block_intersection_graph(two_tri)
    assert bg.n == 2 and bg.edges == frozenset({(0, 1)})


def test_block_intersection_of_tree():
    for n in range(2, 9):
        for tree in free_trees(n):
            bg = block_intersection_graph(tree)
            assert bg.n == n - 1
            assert bg.is_connected()
            assert is_block_graph(bg)


def test_block_intersection_needs_connected_input():
    with pytest.raises(ValueError, match="block decomposition needs a connected graph"):
        block_intersection_graph(SimpleGraph.from_edges(4, [(0, 1), (2, 3)]))


# -- isomorphism -------------------------------------------------------------

def test_isomorphism_examples():
    assert graphs_isomorphic(complete_graph(3), cycle_graph(3))
    assert not graphs_isomorphic(star_graph(3), path_graph(4))
    c5 = cycle_graph(5)
    rotated = c5.relabeled([2, 3, 4, 0, 1])
    assert graphs_isomorphic(c5, rotated)


def test_isomorphism_respects_colors():
    g1 = SimpleGraph.from_edges(2, [(0, 1)], colors=(1, -1))
    g2 = SimpleGraph.from_edges(2, [(0, 1)], colors=(-1, 1))
    g3 = SimpleGraph.from_edges(2, [(0, 1)], colors=(1, 1))
    assert graphs_isomorphic(g1, g2, respect_colors=True)
    assert not graphs_isomorphic(g1, g3, respect_colors=True)


def test_isomorphism_agrees_with_canonical_masks():
    for n in (3, 4, 5):
        graphs = all_graphs(n)
        rng = random.Random(7)
        for _ in range(200):
            a, b = rng.choice(graphs), rng.choice(graphs)
            assert graphs_isomorphic(a, b) == (canonical_mask(a) == canonical_mask(b))


@pytest.mark.parametrize("n", range(6))
def test_isomorphism_equals_the_recursive_oracle_on_every_pair(n):
    # the second graph relabeled, so that equal classes reach the backtracking
    rng = random.Random(n)
    for a in all_graphs(n):
        for h in all_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            b = h.relabeled(perm)
            assert graphs_isomorphic(a, b) == recursive_graphs_isomorphic(a, b)
            a2 = SimpleGraph.from_edges(n, a.edges, colors=[v % 2 for v in range(n)])
            b2 = SimpleGraph.from_edges(n, b.edges, colors=[perm.index(v) % 2 for v in range(n)])
            assert (graphs_isomorphic(a2, b2, respect_colors=True)
                    == recursive_graphs_isomorphic(a2, b2, respect_colors=True))


def test_isomorphism_of_long_paths_does_not_recurse_per_vertex():
    p = path_graph(60)
    q = p.relabeled(list(range(30, 60)) + list(range(30)))
    assert with_stack_room(40, graphs_isomorphic, p, q)


@pytest.mark.parametrize("n", range(7))
def test_all_graphs_match_the_permutation_sweep(n):
    # the same least-mask representatives in the same order
    graphs = all_graphs(n)
    assert graphs == swept_all_graphs(n)
    assert len(graphs) == (1, 1, 2, 4, 11, 34, 156)[n]
    assert len(connected_graphs(n)) == (1, 1, 1, 2, 6, 21, 112)[n]


def test_whitney_correspondence_on_random_pairs():
    rng = random.Random(20260810)
    for _ in range(120):
        n = rng.randint(5, 8)
        g1 = random_connected_graph(rng, n)
        g2 = random_connected_graph(rng, n)
        same = graphs_isomorphic(g1, g2)
        same_lines = graphs_isomorphic(line_graph(g1), line_graph(g2))
        assert same == same_lines
