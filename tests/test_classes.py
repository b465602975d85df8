"""Block decomposition, class detectors, and the labeled counting formulas."""

import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from bifgraph import (
    SimpleGraph, all_graphs, block_decomposition, cactus_count, complete_graph,
    connected_graphs, cycle_graph, diamond_graph, free_trees,
    has_diamond_minor, has_diamond_subgraph, husimi_count, is_block_graph,
    is_block_graph_by_obstructions, is_cactus, is_chordal, is_claw_free,
    path_graph, star_graph, triangular_cactus_count,
)
from bifgraph.classes import double_factorial
from helpers import (
    disjoint_union, filled_graph, labeled_graphs, random_connected_graph, random_graph, scanned_is_chordal,
    searched_diamond_minor, tracked_block_decomposition, triangle_cactus,
)

TWO_TRIANGLES = SimpleGraph.from_edges(
    5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])


def test_block_decomposition_examples():
    dec = block_decomposition(cycle_graph(3))
    assert len(dec.blocks) == 1 and not dec.cut_vertices

    dec = block_decomposition(path_graph(3))
    assert sorted(dec.blocks) == [frozenset({0, 1}), frozenset({1, 2})]
    assert dec.cut_vertices == {1}

    dec = block_decomposition(TWO_TRIANGLES)
    assert len(dec.blocks) == 2 and dec.cut_vertices == {2}


def test_block_decomposition_invariants():
    rng = random.Random(5)
    for _ in range(60):
        g = random_connected_graph(rng, rng.randint(2, 8))
        dec = block_decomposition(g)
        covered = set().union(*dec.block_edges) if dec.block_edges else set()
        assert covered == set(g.sorted_edges())
        bct = dec.block_cut_tree
        assert len(bct.edges) == bct.n - len(bct.components())  # forest
        for c in dec.cut_vertices:
            rest = g.induced([v for v in range(g.n) if v != c])
            assert len(rest.components()) > 1


def test_block_cut_tree_joins_each_block_to_its_cut_vertices():
    rng = random.Random(9)
    for _ in range(60):
        g = random_connected_graph(rng, rng.randint(2, 9))
        dec = block_decomposition(g)
        cuts = sorted(dec.cut_vertices)
        b = len(dec.blocks)
        want = SimpleGraph.from_edges(b + len(cuts), [
            (i, b + j) for i, blk in enumerate(dec.blocks)
            for j, c in enumerate(cuts) if c in blk])
        assert dec.block_cut_tree == want
        assert list(dec.blocks) == sorted(dec.blocks, key=sorted)


def test_block_decomposition_needs_connected():
    with pytest.raises(ValueError):
        block_decomposition(SimpleGraph.from_edges(4, [(0, 1), (2, 3)]))


@pytest.mark.parametrize("n", range(7))
def test_block_decomposition_equals_the_tracking_oracle(n):
    # every labeled connected graph: every field, the block order included
    for edges in labeled_graphs(n):
        g = SimpleGraph.from_edges(n, edges)
        if g.is_connected():
            assert block_decomposition(g) == tracked_block_decomposition(g), edges


def test_block_decomposition_equals_the_tracking_oracle_on_large_graphs():
    for g, cuts in ((cycle_graph(2000), set()), (triangle_cactus(2000), set(range(2, 2000, 2)))):
        dec = block_decomposition(g)
        assert dec == tracked_block_decomposition(g)
        assert dec.cut_vertices == cuts


def test_block_graph_by_obstructions_needs_connected():
    with pytest.raises(ValueError):
        is_block_graph_by_obstructions(SimpleGraph.from_edges(4, [(0, 1), (2, 3)]))


def test_detector_examples():
    assert not is_block_graph(diamond_graph())
    assert not is_cactus(diamond_graph())
    assert has_diamond_subgraph(diamond_graph())
    assert not is_block_graph(cycle_graph(4))
    assert is_cactus(cycle_graph(4))
    assert is_block_graph(path_graph(5)) and is_cactus(path_graph(5))
    assert is_claw_free(path_graph(5))
    assert not is_claw_free(star_graph(3))
    assert is_block_graph(complete_graph(4))
    assert not is_cactus(complete_graph(4))
    assert is_block_graph(TWO_TRIANGLES) and is_cactus(TWO_TRIANGLES)


def test_every_tree_is_block_graph_and_cactus():
    for n in range(1, 9):
        for tree in free_trees(n):
            assert is_block_graph(tree)
            assert is_cactus(tree)


def test_chordality():
    assert is_chordal(complete_graph(4))
    assert is_chordal(path_graph(5))
    assert not is_chordal(cycle_graph(4))
    assert not is_chordal(cycle_graph(6))


def test_chordality_equals_the_scanning_search_exhaustively():
    # every graph on at most six vertices, a seeded relabeling of each, its
    # disjoint union with a random graph on four vertices, and its fill-in
    # by eliminating the vertices in a random order (always chordal)
    rng = random.Random(41)
    fours = all_graphs(4)
    for n in range(7):
        for g in all_graphs(n):
            perm = rng.sample(range(n), n)
            for h in (g, g.relabeled(perm), disjoint_union(g, rng.choice(fours)),
                      filled_graph(rng, g)):
                assert is_chordal(h) == scanned_is_chordal(h), h.edges
    assert all(is_chordal(filled_graph(rng, g)) for g in all_graphs(6))


def test_chordality_is_linear_on_a_long_path_with_chords():
    # the scanning search took seconds here; a chordal and a chordless case
    n = 8000
    path = [(i, i + 1) for i in range(n - 1)]
    start = time.perf_counter()
    assert is_chordal(SimpleGraph.from_edges(n, path + [(i, i + 2) for i in range(0, n - 2, 2)]))
    assert not is_chordal(SimpleGraph.from_edges(n, path + [(0, n - 1)]))
    assert time.perf_counter() - start < 2


def test_block_graph_characterizations_agree_exhaustively():
    for n in range(1, 7):
        for g in connected_graphs(n):
            assert is_block_graph(g) == is_block_graph_by_obstructions(g)


def test_block_graph_characterizations_agree_sampled_seven():
    rng = random.Random(77)
    for _ in range(300):
        g = random_connected_graph(rng, 7)
        assert is_block_graph(g) == is_block_graph_by_obstructions(g)


def test_diamond_minor_examples():
    assert has_diamond_minor(complete_graph(4))
    assert has_diamond_minor(complete_graph(5))
    assert not has_diamond_minor(path_graph(6))
    assert not has_diamond_minor(TWO_TRIANGLES)
    assert not has_diamond_minor(cycle_graph(6))


def test_cactus_iff_no_diamond_minor():
    for n in range(1, 7):
        for g in connected_graphs(n):
            assert is_cactus(g) == (not has_diamond_minor(g))


@pytest.mark.parametrize("n", range(7))
def test_diamond_minor_matches_the_contraction_search(n):
    # every graph up to isomorphism, disconnected ones included
    for g in all_graphs(n):
        assert has_diamond_minor(g) == searched_diamond_minor(g), sorted(g.edges)


@pytest.mark.parametrize("n, samples", [(7, 30), (8, 8), (9, 4)])
def test_diamond_minor_matches_the_contraction_search_sampled(n, samples):
    rng = random.Random(n)
    for _ in range(samples):
        g = random_graph(rng, n, rng.uniform(0.15, 0.5))
        assert has_diamond_minor(g) == searched_diamond_minor(g), sorted(g.edges)


def test_diamond_minor_on_long_cycles_and_cacti():
    assert not has_diamond_minor(cycle_graph(2000))
    chord = SimpleGraph.from_edges(2000, cycle_graph(2000).edges | {(0, 1000)})
    assert has_diamond_minor(chord)
    two = SimpleGraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (3, 0)])
    assert not has_diamond_minor(two)
    assert has_diamond_minor(SimpleGraph.from_edges(9, complete_graph(4).edges))


def test_diamond_minor_on_many_components():
    # 3,000 disjoint triangles, then a diamond; one pass over all components
    triangles = [(u + i, u + j) for u in range(0, 9000, 3) for i, j in ((0, 1), (1, 2), (0, 2))]
    start = time.perf_counter()
    assert not has_diamond_minor(SimpleGraph.from_edges(9000, triangles))
    assert has_diamond_minor(SimpleGraph.from_edges(9004, triangles + [
        (9000 + u, 9000 + v) for u, v in diamond_graph().edges]))
    assert time.perf_counter() - start < 2


# -- counting formulas -------------------------------------------------------

def test_husimi_examples():
    assert husimi_count({2: 1}) == 1
    assert husimi_count({2: 2}) == 3
    assert husimi_count({3: 1}) == 1
    assert husimi_count({}) == 1


def test_husimi_cayley_crosscheck():
    for n in range(2, 10):
        assert husimi_count({2: n - 1}) == n ** (n - 2)


def test_cactus_examples():
    assert cactus_count({3: 1}) == 1
    assert cactus_count({2: 1}) == 1
    assert cactus_count({3: 2}) == 15
    assert cactus_count({2: 2}) == husimi_count({2: 2})


def test_triangular_cactus_examples():
    assert triangular_cactus_count(1) == 1
    assert triangular_cactus_count(3) == 1
    assert triangular_cactus_count(5) == 15
    assert triangular_cactus_count(7) == 735
    with pytest.raises(ValueError):
        triangular_cactus_count(4)


def test_double_factorial():
    assert [double_factorial(m) for m in range(-3, 10)] == [
        1, 1, 1, 1, 1, 2, 3, 8, 15, 48, 105, 384, 945]


def test_triangular_cactus_equals_pure_triangle_cactus_spec():
    for t in range(1, 5):
        assert triangular_cactus_count(2 * t + 1) == cactus_count({3: t})


def _labeled_census(n):
    """Classify every labeled connected graph on n vertices by block sizes.

    Returns (block-graph counter, cactus counter, triangular-cactus counter)
    keyed by the sorted block/polygon size multiset.
    """
    blocks = Counter()
    cacti = Counter()
    triangular = Counter()
    for edges in labeled_graphs(n):
        g = SimpleGraph.from_edges(n, edges)
        if not g.is_connected():
            continue
        dec = block_decomposition(g)
        sizes = tuple(sorted(len(b) for b in dec.blocks))
        if all(len(es) == len(vs) * (len(vs) - 1) // 2
               for vs, es in zip(dec.blocks, dec.block_edges)):
            blocks[sizes] += 1
        if all(len(es) in (1, len(vs)) for vs, es in zip(dec.blocks, dec.block_edges)):
            cacti[sizes] += 1
            if sizes and set(sizes) == {3}:
                triangular[sizes] += 1
    return blocks, cacti, triangular


@pytest.mark.parametrize("n", range(1, 7))
def test_formulas_match_labeled_enumeration(n):
    blocks, cacti, triangular = _labeled_census(n)
    if n == 1:
        assert husimi_count({}) == 1 and cactus_count({}) == 1
        return
    for sizes, count in blocks.items():
        spec = dict(Counter(sizes))
        assert husimi_count(spec) == count, f"block sizes {sizes}"
    for sizes, count in cacti.items():
        spec = dict(Counter(sizes))
        assert cactus_count(spec) == count, f"polygon sizes {sizes}"
    for sizes, count in triangular.items():
        assert triangular_cactus_count(n) == count
    # every realizable spec appears: caterpillar of blocks always exists
    for sizes in blocks:
        assert blocks[sizes] > 0


def test_cactus_count_returns_exact_rational_type():
    value = cactus_count({3: 1})
    assert isinstance(value, int)
    # the unadjusted reflection factor would give 1/2 for a bare edge;
    # the adjusted formula keeps everything integral on realizable specs
    assert not isinstance(cactus_count({2: 3}), Fraction)
    # 0-4 polygons of each size 2-7: always an exact int
    for counts in itertools.product(range(5), repeat=6):
        spec = {size: cnt for size, cnt in zip(range(2, 8), counts) if cnt}
        assert type(cactus_count(spec)) is int, spec
