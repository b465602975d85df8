"""Argument checks across the public API, and small branches that no other
test reaches."""

import pytest

from bifgraph import (
    BifurcationKind, ColoredTree, Diagram, DiagramError, EigenvalueSpec, LawTable,
    Matroid, SimpleGraph, all_graphs, builtin_table, complete_graph, count_colored,
    count_kary_formula, count_sequence, graphs_isomorphic, husimi_count, kind_for_child_count,
    nonadmissible_period_fixture, ratio_sequence, share_sequence, splits_for_child_count, tutte_11,
    validate_diagram,
)


@pytest.mark.parametrize("call, message", [
    (lambda: husimi_count({2: -1}), "multiplicities are nonnegative"),
    (lambda: ratio_sequence(2, 1, 4, 3), "need k_low <= k_high"),
    (lambda: share_sequence(1, 3, 2, 3), "need d_low <= d_high"),
    (lambda: SimpleGraph.from_edges(2, [(0, 0)]), "self-loop at vertex 0"),
    (lambda: SimpleGraph.from_edges(2, [(0, 1)], colors=[1]), "colors length"),
    (lambda: SimpleGraph.from_edges(2, [(0, 1)], names=["a"]), "names length"),
    (lambda: all_graphs(7), "limited to 6 vertices"),
    (lambda: EigenvalueSpec(complex_pairs=((0.0, 1.0),)), "modulus must be positive"),
    (lambda: BifurcationKind("fold"), "unknown bifurcation kind 'fold'"),
    (lambda: BifurcationKind("saddle_node", 3), "saddle_node takes no parameter"),
    (lambda: LawTable(0, frozenset()), "dimension must be >= 1"),
    (lambda: LawTable(2, frozenset(), frozenset({("bogus", 1)})),
     "unknown junction family 'bogus'"),
    (lambda: LawTable(2, frozenset(), frozenset({("doubling", 2)})),
     "orbit index must be -1, 0 or \\+1, got 2"),
    (lambda: builtin_table(0), "dimension must be >= 1"),
    (lambda: Matroid(["a", "a"], lambda s: True), "must be distinct"),
    (lambda: tutte_11(complete_graph(7)), "limited to 20 edges"),
    (lambda: count_kary_formula(3, 0), "need n >= 1"),
    (lambda: kind_for_child_count(0), "child count must be >= 1"),
    pytest.param(lambda: splits_for_child_count(builtin_table(2), 0, 1),
                 "child count must be >= 1", id="splits_for_child_count-child count must be >= 1"),
    (lambda: count_sequence(0, 2, 5), "need k >= 1, got 0"),
    (lambda: count_sequence(1, 2, -3), "need n_max >= 0, got -3"),
    (lambda: count_sequence(1, 2, 6, table=builtin_table(4)), "table dimension 4 != d = 2"),
    (lambda: count_colored(-5, 99, 0), "need k >= 1, got -5"),
    (lambda: validate_diagram(nonadmissible_period_fixture(), -3, builtin_table(2)),
     "need k >= 1, got -3"),
])
def test_bad_arguments_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_a_diagram_of_dimension_zero_is_located_at_its_dimension():
    with pytest.raises(DiagramError, match="dimension must be >= 1") as err:
        Diagram(0, (), ())
    assert err.value.where == ".dimension"


def test_relabeling_moves_the_colors_with_the_vertices():
    g = SimpleGraph.from_edges(3, [(0, 1)], colors=[1, 0, -1])
    assert g.relabeled([2, 0, 1]) == SimpleGraph.from_edges(3, [(2, 0)], colors=[0, -1, 1])


def test_induced_and_relabeled_keep_the_names():
    g = SimpleGraph.from_edges(3, [(0, 1), (1, 2)], colors=[1, 0, -1], names=["a", "b", "c"])
    assert g.induced([1, 2]) == SimpleGraph.from_edges(2, [(0, 1)], colors=[0, -1],
                                                        names=["b", "c"])
    assert g.relabeled([2, 0, 1]) == SimpleGraph.from_edges(
        3, [(2, 0), (0, 1)], colors=[0, -1, 1], names=["b", "c", "a"])


def test_induced_and_relabeled_keep_empty_colors_and_names():
    g = SimpleGraph.from_edges(0, [], colors=(), names=())
    assert g.induced([]) == g
    assert g.relabeled([]) == g


def test_colored_and_uncolored_graphs_differ_when_colors_count():
    g = SimpleGraph.from_edges(3, [(0, 1)], colors=[1, 0, -1])
    assert not graphs_isomorphic(g, SimpleGraph.from_edges(3, [(0, 1)]), respect_colors=True)
    # all colors 0 refine like no colors, so only the colored flag tells them apart
    zeros = SimpleGraph.from_edges(3, [(0, 1), (1, 2)], colors=[0, 0, 0])
    plain = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    assert not graphs_isomorphic(zeros, plain, respect_colors=True)
    assert graphs_isomorphic(zeros, plain)


def test_colored_tree_is_not_equal_to_another_type():
    assert (ColoredTree(0) == 0) is False
