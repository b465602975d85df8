"""Shape enumeration, counting formula, conversions, free trees."""

import pytest

from bifgraph import (
    EnumerationLimitError, canonical_form, canonical_trees, count_kary_formula,
    count_shapes, enumerate_shapes, free_trees, is_binary, mary_to_binary,
    ordered_trees, slot_trees, strip_slots, tree_size,
)
from bifgraph.trees import slot_tree_size
from helpers import (
    chain_tree, free_tree_key, keyed_free_trees, nested_is_binary, nested_slot_tree_size,
    nested_tree_size,
)


def test_kary_formula_examples():
    assert count_kary_formula(2, 4) == 14     # Catalan number
    assert count_kary_formula(3, 2) == 3
    assert count_kary_formula(2, 1) == 1
    with pytest.raises(ValueError):
        count_kary_formula(1, 3)


def test_shape_count_examples():
    assert len(enumerate_shapes(1, 3)) == 5   # two slots per node
    assert len(enumerate_shapes(2, 2)) == 3   # three slots per node
    for k in (1, 2, 3, 7):
        assert enumerate_shapes(k, 1) == ((),)


@pytest.mark.parametrize("arity", [2, 3, 4])
def test_plane_counts_match_formula(arity):
    for n in range(1, 6):
        shapes = enumerate_shapes(arity - 1, n)
        assert len(shapes) == len(set(shapes))  # duplicate-free
        assert len(shapes) == count_kary_formula(arity, n)
        assert all(slot_tree_size(s) == n for s in shapes)


def test_count_shapes_agrees_with_enumeration():
    for k in (1, 2):
        for n in range(1, 7):
            assert count_shapes(k, n) == len(enumerate_shapes(k, n))
            assert count_shapes(k, n, "free") == len(enumerate_shapes(k, n, "free"))


def test_free_shapes_respect_child_budget():
    for shape in enumerate_shapes(1, 6, "free"):
        stack = [shape]
        while stack:
            node = stack.pop()
            assert len(node) <= 2
            stack.extend(node)


def test_enumeration_limit():
    with pytest.raises(EnumerationLimitError):
        enumerate_shapes(2, 10, limit=10)
    with pytest.raises(EnumerationLimitError, match="^20 shapes exceed limit 19$"):
        enumerate_shapes(5, 6, "free", limit=19)
    assert len(enumerate_shapes(5, 6, "free", limit=20)) == 20


def test_ordered_trees_catalan():
    # plane trees on n nodes: Catalan(n-1)
    expect = [1, 1, 2, 5, 14, 42, 132]
    assert [len(ordered_trees(n)) for n in range(1, 8)] == expect


def test_rooted_and_free_tree_counts():
    assert [len(canonical_trees(n)) for n in range(1, 11)] == \
        [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]
    assert [len(free_trees(n)) for n in range(1, 10)] == \
        [1, 1, 1, 2, 3, 6, 11, 23, 47]
    for n in range(2, 10):
        for g in free_trees(n):
            assert g.n == n and len(g.edges) == n - 1 and g.is_connected()


def test_free_trees_are_one_per_centroid_key():
    counts = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]
    for n in range(1, 13):
        keys = [free_tree_key(n, sorted(g.edges)) for g in free_trees(n)]
        assert len(keys) == len(set(keys)) == counts[n - 1]
        assert set(keys) == set(keyed_free_trees(n))


def test_canonical_form_is_order_invariant():
    a = ((), ((),))            # children in one order
    b = (((),), ())            # and the other
    assert canonical_form(a) == canonical_form(b)


def test_sizes_and_binary_check_match_the_recursive_oracles():
    for n in range(1, 10):
        for t in ordered_trees(n) + canonical_trees(n):
            assert tree_size(t) == nested_tree_size(t) == n
        slotted = slot_trees(2, n) + (slot_trees(3, n) if n <= 7 else ())
        for t in slotted + tuple(map(mary_to_binary, ordered_trees(n))):
            assert slot_tree_size(t) == nested_slot_tree_size(t) == n
            assert is_binary(t) == nested_is_binary(t)
    assert not all(map(is_binary, slot_trees(3, 4))) and all(map(is_binary, slot_trees(2, 4)))


def test_sizes_and_binary_check_on_a_3000_node_saddle_node_path():
    slotted = chain_tree(3000).shape()
    plain, ternary_leaf = (), ((2, ()),)  # the second has slot 2 at the bottom
    for _ in range(2999):
        plain, ternary_leaf = (plain,), ((0, ternary_leaf),)
    assert tree_size(plain) == slot_tree_size(slotted) == 3000
    assert is_binary(slotted) and not is_binary(ternary_leaf)
    for oracle, t in ((nested_tree_size, plain), (nested_slot_tree_size, slotted),
                      (nested_is_binary, slotted)):
        with pytest.raises(RecursionError):
            oracle(t)


def test_strip_slots():
    shape = ((0, ()), (2, ((1, ()),)))
    assert strip_slots(shape) == ((), ((),))


# -- m-ary to binary ---------------------------------------------------------

def test_star_becomes_right_chain():
    star = ((), (), ())  # root with three leaf children
    out = mary_to_binary(star)
    # root -> left c1, c1 -> right c2, c2 -> right c3, nothing else
    assert out == ((0, ((1, ((1, ()),)),)),)


def test_single_node_conversion():
    assert mary_to_binary(()) == ()


@pytest.mark.parametrize("n", range(1, 8))
def test_conversion_injective_and_size_preserving(n):
    seen = {}
    for t in ordered_trees(n):
        b = mary_to_binary(t)
        assert is_binary(b)
        assert slot_tree_size(b) == tree_size(t)
        assert b not in seen, f"collision between {t} and {seen[b]}"
        seen[b] = t
