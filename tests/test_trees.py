"""Shape enumeration, counting formula, conversions, free trees."""

import time
import tracemalloc
from math import comb

import pytest

from bifgraph import (
    EnumerationLimitError, canonical_form, canonical_trees, count_kary_formula,
    count_shapes, enumerate_shapes, free_trees, is_binary, mary_to_binary,
    ordered_trees, slot_trees, strip_slots, tree_size, trees,
)
from bifgraph.trees import _count_series, _pools, _tree_edges, slot_tree_size
from helpers import (
    cached_canonical_trees, cached_free_trees, cached_slot_trees, chain_tree,
    chosen_free_shape_counts, free_tree_key, keyed_free_trees, listed_free_shape_count,
    nested_canonical_form, nested_is_binary, nested_slot_tree_size, nested_strip_slots,
    nested_tree_edges, nested_tree_size,
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


@pytest.mark.parametrize("mode", ["plane", "free"])
@pytest.mark.parametrize("k, n", [(1, 0), (0, 5), (0, 0), (-1, 3), (2, -4)])
def test_count_shapes_rejects_a_bad_budget_or_size_in_both_modes(k, n, mode):
    with pytest.raises(ValueError, match="^need k >= 1 and n >= 1$"):
        count_shapes(k, n, mode)


def test_free_shape_counts_match_the_listing_count():
    for k in range(1, 5):
        for n in range(1, 14):
            assert count_shapes(k, n, "free") == listed_free_shape_count(k, n), (k, n)


def test_free_shape_counts_build_no_tree(monkeypatch):
    def refuse(*args):
        raise AssertionError("a free shape count listed trees")

    monkeypatch.setattr(trees, "canonical_trees", refuse)
    start = time.perf_counter()
    got = count_shapes(3, 60, "free")
    assert time.perf_counter() - start < 1.0
    assert got == chosen_free_shape_counts(3, 60)[-1]
    for k in (1, 2, 4):
        assert [count_shapes(k, n, "free") for n in range(1, 41)] == chosen_free_shape_counts(k, 40)


def test_trees_module_keeps_nothing_after_a_call():
    assert not [name for name, fn in vars(trees).items() if hasattr(fn, "cache_clear")]
    calls = (lambda: count_shapes(3, 17, "free"), lambda: len(canonical_trees(12)),
             lambda: len(free_trees(12)))
    tracemalloc.start()
    try:
        for call in calls:
            before = tracemalloc.get_traced_memory()[0]
            call()
            assert tracemalloc.get_traced_memory()[0] - before < 1 << 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_plane_count_engine_matches_the_kary_formula(k):
    rules = {0: [(comb(k + 1, c), ((0, c),)) for c in range(1, k + 2)]}
    assert _count_series(rules, 80, plane=True) == \
        [count_kary_formula(k + 1, n) for n in range(1, 81)]


def test_shape_rules_feed_the_free_count_and_the_slot_lister(monkeypatch):
    """``count_shapes`` in free mode and ``slot_trees`` read the same rules
    (``_shape_rules``): the count engine sums them, the lister ``_pools``
    lists them, and in free mode it lists the canonical trees."""
    rules_of = trees._shape_rules
    read = []
    monkeypatch.setattr(trees, "_shape_rules", lambda *args: read.append(args) or rules_of(*args))
    for k in range(1, 5):
        assert [count_shapes(k, n, "free") for n in range(1, 41)] == \
            chosen_free_shape_counts(k, 40)
    assert read == [(k + 1, n) for k in range(1, 5) for n in range(1, 41)]
    read.clear()
    for arity in range(1, 5):
        for n in range(0, 9):
            assert slot_trees(arity, n) == cached_slot_trees(arity, n)
            free = _pools(rules_of(arity, n), arity, n, False, lambda _, s, kid_tuples: kid_tuples)
            assert sorted(free[0][n] if n else ()) == sorted(canonical_trees(n, arity))
    assert read == [(arity, n) for arity in range(1, 5) for n in range(0, 9)]


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
    # with no children allowed, the one-node tree is the only tree
    assert canonical_trees(1, 0) == ((),) and canonical_trees(3, 0) == ()
    assert [len(free_trees(n)) for n in range(1, 10)] == \
        [1, 1, 1, 2, 3, 6, 11, 23, 47]
    for n in range(2, 10):
        for g in free_trees(n):
            assert g.n == n and len(g.edges) == n - 1 and g.is_connected()


def test_canonical_and_free_trees_match_the_cached_listers():
    for n in range(14):
        for mc in (None, 1, 2, 3, 4):
            assert canonical_trees(n, mc) == cached_canonical_trees(n, mc), (n, mc)
    for n in range(1, 13):
        assert free_trees(n) == cached_free_trees(n), n


def test_canonical_trees_list_the_3000_node_path():
    # the memo fills smallest first, so the recursion is as deep as the child bound
    (t,) = canonical_trees(3000, 1)
    assert tree_size(t) == 3000
    while t:
        (t,) = t  # one child per level down to the leaf


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


def test_tree_helpers_match_the_recursive_oracles():
    for n in range(1, 9):
        for t in ordered_trees(n) + canonical_trees(n):
            assert canonical_form(t) == nested_canonical_form(t)
            assert _tree_edges(t) == nested_tree_edges(t)
        for t in slot_trees(2, n) + (slot_trees(3, n) if n <= 7 else ()):
            assert strip_slots(t) == nested_strip_slots(t)


def test_tree_helpers_on_a_3000_node_path():
    slotted = chain_tree(3000).shape()
    plain = ()
    for _ in range(2999):
        plain = (plain,)
    for t in (strip_slots(slotted), canonical_form(plain)):
        assert tree_size(t) == 3000
        while t:
            (t,) = t  # one child per level down to the leaf
    assert _tree_edges(plain) == [(i, i + 1) for i in range(2999)]
    for oracle, t in ((nested_strip_slots, slotted), (nested_canonical_form, plain),
                      (nested_tree_edges, plain)):
        with pytest.raises(RecursionError):
            oracle(t)


def test_canonical_form_of_a_root_over_two_separately_built_3000_node_paths():
    def path():
        t = ()
        for _ in range(2999):
            t = (t,)
        return t

    form = canonical_form((path(), path()))
    assert len(form) == 2 and form[0] is form[1]  # one object, compared by identity
    assert tree_size(form) == 6001


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
