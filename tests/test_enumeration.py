"""Colored-tree enumeration, exact counts, ratio and share sequences."""

import json
import pickle
import random
import time
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifgraph import (
    ColoredTree, EnumerationLimitError, EnumerationSpec, builtin_table, count_colored,
    count_sequence, count_shapes, enumerate_colored, enumerate_shapes,
    load_law_table, ordered_trees, project_uncolored, ratio_lower_bound,
    ratio_sequence, share_sequence, slot_trees, tree_to_diagram, validate_diagram,
)
from bifgraph.cli import main
from bifgraph.enumeration import _count_rules, enumerate_rows
from bifgraph import trees
from bifgraph.trees import _classes, _plan, _pools
from helpers import (
    cached_colored_trees, cached_ordered_trees, cached_slot_trees, chain_tree,
    distinct_children, field_values, law_table_of, legal_law_entries, negated,
    nested_repr, per_color_count_sequence, plain_tree, plane_count, prefix_count_sequence,
    prefix_products, random_law_table, recursive_orderings, row_trees,
)


def spec(k, d, n, mode="plane"):
    return EnumerationSpec(k, d, n, mode)


def root_child_colors(trees):
    return {(t.color, t.children[0].color) for t in trees}


def test_two_node_colorings_free_mode():
    got = enumerate_colored(spec(1, 4, 2, "free"))
    assert len(got) == 3
    assert root_child_colors(got) == {(1, -1), (-1, 1), (0, 0)}

    got2 = enumerate_colored(spec(1, 2, 2, "free"))
    assert len(got2) == 2
    assert root_child_colors(got2) == {(1, -1), (-1, 1)}


def test_two_node_colorings_plane_mode_doubles_by_slot():
    got = enumerate_colored(spec(1, 4, 2))
    assert len(got) == 6  # 2 slot positions x 3 pair colorings
    assert root_child_colors(got) == {(1, -1), (-1, 1), (0, 0)}


def test_leaves_and_root_are_unconstrained():
    singles = enumerate_colored(spec(1, 1, 1))
    assert {t.color for t in singles} == {-1, 0, 1}


def test_enumeration_matches_count_api():
    for k in (1, 2):
        for d in (1, 2, 3, 4):
            for n in range(1, 6):
                for mode in ("plane", "free"):
                    got = enumerate_colored(spec(k, d, n, mode))
                    assert len(got) == len(set(got))
                    assert len(got) == count_colored(k, d, n, mode)


def test_every_enumerated_tree_is_admissible():
    table = builtin_table(3)
    for t in enumerate_colored(spec(2, 3, 5)):
        diagram = tree_to_diagram(t, 3)
        assert validate_diagram(diagram, 2, table).ok


def test_one_dimensional_family_collapses_to_two_dimensional():
    for n in range(1, 8):
        a = set(enumerate_colored(spec(1, 1, n)))
        b = set(enumerate_colored(spec(1, 2, n)))
        assert a == b


def test_project_uncolored_covers_all_shapes_in_dimension_four():
    for k in (1, 2):
        for n in range(1, 6):
            shapes = project_uncolored(enumerate_colored(spec(k, 4, n)))
            assert shapes == frozenset(enumerate_shapes(k, n))


def test_project_uncolored_free_mode_matches_canonical_shapes():
    for n in range(1, 7):
        shapes = project_uncolored(enumerate_colored(spec(1, 4, n, "free")))
        assert shapes == frozenset(enumerate_shapes(1, n, "free"))


def test_project_uncolored_misses_shapes_in_low_dimension():
    # in dimension 2 the index-0 child of a doubling can never bifurcate
    # again, so the 5-node shape whose both root children branch is
    # uncolorable there
    got = project_uncolored(enumerate_colored(spec(1, 2, 5)))
    full = frozenset(enumerate_shapes(1, 5))
    assert got < full
    both_branch = ((0, ((0, ()),)), (1, ((0, ()),)))
    assert both_branch in full and both_branch not in got


def test_project_uncolored_empty():
    assert project_uncolored([]) == frozenset()


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_count_sequence_matches_plane_recursion(k, d):
    assert count_sequence(k, d, 40) == [plane_count(k, d, n) for n in range(1, 41)]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_count_sequence_matches_free_enumeration(k, d):
    assert count_sequence(k, d, 8, "free") == [
        len(enumerate_colored(spec(k, d, n, "free"))) for n in range(1, 9)]


@pytest.mark.parametrize("mode", ["extend", "replace"])
def test_count_sequence_on_random_law_tables(mode):
    rng = random.Random(f"law tables {mode}")
    for _ in range(25):
        table = random_law_table(rng, mode)
        k, d = rng.randint(1, 4), table.dimension
        assert count_sequence(k, d, 24, "plane", table) == [
            plane_count(k, d, n, table) for n in range(1, 25)]
        assert count_sequence(k, d, 6, "free", table) == [
            len(enumerate_colored(EnumerationSpec(k, d, n, "free", table)))
            for n in range(1, 7)]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_count_sequence_equals_the_per_color_engine(k, d):
    assert count_sequence(k, d, 120) == per_color_count_sequence(k, d, 120)
    assert count_sequence(k, d, 40, "free") == per_color_count_sequence(k, d, 40, "free")


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_count_sequence_equals_the_prefix_engine(k, d):
    assert count_sequence(k, d, 150) == prefix_count_sequence(k, d, 150)
    assert count_sequence(k, d, 150, "free") == prefix_count_sequence(k, d, 150, "free")


def quotient_of(k, table, plane, n_max=30):
    return _classes(_count_rules(k, table, n_max, plane), plane)[1]


# full products per coefficient in plane mode: (prefix engine, planned engine)
PLANNED_PRODUCTS = {(2, 4): (5, 3), (3, 3): (5, 3), (3, 4): (6, 4), (4, 4): (10, 7),
                    (5, 4): (13, 8), **{(1, d): (0.5 if d >= 3 else 0,) * 2 for d in range(1, 6)}}


@pytest.mark.parametrize("k, d", sorted(PLANNED_PRODUCTS))
def test_the_plan_takes_the_listed_products(k, d):
    quotient = quotient_of(k, builtin_table(d), True)
    assert (prefix_products(quotient, True), _plan(quotient, True)[0]) == PLANNED_PRODUCTS[k, d]


def test_the_plan_never_takes_more_products_than_the_prefix_engine():
    tables = [builtin_table(d) for d in range(1, 6)]
    rng = random.Random("planned products")
    tables += [random_law_table(rng, rng.choice(["extend", "replace"])) for _ in range(40)]
    for table in tables:
        for k in range(1, 6):
            for plane in (True, False):
                quotient = quotient_of(k, table, plane)
                assert _plan(quotient, plane)[0] <= prefix_products(quotient, plane)


@pytest.mark.parametrize("mode", ["plane", "free"])
def test_the_engine_takes_the_products_its_plan_counts(monkeypatch, mode):
    """The convolutions of one coefficient, a square counting 1/2, add up
    to what ``_plan`` counts; the terms of A(x^j), j >= 2, of a free-mode
    power are not counted, as ``_plan`` prices powers as in plane mode."""
    taken, coefficient = [], trees._coefficient

    def counted(s, t, n, j=1):
        if n == 29 and j == 1:
            taken.append(0.5 if s is t else 1)
        return coefficient(s, t, n, j)

    monkeypatch.setattr(trees, "_coefficient", counted)
    for k in range(1, 6):
        for d in range(1, 6):
            taken.clear()
            count_sequence(k, d, 30, mode)
            assert sum(taken) == _plan(quotient_of(k, builtin_table(d), mode == "plane"),
                                       mode == "plane")[0]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_builtin_classes_pair_minus_one_with_one_from_dimension_three(k, d):
    """The built-in tables are unchanged by negating every index from d = 3
    on, so -1 and +1 count once there; below d = 3 no two colors merge.
    With at most two children (k = 1) from d = 3 on, 0 joins them too: each
    color has a saddle-node rule with one child and a doubling rule with
    two, so all three series are equal."""
    want = {-1: -1, 0: -1 if d >= 3 and k == 1 else 0, 1: -1 if d >= 3 else 1}
    for plane in (True, False):
        assert _classes(_count_rules(k, builtin_table(d), k + 2, plane), plane)[0] == want


def symmetric_law_table(rng: random.Random):
    """Random entries and their negations: in extend mode over a built-in
    table of dimension >= 3, which is itself symmetric, or in replace mode."""
    entries = set(rng.sample(legal_law_entries(), rng.randint(1, 8)))
    entries |= set(map(negated, entries))
    if rng.random() < 0.5:
        return law_table_of(rng.randint(3, 5), "extend", entries), entries
    return law_table_of(rng.randint(1, 5), "replace", entries), entries


def broken_law_table(rng: random.Random):
    """A symmetric table with one entry of parent -1 or +1 added without its
    negation, or, in replace mode, removed."""
    table, entries = symmetric_law_table(rng)
    sided = sorted((e for e in entries if e.parent), key=str)
    if table.junction_families or not sided:  # extend mode keeps the built-in entries
        entries = entries | {rng.choice([e for e in legal_law_entries()
                                         if e.parent and negated(e) not in table.entries])}
    else:
        entries = entries - {rng.choice(sided)}
    broken = law_table_of(table.dimension, "extend" if table.junction_families else "replace",
                          entries)
    assert set(map(negated, broken.entries)) != broken.entries
    return broken


def assert_engines_agree(k: int, table, n_plane: int, n_free: int) -> None:
    d = table.dimension
    for mode, n in (("plane", n_plane), ("free", n_free)):
        got = count_sequence(k, d, n, mode, table)
        assert got == per_color_count_sequence(k, d, n, mode, table)
        assert got == prefix_count_sequence(k, d, n, mode, table)


def test_count_sequence_equals_the_per_color_engine_on_random_law_tables():
    rng = random.Random("per-color engine")
    for i in range(60):
        k = rng.randint(1, 4)
        if i % 3 == 0:
            table = random_law_table(rng, rng.choice(["extend", "replace"]))
        elif i % 3 == 1:
            table, _ = symmetric_law_table(rng)
            for plane in (True, False):
                rep, _ = _classes(_count_rules(k, table, 30, plane), plane)
                assert rep[1] == rep[-1]
        else:
            table = broken_law_table(rng)
        assert_engines_agree(k, table, 60, 20)


@st.composite
def _law_tables(draw):
    entries = draw(st.sets(st.sampled_from(legal_law_entries()), max_size=10))
    if draw(st.booleans()):
        entries |= set(map(negated, entries))
    return law_table_of(draw(st.integers(1, 5)), draw(st.sampled_from(["extend", "replace"])),
                        entries)


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 4), _law_tables())
def test_count_sequence_equals_the_per_color_engine_by_hypothesis(k, table):
    assert_engines_agree(k, table, 30, 12)


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 5), _law_tables(), st.booleans())
def test_the_plan_never_takes_more_products_by_hypothesis(k, table, plane):
    quotient = quotient_of(k, table, plane)
    assert _plan(quotient, plane)[0] <= prefix_products(quotient, plane)


def test_listers_match_the_cached_recursive_listers():
    """Same trees in the same order as the recursive listers they replaced,
    with as many distinct subtree objects, so subtrees stay shared."""

    def same(got, want, children):
        assert got == want
        assert distinct_children(got, children) == distinct_children(want, children)

    def colored(s):
        same(enumerate_colored(s), cached_colored_trees(s), lambda t: t.children)

    for mode in ("plane", "free"):
        for k in (1, 2, 3):
            for d in (1, 2, 3, 4):
                for n in range(1, 6 if k == 3 else 7):
                    colored(spec(k, d, n, mode))
        for table_mode in ("extend", "replace"):
            rng = random.Random(f"listers {mode} {table_mode}")
            for _ in range(25):
                table = random_law_table(rng, table_mode)
                colored(EnumerationSpec(rng.randint(1, 3), table.dimension,
                                        rng.randint(1, 6), mode, table))
    for arity in (1, 2, 3, 4):
        for n in range(0, 9):
            same(slot_trees(arity, n), cached_slot_trees(arity, n),
                 lambda t: [c for _, c in t])
    for n in range(0, 12):
        same(ordered_trees(n), cached_ordered_trees(n), lambda t: t)


SADDLE_NODES_ONLY = {"schemaVersion": "1", "dimension": 1, "mode": "replace", "entries": [
    {"kind": "saddle_node", "parent": 1, "children": [-1]},
    {"kind": "saddle_node", "parent": -1, "children": [1]}]}


def test_saddle_node_paths_list_at_any_depth(tmp_path, capsys):
    table = tmp_path / "table.json"
    table.write_text(json.dumps(SADDLE_NODES_ONLY))
    assert main(["enumerate", "--k", "1", "--d", "1", "--n", "400", "--mode", "free",
                 "--emit", "dot", "--law-table", str(table)]) == 0
    assert capsys.readouterr().out.count("graph t") == 2
    trees = enumerate_colored(
        EnumerationSpec(1, 1, 3000, "free", load_law_table(SADDLE_NODES_ONLY)))
    assert [t.size for t in trees] == [3000, 3000]


def test_deep_trees_hash_compare_and_project():
    spec = EnumerationSpec(1, 1, 3000, "free", load_law_table(SADDLE_NODES_ONLY))
    a, b = enumerate_colored(spec)
    again = enumerate_colored(spec)
    assert a == again[0] and b == again[1] and a != b
    assert hash(a) == hash(again[0]) and hash(b) == hash(again[1])
    assert set(again) == {a, b} and len({a, b, *again}) == 2

    def depth(shape):
        levels = 0
        while shape:
            (shape,), levels = shape, levels + 1
        return levels

    assert depth(a.shape()) == depth(b.shape()) == 2999
    (projected,) = project_uncolored((a, b, *again))
    assert depth(projected) == 2999
    chain = chain_tree(3000)
    assert chain == chain_tree(3000) and hash(chain) == hash(chain_tree(3000))
    assert len(project_uncolored([chain])) == 1


def test_listed_rows_are_the_listed_trees():
    """``enumerate_rows`` lists the trees of ``enumerate_colored``, in its
    order, each row after its children's.  In free mode ``_pools`` keys its
    sort keys by ``id()`` of each node object, here an int row id: past the
    small ints that Python caches, and on the 3,000-node free paths."""
    specs = [EnumerationSpec(k, d, n, mode) for mode in ("plane", "free") for k in (1, 2, 3)
             for d in (1, 2, 3, 4) for n in range(1, (5 if k == 3 and mode == "plane" else 6) + 1)]
    specs.append(EnumerationSpec(1, 1, 3000, "free", load_law_table(SADDLE_NODES_ONLY)))
    for spec in specs:
        table, listed = enumerate_rows(spec)
        assert len({*map(len, table)}) == 1, spec
        assert all(c < r for r, kids in enumerate(table[2]) for c in kids), spec
        assert row_trees(table, listed) == enumerate_colored(spec), spec
    assert len(table[2]) > 6000
    assert [row_trees(table, [r])[0].size for r in listed] == [3000, 3000]


def test_listed_rows_keep_the_argument_checks_and_the_limit():
    for spec in (EnumerationSpec(2, 4, 6, limit=100), EnumerationSpec(2, 4, 6, "free", limit=3)):
        with pytest.raises(EnumerationLimitError) as colored:
            enumerate_colored(spec)
        with pytest.raises(EnumerationLimitError) as rows:
            enumerate_rows(spec)
        assert str(rows.value) == str(colored.value) == (
            f"{count_colored(2, 4, 6, spec.mode)} colored trees exceed limit {spec.limit}")
    wrong = EnumerationSpec(1, 2, 3, table=builtin_table(3))
    for lister in (enumerate_colored, enumerate_rows):
        with pytest.raises(ValueError, match="table dimension 3 != d = 2"):
            lister(wrong)


def test_trees_sharing_subtrees_compare_in_linear_time():
    """A tree that holds one subtree twice at each of 20 levels compares
    with its unpickled copy once per level, not once per path; a single
    changed leaf color at the bottom still makes the trees differ, and so
    does one of two counterparts of a shared subtree."""
    def doubled(leaf_colors):
        t = ColoredTree(1, tuple(map(ColoredTree, leaf_colors)), (0, 1))
        for level in range(20):
            t = ColoredTree((-1) ** level, (t, t), (0, 1))
        return t

    tree, other = doubled((1, 0)), doubled((1, -1))
    again = pickle.loads(pickle.dumps(tree))
    start = time.perf_counter()
    assert tree == again and again == tree and tree != other and not other == again
    assert time.perf_counter() - start < 0.5
    # a subtree held twice is compared with each of its two counterparts
    leaf, twin, odd = ColoredTree(1), ColoredTree(1), ColoredTree(0)
    for kids in ((twin, odd), (odd, twin)):
        assert ColoredTree(0, (leaf, leaf)) != ColoredTree(0, kids)


def test_repr_matches_the_dataclass_at_any_depth():
    for mode in ("plane", "free"):
        for t in enumerate_colored(spec(3, 4, 5, mode)):
            assert repr(t) == nested_repr(t)
    assert repr(ColoredTree(0, (ColoredTree(1),), (2,))) == (
        "ColoredTree(color=0, children=(ColoredTree(color=1, children=(), slots=None),),"
        " slots=(2,))")
    text = repr(chain_tree(3000))
    assert text.count("ColoredTree(") == 3000
    assert text.endswith(", slots=None)" + ",), slots=(0,))" * 2999)


def test_tree_equality_and_hash_match_the_dataclass():
    for mode in ("plane", "free"):
        for k, d, n in ((1, 4, 5), (2, 3, 4), (2, 4, 4), (3, 2, 4)):
            trees = enumerate_colored(spec(k, d, n, mode))
            plain = list(map(plain_tree, trees))
            for t, p, twin in zip(trees, plain, enumerate_colored(spec(k, d, n, mode))):
                assert hash(t) == hash(p) == hash(twin) and t == twin
                assert t.shape() == p.shape()
            for i in range(0, len(trees), 7):
                for j in range(len(trees)):
                    assert (trees[i] == trees[j]) == (plain[i] == plain[j]) == (i == j)
            assert project_uncolored(trees) == frozenset(p.shape() for p in plain)


def test_colored_tree_constructor_checks_and_hashes_as_the_dataclass():
    """The constructor raises the dataclass's two errors, takes its fields
    by position or keyword and keeps them as given; the hash is the one the
    dataclass computes from (color, children, slots)."""
    with pytest.raises(ValueError, match="^orbit index must be -1, 0 or \\+1, got 2$"):
        ColoredTree(2)
    for children, slots in (((ColoredTree(0),), (0, 1)), ((), (0,))):
        with pytest.raises(ValueError, match="^slots must parallel children$"):
            ColoredTree(1, children, slots)
    leaf = ColoredTree(color=-1)
    tree = ColoredTree(color=1, children=(leaf, ColoredTree(0)), slots=(0, 2))
    assert field_values(tree) == (ColoredTree, 1, (leaf, ColoredTree(0)), (0, 2))
    assert tree.children[0] is leaf and field_values(leaf) == (ColoredTree, -1, (), None)
    assert field_values(ColoredTree(0, (), ())) == (ColoredTree, 0, (), ())
    assert hash(tree) == hash((1, tree.children, (0, 2))) == hash(plain_tree(tree))
    assert hash(leaf) == hash((-1, (), None)) == hash(plain_tree(leaf))


@pytest.mark.parametrize("c", range(8))
def test_multiset_orderings_match_the_distinct_permutations(c):
    rng = random.Random(c)
    for mset in combinations_with_replacement((-1, 0, 1), c):
        shuffled = rng.sample(mset, c)
        assert recursive_orderings(shuffled) == sorted(set(permutations(mset)))


def pairs(root, slots, kid_tuples):
    """A ``node`` builder for ``_pools``: each tree as its (root, children) pair."""
    return [(root, kids) for kids in kid_tuples]


def listed_child_roots(rules: dict, arity: int, plane: bool) -> dict:
    """``{root: [child roots]}`` of every tree that ``_pools`` lists over
    ``rules`` whose children are all leaves, in the order listed; in plane
    mode only the trees whose children fill the first slots."""
    seen = {root: [] for root in rules}

    def node(root, slots, kid_tuples):
        trees = pairs(root, slots, kid_tuples)
        if slots is None or slots == tuple(range(len(slots))):
            seen[root] += [tuple(r for r, _ in kids) for _, kids in trees
                           if kids and not any(grandkids for _, grandkids in kids)]
        return trees

    _pools(rules, arity, arity + 1, plane, node)
    return seen


def budgets_and_tables():
    """(k, table): each built-in table (d = 1..5) with k = 1..4, then 25
    seeded random law tables in each table mode, with k drawn from 1..4."""
    for d in range(1, 6):
        for k in range(1, 5):
            yield k, builtin_table(d)
    for table_mode in ("extend", "replace"):
        rng = random.Random(f"child tuples {table_mode}")
        for _ in range(25):
            yield rng.randint(1, 4), random_law_table(rng, table_mode)


def test_the_lister_takes_each_rule_in_its_distinct_orderings():
    """Over the count engine's rules of either mode, the plane lister gives
    a root's children, in its first slots, the union of the orderings of its
    rules' child multisets, sorted by count and then colors; the free lister
    gives each multiset once, in non-increasing order."""
    def by_count(tuples):
        return sorted(tuples, key=lambda t: (len(t), t))

    for k, table in budgets_and_tables():
        for mode_rules in (True, False):
            rules = _count_rules(k, table, k + 2, mode_rules)
            plane = listed_child_roots(rules, k + 1, True)
            free = listed_child_roots(rules, k + 1, False)
            for root, rs in rules.items():
                msets = [tuple(h for h, m in parts for _ in range(m)) for _, parts in rs]
                assert plane[root] == by_count(
                    {p for mset in msets for p in recursive_orderings(mset)}), (k, table, root)
                assert free[root] == by_count(tuple(sorted(m, reverse=True)) for m in msets)


def test_one_rule_table_two_readers():
    """Counting and listing read the law table through the same rules
    (``_count_rules``): over them the lister lists as many trees at each
    size n = 1..6 as the count engine counts."""
    for mode in ("plane", "free"):
        plane = mode == "plane"
        rng = random.Random(f"two readers {mode}")
        tables = [(k, builtin_table(d)) for k in (1, 2, 3) for d in range(1, 6)]
        tables += [(rng.randint(1, 3), random_law_table(rng, table_mode))
                   for table_mode in ("extend", "replace") for _ in range(25)]
        for k, table in tables:
            pool = _pools(_count_rules(k, table, 6, plane), k + 1, 6, plane, pairs)
            assert [sum(len(pool[root][n]) for root in pool) for n in range(1, 7)] == \
                count_sequence(k, table.dimension, 6, mode, table), (mode, k, table)


@pytest.mark.parametrize("mode", ["plane", "free"])
def test_listing_reads_the_law_table_once(monkeypatch, mode):
    """``enumerate_colored`` builds its rules once, for the count it checks
    against the limit and for the lister: one law lookup per (child count,
    parent index), 3 * min(k + 1, n - 1) per call."""
    import bifgraph.enumeration as enumeration
    lookup, calls = enumeration.splits_for_child_count, []

    def counted(table, c, parent):
        calls.append((c, parent))
        return lookup(table, c, parent)

    monkeypatch.setattr(enumeration, "splits_for_child_count", counted)
    for k in (1, 2, 3):
        for d in (1, 4):
            for n in range(1, 7):
                calls.clear()
                listed = enumerate_colored(EnumerationSpec(k, d, n, mode))
                assert sorted(calls) == sorted(
                    (c, parent) for c in range(1, min(k + 1, n - 1) + 1) for parent in (-1, 0, 1))
                assert len(calls) == 3 * min(k + 1, n - 1), (k, d, n)
                assert len(listed) == count_colored(k, d, n, mode)


def test_count_colored_is_the_last_sequence_entry():
    assert count_sequence(2, 4, 0) == []
    assert count_colored(2, 4, 0) == count_colored(2, 4, -3, "free") == 0
    assert count_colored(2, 4, 12, "free") == count_sequence(2, 4, 12, "free")[-1]


def test_free_counts_build_no_trees(monkeypatch):
    import bifgraph.enumeration as enumeration

    def refuse(*args, **kwargs):
        raise AssertionError("counting built a tree")

    for name in ("ColoredTree", "_pools"):
        monkeypatch.setattr(enumeration, name, refuse)
    free = count_colored(2, 4, 60, "free")
    # every free tree has at least one plane arrangement
    assert 0 < free < count_colored(2, 4, 60)


def test_counts_monotone_in_dimension():
    for k in (1, 2):
        for n in range(1, 7):
            c2 = count_colored(k, 2, n)
            c3 = count_colored(k, 3, n)
            c4 = count_colored(k, 4, n)
            c5 = count_colored(k, 5, n)
            assert c2 <= c3 <= c4 == c5


def test_counts_bounded_by_three_to_the_n():
    for k in (1, 2):
        for n in range(1, 7):
            assert count_colored(k, 4, n) <= 3 ** n * count_shapes(k, n)


def test_ratio_sequence_free_mode_small():
    got = ratio_sequence(1, 2, 4, 2, "free")
    assert got == [Fraction(1), Fraction(1)]


def test_ratio_sequence_trivial_and_increasing():
    assert ratio_sequence(1, 1, 3, 4) == [Fraction(1)] * 4
    seq = ratio_sequence(1, 2, 4, 7)
    assert all(seq[i] < seq[i + 1] for i in range(2, 6))
    wide = ratio_sequence(1, 3, 4, 6)
    assert all(wide[i] <= wide[i + 1] for i in range(5))


def test_shape_coverage_reports_gaps():
    from bifgraph import shape_coverage
    # full coverage in dimension 4 at small budgets
    assert shape_coverage(EnumerationSpec(2, 4, 6)) == (
        len(enumerate_shapes(2, 6)), len(enumerate_shapes(2, 6)))
    # reported (not asserted) gap in dimension 2
    covered, total = shape_coverage(EnumerationSpec(1, 2, 5))
    assert covered < total


def test_share_sequence_values():
    assert share_sequence(1, 1, 2, 6) == [Fraction(1)] * 6
    assert share_sequence(1, 2, 3, 2)[1] == Fraction(2, 3)
    for value in share_sequence(2, 2, 4, 6):
        assert 0 < value <= 1
    assert share_sequence(2, 3, 3, 4) == [Fraction(1)] * 4


def test_ratio_lower_bound_examples():
    assert ratio_lower_bound(2, 2) == Fraction(1, 6)
    assert ratio_lower_bound(2, 1) == Fraction(1, 3)
    with pytest.raises(ValueError):
        ratio_lower_bound(1, 3)


def test_ratio_dominates_lower_bound():
    for k in (2, 3):
        seq = ratio_sequence(k - 1, k, 4, 5)
        for n, value in enumerate(seq, start=1):
            assert value >= ratio_lower_bound(k, n)


def test_colored_tree_validation():
    with pytest.raises(ValueError):
        ColoredTree(2)
    with pytest.raises(ValueError):
        ColoredTree(1, (ColoredTree(0),), slots=(0, 1))
    leaf = ColoredTree(1)
    assert leaf.kind is None and leaf.size == 1
    node = ColoredTree(1, (ColoredTree(0), ColoredTree(1)), (0, 2))
    assert node.kind.name == "period_doubling" and node.size == 3


def _rebuilt(t: ColoredTree) -> ColoredTree:
    """The same tree built through the public constructor."""
    return ColoredTree(t.color, tuple(map(_rebuilt, t.children)), t.slots)


def test_listed_trees_are_the_publicly_built_values():
    """The listers build trees through the public constructor, which
    rejects a bad color or slots; listed and rebuilt trees are the same
    frozen values, field by field."""
    with pytest.raises(ValueError):
        ColoredTree(2)
    with pytest.raises(ValueError):
        ColoredTree(1, (ColoredTree(0),), slots=(0, 1))
    for mode in ("plane", "free"):
        trees = enumerate_colored(spec(2, 4, 5, mode))
        for t in trees:
            public = _rebuilt(t)
            assert public == t and hash(public) == hash(t) and field_values(public) == field_values(t)
            assert public.shape() == t.shape() and repr(public) == repr(t)
        for name, value in (("color", 0), ("children", ()), ("slots", None)):
            with pytest.raises(FrozenInstanceError):
                setattr(trees[-1], name, value)
        with pytest.raises(FrozenInstanceError):
            del trees[-1].color


def test_tree_to_diagram_shape():
    t = ColoredTree(1, (ColoredTree(0), ColoredTree(1)), (0, 1))
    d = tree_to_diagram(t, 2)
    assert len(d.edges) == 3 and len(d.vertices) == 1
    assert d.vertices[0].kind.name == "period_doubling"
    assert validate_diagram(d, 1, builtin_table(2)).ok


def test_a_deep_tree_reports_its_size_and_converts():
    tree = chain_tree(1500)
    assert tree.size == 1500
    diagram = tree_to_diagram(tree, 1)
    assert len(diagram.edges) == 1500 and len(diagram.vertices) == 1499
    assert validate_diagram(diagram, 1, builtin_table(1)).ok
