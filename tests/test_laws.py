"""Law-table content and invariants."""

import random

import pytest

from bifgraph import (
    INDEX_VALUES, BifurcationKind, LawEntry, SchemaError, builtin_table, junction,
    kind_for_child_count, parse_diagram, period_doubling, saddle_node, splits_for_child_count,
    type_m, load_law_table,
)
from bifgraph.laws import JUNCTION, PERIOD_DOUBLING, SADDLE_NODE, TYPE_M

from helpers import kind_keyed_child_multisets, random_law_table


def saddle_node_pairs(table):
    """The saddle-node pairs of a table, each sorted, from the one lookup."""
    return {tuple(sorted((p, c))) for p in INDEX_VALUES
            for (c,) in splits_for_child_count(table, 1, p)}


def is_admissible_star(table, kind, parent, kids):
    """May ``parent`` split into exactly this child multiset, at a ``kind`` vertex?"""
    return tuple(sorted(kids)) in splits_for_child_count(table, kind.child_count, parent)


def test_saddle_node_pairs_by_dimension():
    assert sorted(saddle_node_pairs(builtin_table(1))) == [(-1, 1)]
    assert sorted(saddle_node_pairs(builtin_table(2))) == [(-1, 1)]
    assert sorted(saddle_node_pairs(builtin_table(3))) == [(-1, 1), (0, 0)]


def test_doubling_laws():
    assert splits_for_child_count(builtin_table(2), 2, 1) == {(0, 1)}
    assert splits_for_child_count(builtin_table(2), 2, -1) == frozenset()
    assert splits_for_child_count(builtin_table(3), 2, 0) == {(-1, 1)}
    assert splits_for_child_count(builtin_table(3), 2, -1) == {(-1, 0)}


def test_type_m_laws():
    t2, t3, t4 = builtin_table(2), builtin_table(3), builtin_table(4)
    assert splits_for_child_count(t2, 3, 1) == {(-1, 1, 1)}
    assert splits_for_child_count(t2, 3, -1) == frozenset()
    assert splits_for_child_count(t3, 3, -1) == {(-1, -1, 1)}
    assert splits_for_child_count(t4, 3, 0) == {(0, 0, 0), (-1, 0, 1)}


def test_junction_laws():
    t2, t4 = builtin_table(2), builtin_table(4)
    assert splits_for_child_count(t2, 4, 1) == {(0, 0, 0, 1)}
    assert splits_for_child_count(t4, 6, 0) == {(0,) * 6}
    # n=4 is neither odd nor a multiple of 3: only the doubling family fires
    assert splits_for_child_count(t4, 4, 0) == frozenset()
    five = splits_for_child_count(t4, 5, 1)
    assert five == {(0, 0, 0, 0, 1), (-1, -1, 1, 1, 1)}


def test_tables_stabilize_at_dimension_four():
    t4, t5, t9 = builtin_table(4), builtin_table(5), builtin_table(9)
    assert t4.entries == t5.entries == t9.entries
    assert t4.junction_families == t5.junction_families
    assert t5.dimension == 5


def test_is_admissible_star_examples():
    assert is_admissible_star(builtin_table(3), type_m(5), -1, (-1, 1, -1))
    assert not is_admissible_star(builtin_table(4), period_doubling(), 0, (0, 0))
    assert is_admissible_star(builtin_table(2), junction(4), 1, (1, 0, 0, 0))


def test_tables_nest_with_dimension():
    for d in (1, 2, 3):
        lo, hi = builtin_table(d), builtin_table(d + 1)
        assert lo.entries <= hi.entries
        assert lo.junction_families <= hi.junction_families


def test_every_entry_conserves_the_index():
    for d in (1, 2, 3, 4):
        for e in builtin_table(d).entries:
            if e.kind == SADDLE_NODE:
                assert e.parent + e.children[0] == 0
            else:
                assert sum(e.children) == e.parent


def test_junction_rules_conserve_and_stay_two_index():
    for d in (1, 2, 3, 4):
        table = builtin_table(d)
        for n in range(4, 13):
            for parent in (-1, 0, 1):
                for entry in splits_for_child_count(table, n, parent):
                    assert sum(entry) == parent
                    assert len(set(entry)) <= 2


def test_dimension_one_and_two_agree_without_type_m():
    def restricted(d):
        t = builtin_table(d)
        return frozenset(e for e in t.entries if e.kind in (SADDLE_NODE, PERIOD_DOUBLING))

    assert restricted(1) == restricted(2)


def test_forbidden_entries_rejected():
    with pytest.raises(ValueError):
        LawEntry(PERIOD_DOUBLING, 0, (0, 0))
    with pytest.raises(ValueError):
        LawEntry(TYPE_M, 1, (0, 1, 0))
    with pytest.raises(ValueError):
        LawEntry(TYPE_M, -1, (0, -1, 0))
    with pytest.raises(ValueError):  # conservation is built in
        LawEntry(PERIOD_DOUBLING, 1, (1, 1))
    with pytest.raises(ValueError):  # three distinct junction indices
        LawEntry(JUNCTION, 0, (-1, 0, 0, 1))
    with pytest.raises(ValueError, match="'sideways'"):  # the kind is named
        LawEntry("sideways", 1, (1,))


@pytest.mark.parametrize("kind, parent, children", [
    (SADDLE_NODE, 1, (-1, 0)),
    (PERIOD_DOUBLING, 1, (0, 0, 1)),
    (TYPE_M, 0, (-1, 1)),
    (JUNCTION, 1, (0, 0, 1)),
])
def test_entry_arity_must_match_its_kind(kind, parent, children):
    with pytest.raises(ValueError, match=f"'{kind}' law entry cannot have {len(children)}"):
        LawEntry(kind, parent, children)


def test_kinds_without_a_parameter_are_one_shared_value_each():
    """``saddle_node()``, ``period_doubling()``, ``type_m()`` and
    ``kind_for_child_count(1..3)`` return one shared value each, equal to and
    hashed like the kind built afresh, which the diagram reader shares too;
    a junction, or ``type_m`` with a given m, is built afresh."""
    for c, make, name in ((1, saddle_node, SADDLE_NODE), (2, period_doubling, PERIOD_DOUBLING),
                          (3, type_m, TYPE_M)):
        fresh = BifurcationKind(name)
        assert make() is make() is kind_for_child_count(c)
        assert make() == fresh and hash(make()) == hash(fresh)
    for c in range(4, 9):
        assert kind_for_child_count(c) == junction(c) == BifurcationKind(JUNCTION, c)
        assert hash(kind_for_child_count(c)) == hash(BifurcationKind(JUNCTION, c))
    assert type_m(5) == type_m(5) == BifurcationKind(TYPE_M, 5) and type_m(5) is not type_m(5)
    for c in (0, -1):
        with pytest.raises(ValueError, match="^child count must be >= 1$"):
            kind_for_child_count(c)
    diagram = parse_diagram({"schemaVersion": "1", "dimension": 2, "edges": [
        {"id": "a", "index": 1, "endpoints": ["terminal", "v"]},
        {"id": "b", "index": -1, "endpoints": ["v", "terminal"]}],
        "vertices": [{"id": "v", "kind": "saddle_node"}]})
    assert diagram.vertices[0].kind is saddle_node()


def test_splits_for_child_count_routes_by_arity():
    t4 = builtin_table(4)
    assert splits_for_child_count(t4, 1, 0) == {(0,)}
    assert splits_for_child_count(t4, 2, 1) == {(0, 1)}
    assert splits_for_child_count(t4, 3, 0) == {(0, 0, 0), (-1, 0, 1)}
    assert splits_for_child_count(t4, 6, 0) == {(0,) * 6}


def test_child_count_lookup_equals_the_kind_keyed_lookup():
    rng = random.Random("kind-keyed lookup")
    tables = [builtin_table(d) for d in range(1, 6)]
    tables += [random_law_table(rng, mode) for mode in ("extend", "replace") for _ in range(50)]
    for table in tables:
        for parent in (-1, 0, 1):
            for c in range(1, 10):
                kind = kind_for_child_count(c)
                want = kind_keyed_child_multisets(table, kind, parent)
                assert splits_for_child_count(table, c, parent) == want, (table, c, parent)
            # a type_m lookup does not depend on m
            assert (kind_keyed_child_multisets(table, type_m(None), parent)
                    == kind_keyed_child_multisets(table, type_m(5), parent)
                    == splits_for_child_count(table, type_m(5).child_count, parent))
        # the saddle-node pairs as they were read off the entries
        assert saddle_node_pairs(table) == {tuple(sorted((e.parent, e.children[0])))
                                            for e in table.entries if e.kind == SADDLE_NODE}


def test_load_law_table_extend():
    doc = {"schemaVersion": "1", "dimension": 2, "entries": [
        {"kind": "period_doubling", "parent": 0, "children": [-1, 1],
         "multipliers": [1, 2]}]}
    table = load_law_table(doc)
    assert splits_for_child_count(table, 2, 0) == {(-1, 1)}
    # the rest of the builtin table is still there
    assert splits_for_child_count(table, 2, 1) == {(0, 1)}


def test_load_law_table_replace():
    doc = {"schemaVersion": "1", "dimension": 2, "mode": "replace", "entries": [
        {"kind": "saddle_node", "parent": 1, "children": [-1]}]}
    table = load_law_table(doc)
    assert saddle_node_pairs(table) == {(-1, 1)}
    assert splits_for_child_count(table, 2, 1) == frozenset()
    assert splits_for_child_count(table, 5, 1) == frozenset()


def _one_entry_table(kind, children):
    return load_law_table({"schemaVersion": "1", "dimension": 4, "entries": [
        {"kind": kind, "parent": 1, "children": children}]})


def test_load_law_table_accepts_a_null_multiplier():
    # as in diagram documents: the index laws do not depend on m
    table = _one_entry_table({"type_m": None}, [1, 1, -1])
    assert (-1, 1, 1) in splits_for_child_count(table, 3, 1)


@pytest.mark.parametrize("kind, path", [
    ({"junction": 4.7}, "$.entries[0].kind.junction"),
    ({"type_m": "5"}, "$.entries[0].kind.type_m"),
    ("sideways", "$.entries[0].kind"),
])
def test_load_law_table_rejects_bad_kinds(kind, path):
    with pytest.raises(SchemaError) as err:
        _one_entry_table(kind, [0, 0, 0, 1])
    assert err.value.path == path


def test_load_law_table_reads_text_not_paths(tmp_path):
    valid = tmp_path / "table.json"
    valid.write_text('{"schemaVersion": "1", "dimension": 2, "entries": []}')
    truncated = tmp_path / "truncated.json"
    truncated.write_text(valid.read_text()[:-3])
    for source in (str(valid), str(truncated), truncated.read_text()):
        with pytest.raises(SchemaError) as err:
            load_law_table(source)
        assert err.value.path == "$"
