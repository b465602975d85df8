"""Diagram/graph/matroid documents, DOT export, fixture."""

import contextlib
import copy
import io
import json
import pickle
from dataclasses import FrozenInstanceError, replace
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bifgraph import (
    TERMINAL, BifurcationKind, ColoredTree, Diagram, DiagramError, Edge, EnumerationSpec,
    SchemaError, SimpleGraph, Vertex, builtin_table, check_period_consistency, emit_diagram,
    emit_dot, emit_graph, enumerate_colored, from_bases, junction, mary_to_binary,
    nonadmissible_period_fixture, parse_diagram, parse_graph, parse_matroid, parse_tree,
    period_doubling, saddle_node, to_clique, to_star, tree_to_diagram, validate_diagram,
)
from bifgraph.cli import main
from bifgraph.documents import emit_binary_tree, trees_dot, trees_json
from helpers import (
    chain_tree, constructible_diagrams, diagram_trees_dot, dumped_binary_tree, dumped_diagram,
    dumped_graph, dumped_trees_json, field_values, formatted_trees_dot, joined_trees_dot,
    joined_trees_json, nested_mary_to_binary, nested_parse_tree, reindented_trees_json,
    star_diagram, tree_rows, walked_trees_dot, with_stack_room,
)

MINIMAL = {
    "schemaVersion": "1",
    "dimension": 2,
    "edges": [{"id": "a", "index": 1, "endpoints": ["terminal", "terminal"]}],
    "vertices": [],
}


def test_minimal_document_roundtrip():
    text = json.dumps(MINIMAL)
    once = emit_diagram(parse_diagram(text))
    twice = emit_diagram(parse_diagram(once))
    assert once == twice
    back = parse_diagram(once)
    assert back.dimension == 2 and len(back.edges) == 1


def test_schema_error_names_the_path():
    doc = dict(MINIMAL, vertices=[{"id": "v", "kind": "sideways"}])
    with pytest.raises(SchemaError) as err:
        parse_diagram(json.dumps(doc))
    assert err.value.path == "$.vertices[0].kind"

    bad_index = dict(MINIMAL, edges=[{"id": "a", "index": 7,
                                      "endpoints": ["terminal", "terminal"]}])
    with pytest.raises(SchemaError) as err:
        parse_diagram(json.dumps(bad_index))
    assert err.value.path == "$.edges[0].index"

    with pytest.raises(SchemaError) as err:
        parse_diagram(json.dumps(dict(MINIMAL, schemaVersion="2")))
    assert err.value.path == "$.schemaVersion"


def test_duplicate_ids_rejected():
    doc = dict(MINIMAL, edges=[
        {"id": "a", "index": 1, "endpoints": ["terminal", "terminal"]},
        {"id": "a", "index": 0, "endpoints": ["terminal", "terminal"]}])
    with pytest.raises(SchemaError) as err:
        parse_diagram(json.dumps(doc))
    assert err.value.path == "$.edges"


SCHEMA_ERRORS = json.loads(
    (Path(__file__).parent / "data" / "diagram_schema_errors.json").read_text(encoding="utf-8"))


def _run_cli(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


@pytest.mark.parametrize("case", SCHEMA_ERRORS, ids=[c["name"] for c in SCHEMA_ERRORS])
def test_schema_errors_match_the_recorded_fixture(case, tmp_path):
    # recorded from the parser that formatted every check's message up front
    text = case["text"] if "text" in case else json.dumps(case["doc"])
    with pytest.raises(SchemaError) as err:
        parse_diagram(text)
    assert (err.value.path, str(err.value)) == (case["path"], case["message"])
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    assert _run_cli(["validate", str(path)]) == case["validate"]
    assert _run_cli(["validate", str(path), "--json"]) == case["validate_json"]


_SN_EDGES = [{"id": "a", "index": 1, "endpoints": ["terminal", "v"]},
             {"id": "b", "index": -1, "endpoints": ["v", "terminal"]}]
_DOUBLING_EDGES = [{"id": "p", "index": 1, "endpoints": ["terminal", "v"]},
                   {"id": "c0", "index": 0, "endpoints": ["v", "terminal"]},
                   {"id": "c1", "index": 1, "endpoints": ["v", "terminal"]}]


_STRUCTURAL_FAULTS = [
    (_SN_EDGES[:1] + [{"id": "b", "index": -1, "endpoints": ["v", "w"]}],
     [{"id": "v", "kind": "saddle_node"}],
     "$.edges[1].endpoints[1]", "edge 'b' references missing vertex 'w'"),
    ([{"id": "b", "index": -1, "endpoints": ["w", "v"]}] + _SN_EDGES[:1],
     [{"id": "v", "kind": "saddle_node"}],
     "$.edges[0].endpoints[0]", "edge 'b' references missing vertex 'w'"),
    (_SN_EDGES[:1] + [{"id": "b", "index": -1, "endpoints": ["v", "w"]}],
     [{"id": "v", "kind": "saddle_node"}, {"id": "w", "kind": "period_doubling"}],
     "$.vertices[1]", "vertex 'w' (period_doubling) needs degree 3, has 1"),
    (_SN_EDGES, [{"id": "v", "kind": "saddle_node"}, {"id": "u", "kind": "saddle_node"}],
     "$.vertices[1]", "vertex 'u' has no incident edge"),
    (_SN_EDGES, [{"id": "v", "kind": "saddle_node", "parentEdge": "a"}],
     "$.vertices[0].parentEdge", "saddle-node vertex 'v' takes no parent edge"),
    (_DOUBLING_EDGES, [{"id": "v", "kind": "period_doubling"}],
     "$.vertices[0].parentEdge", "vertex 'v' (period_doubling) needs a parent edge"),
    (_DOUBLING_EDGES + [{"id": "q", "index": 0, "endpoints": ["terminal", "terminal"]}],
     [{"id": "v", "kind": "period_doubling", "parentEdge": "q"}],
     "$.vertices[0].parentEdge", "parent edge 'q' is not incident to vertex 'v'"),
]


@pytest.mark.parametrize("edges, vertices, path, message", _STRUCTURAL_FAULTS)
def test_structural_errors_name_their_json_path(edges, vertices, path, message, tmp_path):
    doc = {"schemaVersion": "1", "dimension": 2, "edges": edges, "vertices": vertices}
    with pytest.raises(SchemaError) as err:
        parse_diagram(doc)
    assert (err.value.path, str(err.value)) == (path, f"{path}: {message}")
    file = tmp_path / "doc.json"
    file.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["validate", str(file)], ["validate", str(file), "--json"]):
        assert _run_cli(argv) == {"stdout": "", "stderr": f"error: {path}: {message}\n",
                                  "exit": 2}


@pytest.mark.parametrize("edges, vertices, path, message", _STRUCTURAL_FAULTS + [
    (_SN_EDGES + _SN_EDGES[1:], [{"id": "v", "kind": "saddle_node"}],
     "$.edges", "edge ids must be unique"),
    (_SN_EDGES, [{"id": "v", "kind": "saddle_node"}] * 2,
     "$.vertices", "vertex ids must be unique"),
    # the first missing end in edge and slot order is the one named
    (_SN_EDGES[:1] + [{"id": "b", "index": -1, "endpoints": ["v", "w"]},
                      {"id": "c", "index": 0, "endpoints": ["x", "terminal"]}],
     [{"id": "v", "kind": "saddle_node"}],
     "$.edges[1].endpoints[1]", "edge 'b' references missing vertex 'w'"),
    (_SN_EDGES[:1] + [{"id": "b", "index": -1, "endpoints": ["w", "x"]}],
     [{"id": "v", "kind": "saddle_node"}],
     "$.edges[1].endpoints[0]", "edge 'b' references missing vertex 'w'"),
])
def test_built_diagrams_locate_their_structural_errors(edges, vertices, path, message):
    """``Diagram`` itself names the path that ``parse_diagram`` reports."""
    doc = {"schemaVersion": "1", "dimension": 2, "edges": edges, "vertices": vertices}
    with pytest.raises(SchemaError) as parsed:
        parse_diagram(doc)
    assert parsed.value.path == path
    ends = [tuple(TERMINAL if x == "terminal" else x for x in e["endpoints"]) for e in edges]
    with pytest.raises(DiagramError) as built:
        Diagram(2, tuple(Edge(e["id"], e["index"], end) for e, end in zip(edges, ends)),
                tuple(Vertex(v["id"], BifurcationKind(v["kind"]), v.get("parentEdge"))
                      for v in vertices))
    assert ("$" + built.value.where, str(built.value)) == (path, message)


def test_fixture_parses_and_fails_only_on_periods():
    fx = nonadmissible_period_fixture()
    assert fx.dimension == 2
    report = validate_diagram(fx, 1, builtin_table(2))
    assert not report.ok
    assert {v.code for v in report.violations} == {"period"}
    period = check_period_consistency(fx)
    assert period.applicable and not period.ok
    # the clash is at the saddle node gluing the period-1 and period-4 branches
    assert period.violations[0].vertex_id == "s2"
    assert set(period.violations[0].edge_pair) == {"A", "R"}


def test_fixture_roundtrips_canonically():
    fx = nonadmissible_period_fixture()
    assert emit_diagram(parse_diagram(emit_diagram(fx))) == emit_diagram(fx)


# -- DOT ----------------------------------------------------------------------

def test_dot_single_blue_edge():
    d = star_diagram(1, (-1,))  # one +1 edge, one -1 edge
    out = emit_dot(d)
    assert out.count("color=blue") == 1
    assert out.count("color=red") == 1


def test_dot_star_representation_orders_hub_first():
    d = star_diagram(1, (0, 1))
    out = emit_dot(to_star(d))
    lines = [l for l in out.splitlines() if l.strip().startswith("n")]
    assert lines[0].startswith("  n0") and 'label="p"' in lines[0]
    assert out.count(" -- ") == 2
    assert out.count("n0 --") == 2  # hub carries both edges


def test_dot_empty_diagram():
    from bifgraph import Diagram
    out = emit_dot(Diagram(2, (), ()))
    assert out.startswith("graph g {") and out.rstrip().endswith("}")


def test_dot_deterministic():
    fx = nonadmissible_period_fixture()
    assert emit_dot(fx) == emit_dot(fx)


# -- other documents ----------------------------------------------------------

def test_graph_document_roundtrip():
    doc = {"vertexCount": 3, "edges": [[0, 1], [1, 2]]}
    g = parse_graph(json.dumps(doc))
    assert g.n == 3 and len(g.edges) == 2
    assert parse_graph(emit_graph(g)) == g


def test_graph_document_errors():
    with pytest.raises(SchemaError):
        parse_graph('{"vertexCount": 2, "edges": [[0, 5]]}')
    with pytest.raises(SchemaError):
        parse_graph('{"edges": []}')


def test_matroid_document():
    m = parse_matroid('{"groundSet": ["a", "b", "c"], "bases": [["a", "b"]]}')
    assert m.rank == 2
    assert m.is_independent({"a"}) and not m.is_independent({"c"})
    with pytest.raises(SchemaError) as err:
        parse_matroid('{"groundSet": ["a", "b"], "bases": [["a", "z"]]}')
    assert err.value.path == "$.bases"
    with pytest.raises(SchemaError) as err:
        parse_matroid('{"groundSet": ["a", "b", "c", "d"], "bases": [["a", "b"], ["c", "d"]]}')
    assert err.value.path == "$.bases" and "exchange" in str(err.value)


@pytest.mark.parametrize("doc, path", [
    ({"groundSet": ["a", "a", "b"], "bases": [["a"], ["b"]]}, "$.groundSet"),
    ({"groundSet": [1, 2, 1], "bases": [[1]]}, "$.groundSet"),
    ({"groundSet": ["a", "b"], "bases": [["a", "a"], ["b"]]}, "$.bases[0]"),
    ({"groundSet": ["a", "b"], "bases": [["a", "a"], ["b", "a"]]}, "$.bases[0]"),
    ({"groundSet": ["a", "b", "c"], "bases": [["a", "b"], ["c", "b", "c"]]}, "$.bases[1]"),
])
def test_matroid_document_repeats_are_reported_where_they_are(doc, path, tmp_path, capsys):
    with pytest.raises(SchemaError) as err:
        parse_matroid(json.dumps(doc))
    assert (err.value.path, str(err.value)) == (path, f"{path}: elements must be distinct")
    file = tmp_path / "matroid.json"
    file.write_text(json.dumps(doc))
    assert main(["matroid", str(file)]) == 2
    assert capsys.readouterr().err == f"error: {path}: elements must be distinct\n"


def test_from_bases_keeps_its_own_errors_for_repeats():
    with pytest.raises(ValueError, match="^ground set elements must be distinct$"):
        from_bases(["a", "a", "b"], [["a"], ["b"]])
    # a basis with a repeat is the set of its elements
    assert from_bases(["a", "b"], [["a", "a"], ["b"]]).rank == 1


def _edge(**changes):
    return [dict({"id": "a", "index": 1, "endpoints": ["terminal", "terminal"]}, **changes)]


@pytest.mark.parametrize("parse, doc, path", [
    (parse_diagram, dict(MINIMAL, dimension=True), "$.dimension"),
    (parse_diagram, dict(MINIMAL, edges=_edge(index=True)), "$.edges[0].index"),
    (parse_diagram, dict(MINIMAL, edges=_edge(period=True)), "$.edges[0].period"),
    (parse_diagram, dict(MINIMAL, vertices=[{"id": "v", "kind": {"junction": True}}]),
     "$.vertices[0].kind.junction"),
    (parse_graph, [1, 2], "$"),
    (parse_graph, {"vertexCount": True, "edges": []}, "$.vertexCount"),
    (parse_graph, {"vertexCount": 2, "edges": [[True, 0]]}, "$.edges[0]"),
    (parse_graph, {"vertexCount": 2, "edges": [[0, 1]], "colors": [True, 0]}, "$.colors"),
    (parse_graph, {"vertexCount": 2, "edges": [[0, 1]], "colors": [5, 0]}, "$.colors"),
    (parse_matroid, [1, 2], "$"),
    (parse_matroid, {"groundSet": ["a", "b"], "bases": [[["a"], "b"]]}, "$.bases[0]"),
    (parse_matroid, {"groundSet": ["a", "b"], "bases": ["ab"]}, "$.bases[0]"),
    (parse_matroid, {"groundSet": ["a", True], "bases": [["a"]]}, "$.groundSet"),
    (parse_matroid, {"groundSet": ["a", ["b"]], "bases": [["a"]]}, "$.groundSet"),
    (parse_tree, {}, "$"),
    (parse_tree, [[], [[], 3]], "$[1][1]"),  # the first non-list in preorder
    (parse_tree, [[[[1]]], 2], "$[0][0][0][0]"),
])
def test_documents_reject_values_of_the_wrong_type(parse, doc, path):
    with pytest.raises(SchemaError) as err:
        parse(json.dumps(doc))
    assert err.value.path == path


def test_tree_documents():
    t = parse_tree("[[], [[]]]")
    assert t == ((), ((),)) and isinstance(t, tuple)
    out = emit_binary_tree(((0, ()),))
    assert json.loads(out) == {"left": {"left": None, "right": None}, "right": None}


def test_dot_escapes_quotes_in_ids():
    from bifgraph import TERMINAL, Diagram, Edge
    d = Diagram(2, (Edge('say "hi"', 1, (TERMINAL, TERMINAL)),), ())
    out = emit_dot(d)
    assert 'say \\"hi\\"' in out


def test_documents_roundtrip_over_enumerated_diagrams():
    from bifgraph import EnumerationSpec, enumerate_colored, tree_to_diagram
    for t in enumerate_colored(EnumerationSpec(2, 4, 4)):
        d = tree_to_diagram(t, 4)
        text = emit_diagram(d)
        again = parse_diagram(text)
        assert emit_diagram(again) == text
        assert validate_diagram(again, 2, builtin_table(4)).ok


def _written(write, trees) -> str:
    """The text of a writer of ``ColoredTree``s."""
    return "".join(write(trees))


def _rows_written(write, trees) -> str:
    """The text of a row writer on the rows of ``trees`` (``tree_rows``)."""
    return "".join(write(*tree_rows(trees)))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("mode", ["plane", "free"])
def test_tree_writers_equal_the_per_object_oracles(mode, k):
    for d in (1, 2, 3, 4):
        for n in range(1, (5 if k == 3 else 6) + 1):
            trees = enumerate_colored(EnumerationSpec(k, d, n, mode))
            assert _rows_written(trees_json, trees) == dumped_trees_json(trees), (d, n)
            assert _rows_written(trees_dot, trees) == diagram_trees_dot(trees, d), (d, n)


def test_tree_writers_take_any_iterable_of_trees():
    # fresh trees from a generator, each dropped once turned into rows: a new
    # subtree could take a freed one's id unless tree_rows keeps them alive
    def fresh():
        for color in (1, -1, 0, 1):
            yield ColoredTree(color, (ColoredTree(-color), ColoredTree(color)), None)

    table, listed = tree_rows(fresh())
    assert "".join(trees_json(table, iter(listed))) == dumped_trees_json(list(fresh()))
    assert "".join(trees_dot(table, iter(listed))) == diagram_trees_dot(list(fresh()), 4)
    assert _rows_written(trees_json, []) == "[]\n"
    assert _rows_written(trees_dot, []) == ""


def test_tree_writers_do_not_recurse():
    tree = chain_tree(150)
    assert with_stack_room(40, _rows_written, trees_json, [tree]) == dumped_trees_json([tree])
    assert with_stack_room(40, _rows_written, trees_dot, [tree]) == diagram_trees_dot([tree], 1)


@st.composite
def _shared_listings(draw) -> list:
    """A listing of trees from one pool, each pool tree built over trees
    drawn before it, so listed trees share subtree objects and may be
    children of one another; repeats are allowed.  In a plane pool children
    get slots and a leaf's are None or (); in a free pool slots are None."""
    plane, pool = draw(st.booleans()), []
    for _ in range(draw(st.integers(1, 10))):
        kids = tuple(draw(st.lists(st.sampled_from(pool), max_size=3))) if pool else ()
        slots = None
        if plane and kids:
            slots = tuple(sorted(draw(st.sets(st.integers(0, 3), min_size=len(kids),
                                              max_size=len(kids)))))
        elif plane:
            slots = draw(st.sampled_from([None, ()]))
        pool.append(ColoredTree(draw(st.sampled_from([-1, 0, 1])), kids, slots))
    return draw(st.lists(st.sampled_from(pool), max_size=8))


_LEAF = ColoredTree(1)
_PLANE_MID, _FREE_MID = ColoredTree(-1, (_LEAF,), (0,)), ColoredTree(-1, (_LEAF,))
_PLANE_TOP = ColoredTree(0, (_PLANE_MID, _LEAF), (0, 2))
_FREE_TOP = ColoredTree(0, (_FREE_MID, _LEAF, _FREE_MID))


@settings(deadline=None, max_examples=300)
@given(_shared_listings())
@example([_PLANE_MID, _PLANE_TOP, _PLANE_TOP, _LEAF, ColoredTree(0)])
@example([_FREE_MID, _FREE_TOP, _LEAF, _FREE_TOP, ColoredTree(0)])
@example([])
def test_tree_writers_equal_the_oracles_on_shared_subtrees(trees):
    """On the rows of trees that share subtrees (a listed tree that is a
    child of a later one, the same tree listed twice, leaves, the empty
    list) both writers give the per-object texts and those of the writers
    they replaced."""
    assert (_rows_written(trees_json, trees) == dumped_trees_json(trees)
            == _written(reindented_trees_json, trees) == _written(joined_trees_json, trees))
    assert (_rows_written(trees_dot, trees) == diagram_trees_dot(trees, 4)
            == _written(walked_trees_dot, trees) == _written(joined_trees_dot, trees))


def test_tree_dot_equals_the_graph_dot_writer_exhaustively():
    for mode in ("plane", "free"):
        for k in (1, 2, 3):
            for d in (1, 2, 3, 4):
                for n in range(1, 7):
                    trees = enumerate_colored(EnumerationSpec(k, d, n, mode))
                    assert (_rows_written(trees_dot, trees)
                            == _written(formatted_trees_dot, trees)), (mode, k, d, n)


def test_parsed_and_bridged_edges_are_the_publicly_built_values():
    """``parse_diagram`` and ``tree_to_diagram`` build edges through the
    public constructor, which rejects a bad index, end count or period; the
    edges equal those that ``Edge(...)`` builds, field by field."""
    with pytest.raises(ValueError):
        Edge("e", 2, (TERMINAL, TERMINAL))
    with pytest.raises(DiagramError):
        Edge("e", 1, (TERMINAL,))
    with pytest.raises(DiagramError):
        Edge("e", 1, (TERMINAL, TERMINAL), 0)
    diagrams = [nonadmissible_period_fixture()]
    diagrams += [tree_to_diagram(t, 4) for t in enumerate_colored(EnumerationSpec(2, 4, 4))]
    for d in diagrams:
        for diagram in (d, parse_diagram(emit_diagram(d))):
            public = tuple(Edge(e.id, e.index, e.ends, e.period) for e in diagram.edges)
            assert diagram.edges == public and hash(diagram.edges) == hash(public)
            assert [*map(field_values, diagram.edges)] == [*map(field_values, public)]


def test_terminal_survives_pickling_and_copying():
    """``TERMINAL`` is one object after pickling at every protocol and after
    ``copy``, so an unpickled diagram's edges still end at it."""
    assert copy.copy(TERMINAL) is TERMINAL and copy.deepcopy(TERMINAL) is TERMINAL
    fx = nonadmissible_period_fixture()
    report = validate_diagram(fx, 1, builtin_table(2))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(TERMINAL, protocol)) is TERMINAL
        back = pickle.loads(pickle.dumps(fx, protocol))
        assert back.edges == fx.edges and emit_diagram(back) == emit_diagram(fx)
        assert validate_diagram(back, 1, builtin_table(2)) == report


def test_trees_edges_and_vertices_are_slotted_values():
    """Trees, edges and vertices hold their fields in slots, with no
    ``__dict__``, stay frozen, and pickle and deep-copy to equal values
    with equal hashes."""
    tree = ColoredTree(1, (ColoredTree(0), ColoredTree(1)), (0, 1))
    diagram = tree_to_diagram(tree, 2)
    for value, name in ((tree, "color"), (diagram.edges[0], "index"),
                        (diagram.vertices[0], "parent_edge")):
        assert not hasattr(value, "__dict__")
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, getattr(value, name))
    for mode in ("plane", "free"):
        trees = enumerate_colored(EnumerationSpec(2, 4, 5, mode))
        diagrams = [tree_to_diagram(t, 4) for t in trees]
        diagrams += [parse_diagram(emit_diagram(d)) for d in diagrams]
        for values in (trees, diagrams):
            copies = [pickle.loads(pickle.dumps(values, protocol))
                      for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
            for other in (*copies, copy.deepcopy(values)):
                assert other == values and list(map(hash, other)) == list(map(hash, values))


def test_deep_and_shared_trees_pickle_and_copy():
    """A 3,000-node path pickles at every protocol and deep-copies to an
    equal tree with an equal hash, without stack room to recurse by level.
    A subtree that a tree holds twice stays one object, so a tree of 60
    levels that holds each level twice comes back as 61 objects, not 2^61.
    Shallow trees still copy and ``dataclasses.replace`` to equal values."""
    tree = chain_tree(3000)
    copies = [with_stack_room(40, lambda p=p: pickle.loads(pickle.dumps(tree, p)))
              for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in (*copies, with_stack_room(40, copy.deepcopy, tree)):
        assert other == tree and hash(other) == hash(tree)
    shared = ColoredTree(1)
    for level in range(60):
        shared = ColoredTree((-1) ** level, (shared, shared), (0, 1))
    node = again = pickle.loads(pickle.dumps(shared))
    assert hash(again) == hash(shared)
    kept = []  # per level: one child object, of the color of the original's
    while node.children:
        kept.append(node.children[0] is node.children[1] and node.color == shared.color)
        node, shared = node.children[0], shared.children[0]
    assert kept == [True] * 60
    small = ColoredTree(1, (ColoredTree(0), ColoredTree(1)), (0, 1))
    assert copy.copy(small) == small and hash(copy.copy(small)) == hash(small)
    assert replace(small, color=-1) == ColoredTree(-1, small.children, (0, 1))
    assert replace(small, slots=(1, 2)).slots == (1, 2)


def test_object_written_kinds_are_shared_within_one_document():
    """Equal kinds written as objects are one value in one parsed document
    and new values in the next; a bool or float parameter after an equal
    integer one is still an error at its own path."""
    leaves = tuple(ColoredTree(0) for _ in range(4))
    tree = ColoredTree(1, (ColoredTree(1, leaves[:3]), ColoredTree(-1, leaves[:3]),
                           ColoredTree(0, leaves)))
    text = emit_diagram(tree_to_diagram(tree, 4))
    first, second = ([v.kind for v in parse_diagram(text).vertices] for _ in range(2))
    assert [k.name for k in first] == ["type_m", "type_m", "type_m", "junction"]
    assert first[0] is first[1] is first[2] and first[0] is not second[0]
    assert first == second
    for kind, bad, message in (("junction", True, "parameter must be an integer"),
                               ("type_m", 3.0, "parameter must be an integer or null")):
        doc = dict(MINIMAL, vertices=[{"id": "v", "kind": {kind: 4}},
                                      {"id": "w", "kind": {kind: bad}}])
        with pytest.raises(SchemaError) as err:
            parse_diagram(doc)
        assert str(err.value) == f"$.vertices[1].kind.{kind}: {message}"


@settings(deadline=None, max_examples=300)
@given(constructible_diagrams())
@example(Diagram(1, (), ()))
def test_diagram_writer_equals_json_dumps(diagram):
    assert emit_diagram(diagram) == dumped_diagram(diagram)


@st.composite
def _graphs(draw) -> SimpleGraph:
    n = draw(st.integers(0, 7))
    edges = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))), unique=True)
                 if n > 1 else st.just([]))
    colors = draw(st.none() | st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n))
    return SimpleGraph.from_edges(n, edges, colors)


@settings(deadline=None, max_examples=300)
@given(_graphs())
@example(SimpleGraph.from_edges(0, []))
@example(SimpleGraph.from_edges(0, [], []))
@example(SimpleGraph.from_edges(3, [], [1, 0, -1]))
def test_graph_writer_equals_json_dumps(g):
    assert emit_graph(g) == dumped_graph(g)


def test_writers_equal_json_dumps_on_enumerated_diagrams():
    for t in enumerate_colored(EnumerationSpec(3, 4, 5)):
        d = tree_to_diagram(t, 4)
        assert emit_diagram(d) == dumped_diagram(d)
        for g in (to_star(d), to_clique(d)):
            assert emit_graph(g) == dumped_graph(g)


_nested_arrays = st.recursive(st.just([]), lambda inner: st.lists(inner, max_size=5),
                              max_leaves=40)


@settings(deadline=None, max_examples=300)
@given(_nested_arrays)
def test_convert_pipeline_equals_the_recursive_one(doc):
    tree = parse_tree(json.dumps(doc))
    assert tree == nested_parse_tree(doc)
    binary = mary_to_binary(tree)
    assert binary == nested_mary_to_binary(tree)
    assert emit_binary_tree(binary) == dumped_binary_tree(binary)


def test_convert_pipeline_does_not_recurse():
    # json.loads recurses itself, so the documents are parsed outside
    for doc in (json.loads("[" * 300 + "]" * 300), [[]] * 300):
        binary = with_stack_room(40, lambda: mary_to_binary(parse_tree(doc)))
        assert binary == nested_mary_to_binary(nested_parse_tree(doc))
        assert with_stack_room(40, emit_binary_tree, binary) == dumped_binary_tree(binary)
