"""File formats: the diagram JSON document, graph/matroid/tree and
law-table documents, and DOT export.

Every document is read through one reader: a dict is taken as it is, and
anything else is parsed as JSON text.  Parsing is schema-checked up front
and failures are ``SchemaError``s naming the JSON path of the offending
value.  Emission is canonical (fixed key order, ids sorted), so identical
inputs always produce byte-identical output.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Iterator
from importlib import resources
from json.encoder import encode_basestring_ascii
from operator import attrgetter

from .diagram import TERMINAL, Diagram, DiagramError, Edge, Vertex
from .graphs import SimpleGraph
from .laws import (
    COLOR_OF, INDEX_VALUES, JUNCTION, TYPE_M, BifurcationKind, LawEntry, LawTable,
    builtin_table, period_doubling, saddle_node,
)
from .matroids import from_bases

SCHEMA_VERSION = "1"

_DIAGRAM_KEYS = frozenset({"schemaVersion", "dimension", "edges", "vertices", "comment"})
_EDGE_KEYS = frozenset({"id", "index", "period", "endpoints"})
_VERTEX_KEYS = frozenset({"id", "kind", "parentEdge"})

#: The kinds written as plain strings, each one shared immutable value.
_STRING_KINDS = {kind.name: kind for kind in (saddle_node(), period_doubling())}
_by_id = attrgetter("id")


class SchemaError(ValueError):
    """Document violates the expected schema; ``path`` names the location."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _expect(cond: bool, path: str, message: str, value=None) -> None:
    """Raise ``SchemaError(path, message)`` unless ``cond``; ``value`` is the
    integer or list checked, for ``_unread``."""
    if not cond:
        raise SchemaError(path, _unread(value, message))


class _LongLiteral(float):
    """An integer literal with more digits than ``int`` reads, read as an
    infinite float: every integer check fails on it, and ``_unread`` names
    why."""

    __slots__ = ()


def _unread(value, message: str) -> str:
    """``message``, or, when ``value`` is or lists an integer literal too
    long to read, a message that says so."""
    if any(isinstance(x, _LongLiteral) for x in (value if isinstance(value, list) else [value])):
        return (f"integer literal longer than the {sys.get_int_max_str_digits()} digits"
                " the parser reads (sys.get_int_max_str_digits())")
    return message


def _is_int(value) -> bool:
    """True for a JSON integer; booleans, which Python counts as ints, are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_index(value) -> bool:
    """True for a JSON orbit index: the integer -1, 0 or 1."""
    return _is_int(value) and value in INDEX_VALUES


def _is_element_list(value) -> bool:
    """True for a JSON list of strings and integers (matroid ground
    elements, law-entry multipliers)."""
    return isinstance(value, list) and all(isinstance(x, str) or _is_int(x) for x in value)


def _as_doc(source):
    """A dict as it is, anything else parsed as JSON text; text that is not
    JSON, or is nested too deeply to parse, is a ``SchemaError`` at ``$``.
    Text with an integer literal too long for ``int`` is read again with
    that literal a ``_LongLiteral``, so the check of its field names it."""
    if isinstance(source, dict):
        return source
    for parse_int in (None, _int_or_inf):
        try:
            return json.loads(str(source), parse_int=parse_int)
        except json.JSONDecodeError as exc:
            raise SchemaError("$", f"not valid JSON: {exc}") from exc
        except RecursionError:
            raise SchemaError("$", "JSON nested too deeply to parse") from None
        except ValueError:  # over sys.get_int_max_str_digits()
            continue


def _int_or_inf(literal: str):
    try:
        return int(literal)
    except ValueError:
        return _LongLiteral(literal)


def _as_object(source) -> dict:
    doc = _as_doc(source)
    _expect(isinstance(doc, dict), "$", "document must be an object")
    return doc


def kind_from_json(raw, path: str) -> BifurcationKind:
    """The kind as diagram and law-table documents write it:
    "saddle_node", "period_doubling", {"type_m": m} or {"junction": n}.

    type_m admits a null multiplier: the index laws do not depend on m, only
    the period check does (and it demands a concrete m).  Errors are
    ``SchemaError``s that name ``path``.
    """
    if isinstance(raw, str) and raw in _STRING_KINDS:
        return _STRING_KINDS[raw]
    if isinstance(raw, dict) and len(raw) == 1:
        (name, param), = raw.items()
        if name in (TYPE_M, JUNCTION):
            if not (_is_int(param) or (param is None and name == TYPE_M)):
                message = "parameter must be an integer" + (" or null" if name == TYPE_M else "")
                raise SchemaError(f"{path}.{name}", _unread(param, message))
            try:
                return BifurcationKind(name, param)
            except ValueError as exc:
                raise SchemaError(f"{path}.{name}", str(exc)) from exc
    raise SchemaError(path, f"unknown kind {raw!r}")


# ---------------------------------------------------------------------------
# Diagram documents
# ---------------------------------------------------------------------------

def parse_diagram(source) -> Diagram:
    """Parse and schema-check a diagram document (JSON text or dict).

    Checks run in a fixed order and the first failure is raised, as a
    ``SchemaError`` whose path and message are formatted only then.  A
    structural error of the diagram (a repeated id, a dangling endpoint, a
    wrong degree, a bad parent edge) is ``Diagram``'s own, as a
    ``SchemaError`` at the path its ``DiagramError`` names.
    """
    doc = _as_object(source)
    if not doc.keys() <= _DIAGRAM_KEYS:
        raise SchemaError("$", f"unknown keys {sorted(set(doc) - _DIAGRAM_KEYS)}")
    if doc.get("schemaVersion") != SCHEMA_VERSION:
        raise SchemaError("$.schemaVersion", f"must be {SCHEMA_VERSION!r}")
    dim = doc.get("dimension")
    _expect(_is_int(dim) and dim >= 1, "$.dimension", "must be an integer >= 1", dim)
    _expect(isinstance(doc.get("edges"), list), "$.edges", "must be a list")
    _expect(isinstance(doc.get("vertices"), list), "$.vertices", "must be a list")

    # the field tests of _is_int and _is_index, inlined: a bool is no integer
    edges = []
    for i, item in enumerate(doc["edges"]):
        if not isinstance(item, dict):
            raise SchemaError(f"$.edges[{i}]", "must be an object")
        if not item.keys() <= _EDGE_KEYS:
            raise SchemaError(f"$.edges[{i}]", f"unknown keys {sorted(set(item) - _EDGE_KEYS)}")
        eid = item.get("id")
        if not (isinstance(eid, str) and eid):
            raise SchemaError(f"$.edges[{i}].id", "must be a nonempty string")
        index = item.get("index")
        if not (isinstance(index, int) and index.__class__ is not bool and index in INDEX_VALUES):
            raise SchemaError(f"$.edges[{i}].index", "must be -1, 0 or 1")
        period = item.get("period")
        if period is not None and not (
                isinstance(period, int) and period.__class__ is not bool and period >= 1):
            raise SchemaError(f"$.edges[{i}].period",
                              _unread(period, "must be a positive integer"))
        eps = item.get("endpoints")
        if not (isinstance(eps, list) and len(eps) == 2):
            raise SchemaError(f"$.edges[{i}].endpoints", "must be a two-element list")
        a, b = eps
        if a == "terminal":
            a = TERMINAL
        elif not (isinstance(a, str) and a):
            raise SchemaError(f"$.edges[{i}].endpoints[0]", 'must be a vertex id or "terminal"')
        if b == "terminal":
            b = TERMINAL
        elif not (isinstance(b, str) and b):
            raise SchemaError(f"$.edges[{i}].endpoints[1]", 'must be a vertex id or "terminal"')
        edges.append(Edge(eid, index, (a, b), period))

    vertices = []
    for i, item in enumerate(doc["vertices"]):
        if not isinstance(item, dict):
            raise SchemaError(f"$.vertices[{i}]", "must be an object")
        if not item.keys() <= _VERTEX_KEYS:
            raise SchemaError(f"$.vertices[{i}]",
                              f"unknown keys {sorted(set(item) - _VERTEX_KEYS)}")
        vid = item.get("id")
        if not (isinstance(vid, str) and vid):
            raise SchemaError(f"$.vertices[{i}].id", "must be a nonempty string")
        raw = item.get("kind")
        kind = _STRING_KINDS.get(raw) if isinstance(raw, str) else None
        if kind is None:
            kind = kind_from_json(raw, f"$.vertices[{i}].kind")
        parent = item.get("parentEdge")
        if parent is not None and not isinstance(parent, str):
            raise SchemaError(f"$.vertices[{i}].parentEdge", "must be an edge id")
        vertices.append(Vertex(vid, kind, parent))

    try:
        return Diagram(dim, tuple(edges), tuple(vertices))
    except DiagramError as exc:
        raise SchemaError("$" + exc.where, str(exc)) from exc


def emit_diagram(diagram: Diagram) -> str:
    """Canonical JSON for a diagram: fixed key order, ids sorted.  The text
    is that of ``json.dumps(doc, indent=2)``, written directly."""
    edges = []
    for e in sorted(diagram.edges, key=_by_id):
        period = "" if e.period is None else f'\n      "period": {_scalar(e.period)},'
        a, b = ('"terminal"' if x is TERMINAL else _scalar(x) for x in e.ends)
        edges.append(f'{{\n      "id": {_scalar(e.id)},\n      "index": {_scalar(e.index)},'
                     f'{period}\n      "endpoints": [\n        {a},\n        {b}\n      ]\n    }}')
    vertices = []
    for v in sorted(diagram.vertices, key=_by_id):
        name, param, parent = v.kind.name, v.kind.param, v.parent_edge
        kind = (f'"{name}"' if name in _STRING_KINDS
                else f'{{\n        "{name}": {_scalar(param)}\n      }}')
        parent = "" if parent is None else f',\n      "parentEdge": {_scalar(parent)}'
        vertices.append(f'{{\n      "id": {_scalar(v.id)},\n      "kind": {kind}{parent}\n    }}')
    dimension = _scalar(diagram.dimension)
    return (f'{{\n  "schemaVersion": "{SCHEMA_VERSION}",\n  "dimension": {dimension},\n'
            f'  "edges": {_json_array(edges)},\n  "vertices": {_json_array(vertices)}\n}}\n')


def _scalar(value) -> str:
    """``json.dumps(value)`` for a scalar; strings and ints skip the encoder's set-up."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    return str(value) if type(value) is int else json.dumps(value)


def nonadmissible_period_fixture() -> Diagram:
    """The shipped cyclic diagram that passes every index-based law in
    dimension 2 but carries an impossible period labeling: an index-1
    branch doubled at both ends, with the outer ends glued through two
    saddle nodes and a -1 edge."""
    data = resources.files("bifgraph").joinpath("data/nonadmissible_period.json")
    return parse_diagram(data.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Graph / matroid / tree documents
# ---------------------------------------------------------------------------

def parse_graph(source) -> SimpleGraph:
    """Graph document: {"vertexCount": n, "edges": [[u, v], ...],
    "colors"?: [...]}"""
    doc = _as_object(source)
    n = doc.get("vertexCount")
    _expect(_is_int(n) and n >= 0, "$.vertexCount", "must be an integer >= 0", n)
    raw = doc.get("edges")
    _expect(isinstance(raw, list), "$.edges", "must be a list")
    edges = []
    for i, e in enumerate(raw):
        _expect(isinstance(e, list) and len(e) == 2 and all(map(_is_int, e)),
                f"$.edges[{i}]", "must be a pair of vertex numbers", e)
        edges.append(tuple(e))
    colors = doc.get("colors")
    if colors is not None:
        _expect(isinstance(colors, list) and len(colors) == n
                and all(map(_is_index, colors)), "$.colors",
                "must list one color (-1, 0 or 1) per vertex")
    try:
        return SimpleGraph.from_edges(n, edges, colors)
    except ValueError as exc:
        raise SchemaError("$.edges", str(exc)) from exc


def emit_graph(g: SimpleGraph) -> str:
    """Canonical JSON for a graph, in the text of ``json.dumps(doc, indent=2)``."""
    edges = [f"[\n      {_scalar(u)},\n      {_scalar(v)}\n    ]" for u, v in g.sorted_edges()]
    text = f'{{\n  "vertexCount": {_scalar(g.n)},\n  "edges": {_json_array(edges)}'
    if g.colors is not None:
        text += f',\n  "colors": {_json_array(list(map(_scalar, g.colors)))}'
    return text + "\n}\n"


def parse_matroid(source):
    """Matroid document: {"groundSet": [...], "bases": [[...], ...]}"""
    doc = _as_object(source)
    ground = doc.get("groundSet")
    _expect(_is_element_list(ground) and ground, "$.groundSet",
            "must be a nonempty list of strings or integers", ground)
    _expect(len(set(ground)) == len(ground), "$.groundSet", "elements must be distinct")
    bases = doc.get("bases")
    _expect(isinstance(bases, list) and bases, "$.bases", "must be a nonempty list")
    for i, basis in enumerate(bases):
        _expect(_is_element_list(basis), f"$.bases[{i}]",
                "must be a list of strings or integers", basis)
        _expect(len(set(basis)) == len(basis), f"$.bases[{i}]", "elements must be distinct")
    try:
        return from_bases(ground, bases)
    except ValueError as exc:
        raise SchemaError("$.bases", str(exc)) from exc


def parse_tree(source) -> tuple:
    """Ordered tree as nested arrays: [] is a leaf, [c1, c2, ...] a node.

    Built from an explicit stack, so any depth the JSON parser accepts
    converts; the first non-list in preorder is reported."""
    doc = _as_doc(source) if not isinstance(source, list) else source
    _expect(isinstance(doc, list), "$", "must be a list")
    stack = [(doc, [])]  # (array, its children converted so far)
    while True:
        node, done = stack[-1]
        if len(done) == len(node):
            stack.pop()
            if not stack:
                return tuple(done)
            stack[-1][1].append(tuple(done))
        elif isinstance(node[len(done)], list):
            stack.append((node[len(done)], []))
        else:
            raise SchemaError("$" + "".join(f"[{len(d)}]" for _, d in stack), "must be a list")


def emit_binary_tree(t) -> str:
    """Binary slot tree as nested {"left": ..., "right": ...} objects, with
    the text of ``json.dumps(..., indent=2)``.

    Written in preorder from an explicit stack, each line at its final
    indent, so the work is linear in the output at any depth."""
    out = []
    stack = [(t, "\n")]  # (node or None, newline plus the node's indent)
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, pad = item
        if node is None:
            out.append("null")
            continue
        kids, inner = dict(node), pad + "  "
        out.append("{" + inner + '"left": ')
        stack += [pad + "}", (kids.get(1), inner), "," + inner + '"right": ',
                  (kids.get(0), inner)]
    return "".join(out) + "\n"


# ---------------------------------------------------------------------------
# Colored trees (enumerate --emit json|dot)
# ---------------------------------------------------------------------------

def trees_json(trees) -> Iterator[str]:
    """Colored trees in the text of ``json.dumps(docs, indent=2, sort_keys=True)``
    plus a newline, one chunk per tree and then the closing one, where a
    tree's doc is {"children": [...], "color": c} and "slots" in plane mode.

    The text of each distinct subtree is built once and kept by ``id()``:
    enumerated trees share their subtree objects, so most of a tree's text
    is already there.  A parent indents a child's text with one replace."""
    memo: dict = {}  # id(subtree) -> (subtree, its text indented as a child)
    sep = "[\n  "
    for tree in trees:
        yield sep + _tree_text(tree, memo).replace("\n", "\n  ")
        sep = ",\n  "
    yield "[]\n" if sep == "[\n  " else "\n]\n"


def _tree_text(root, memo: dict) -> str:
    """The JSON text of one colored tree at indent 0, children first from an
    explicit stack; the text of every proper subtree ends up in ``memo``."""
    order, stack = [], [root]  # the nodes still to write, each before its children
    while stack:
        node = stack.pop()
        order.append(node)
        stack += [c for c in node.children if id(c) not in memo]
    for node in reversed(order):
        text = ('{\n  "children": ' + _json_array([memo[id(c)][1] for c in node.children])
                + ',\n  "color": ' + str(node.color))
        if node.slots is not None:
            text += ',\n  "slots": ' + _json_array(list(map(str, node.slots)))
        text += "\n}"
        if node is root:
            return text
        memo[id(node)] = (node, text.replace("\n", "\n    "))


def _json_array(items: list) -> str:
    """A JSON array that is a member of an object at indent 0, from its
    items' texts already indented to their place."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def trees_dot(trees) -> Iterator[str]:
    """Each colored tree's star representation as a DOT graph t0, t1, ...,
    one chunk per tree: the DOT of ``to_star(tree_to_diagram(tree, d))``
    without building either.  Vertex i is the i-th node in preorder, labelled
    e{i} and colored by its index; each parent links to its children, sorted."""
    vertex_lines: list[dict] = []  # [i][color]: the line of vertex i in that color
    edge_lines: dict = {}  # (u, v): the line of edge u -- v
    for t, tree in enumerate(trees):
        lines, edges = [f"graph t{t} {{\n"], []
        stack = [(tree, -1)]  # (node, its parent's number); the root's (-1, 0) sorts first
        while stack:
            node, parent = stack.pop()
            i = len(lines) - 1
            if i == len(vertex_lines):
                vertex_lines.append({c: f'  n{i} [label="e{i}", color={name}];\n'
                                     for c, name in COLOR_OF.items()})
            lines.append(vertex_lines[i][node.color])
            edges.append((parent, i))
            if node.children:
                stack += [(c, i) for c in reversed(node.children)]
        edges.sort()
        for edge in edges[1:]:
            line = edge_lines.get(edge)
            if line is None:
                line = edge_lines[edge] = "  n%d -- n%d;\n" % edge
            lines.append(line)
        lines.append("}\n")
        yield "".join(lines)


# ---------------------------------------------------------------------------
# Law-table documents
# ---------------------------------------------------------------------------

def load_law_table(source) -> LawTable:
    """Load a law table from a JSON document (text or dict).

    Format::

        {"schemaVersion": "1", "dimension": D, "mode": "extend"|"replace",
         "entries": [{"kind": ..., "parent": i, "children": [...],
                      "multipliers": [...]}, ...]}

    ``extend`` (the default) adds the listed entries to the built-in table
    for the dimension; ``replace`` keeps only the listed entries plus no
    generated junction families.  Each entry lists as many children as its
    kind splits into ({"junction": n} takes n), and conservation and the
    always-forbidden transitions are enforced either way.
    """
    doc = _as_object(source)
    d = doc.get("dimension")
    _expect(_is_int(d) and d >= 1, "$.dimension", "must be an integer >= 1", d)
    mode = doc.get("mode", "extend")
    _expect(mode in ("extend", "replace"), "$.mode", "must be 'extend' or 'replace'")
    items = doc.get("entries", [])
    _expect(isinstance(items, list), "$.entries", "must be a list")
    extra = []
    for i, item in enumerate(items):
        path = f"$.entries[{i}]"
        _expect(isinstance(item, dict), path, "must be an object")
        kind = kind_from_json(item.get("kind"), f"{path}.kind")
        _expect(_is_index(item.get("parent")), f"{path}.parent", "must be -1, 0 or 1")
        children = item.get("children")
        _expect(isinstance(children, list) and all(map(_is_index, children)),
                f"{path}.children", "must be a list of -1, 0 or 1")
        _expect(len(children) == kind.child_count, path,
                f"{kind.name} entry needs {kind.child_count} children, got {len(children)}")
        multipliers = item.get("multipliers", [])
        _expect(_is_element_list(multipliers), f"{path}.multipliers",
                "must be a list of integers or strings", multipliers)
        try:
            extra.append(LawEntry(kind.name, item["parent"], tuple(children),
                                  tuple(multipliers)))
        except ValueError as exc:
            raise SchemaError(path, str(exc)) from exc
    if mode == "replace":
        return LawTable(d, frozenset(extra), frozenset())
    base = builtin_table(d)
    return LawTable(d, base.entries | frozenset(extra), base.junction_families)


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def _q(text) -> str:
    return str(text).replace("\\", "\\\\").replace('"', '\\"')


def emit_dot(obj, name: str = "g") -> str:
    """DOT text for a diagram or a (possibly vertex-colored) graph.

    Orbit indices use the fixed convention red = -1, green = 0, blue = +1;
    output ordering is deterministic.
    """
    if isinstance(obj, Diagram):
        return _diagram_dot(obj, name)
    return _graph_dot(name, obj.n, obj.names, obj.colors, obj.sorted_edges())


def _graph_dot(name: str, n: int, names, colors, edges) -> str:
    """DOT of a graph: vertices n0..n{n-1} with optional labels and colors,
    then the edges in the order given (``trees_dot`` has its own)."""
    lines = [f"graph {name} {{"]
    for v in range(n):
        attrs = []
        if names is not None:
            attrs.append(f'label="{_q(names[v])}"')
        if colors is not None:
            attrs.append(f"color={COLOR_OF[colors[v]]}")
        lines.append(f"  n{v}" + (f" [{', '.join(attrs)}]" if attrs else "") + ";")
    lines += [f"  n{u} -- n{v};" for u, v in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _diagram_dot(diagram: Diagram, name: str) -> str:
    lines = [f"graph {name} {{"]
    for v in sorted(diagram.vertices, key=lambda v: v.id):
        label = v.kind.name if v.kind.param is None else f"{v.kind.name}({v.kind.param})"
        lines.append(f'  "{_q(v.id)}" [shape=box, label="{label}"];')
    terminal_count = 0
    for e in sorted(diagram.edges, key=lambda e: e.id):
        ends = []
        for x in e.ends:
            if x is TERMINAL:
                tid = f"__t{terminal_count}"
                terminal_count += 1
                lines.append(f'  "{tid}" [shape=point];')
                ends.append(tid)
            else:
                ends.append(x)
        attrs = [f"color={COLOR_OF[e.index]}", f'label="{_q(e.id)}"']
        if e.period is not None:
            attrs.append(f'taillabel="{e.period}"')
        lines.append(f'  "{_q(ends[0])}" -- "{_q(ends[1])}" [{", ".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
