"""Enumeration and exact counting of admissible colored trees.

A colored tree is the star-representation object: every node is an orbit
branch colored by its index, and a node with c children is an event of the
kind implied by c (1 = saddle-node pairing, 2 = doubling, 3 = m-fold
multiplication, >= 4 = junction).  A coloring is admissible when every
internal node's (color, child colors) passes the law table; leaves and the
root color are unconstrained.

Two counting conventions are supported and never mixed: PLANE trees give
children distinct positions among k+1 slots (the convention matched by the
k-ary counting formula), FREE trees identify reorderings of children.
Explicit enumeration is capped, and fills one table of trees by size and
root color inside each call, keeping nothing between calls.  The law table
is read once, into the rules of the bottom-up count engine in ``trees``
(``_count_rules``), which counts them without building a tree; the lister
``trees._pools`` builds the trees they describe, as ``ColoredTree``s or as
the rows of one table (``enumerate_rows``).  Both serve shapes too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod
from operator import attrgetter

from .diagram import TERMINAL, Diagram, Edge, Vertex
from .laws import (
    INDEX_VALUES, LawTable, builtin_table, check_index, kind_for_child_count,
    splits_for_child_count,
)
from .trees import (
    EnumerationLimitError, TreeMode, _count_series, _fold, _pools, count_kary_formula,
    count_shapes,
)

DEFAULT_LIST_LIMIT = 1_000_000
_children = attrgetter("children")


@dataclass(frozen=True, slots=True, init=False)
class ColoredTree:
    """Rooted tree with orbit-index colors; ``slots`` gives the child
    positions in plane mode and is None in free mode.

    Equality, hashing, ``repr``, ``shape``, pickling and copying walk the
    tree with an explicit stack, so a tree of any depth answers them; the
    hash and the repr equal the ones the dataclass would compute from
    (color, children, slots).  Equality compares each pair of subtree
    objects once, so trees that share subtrees compare in time linear in
    their distinct pairs.
    """

    color: int
    children: tuple["ColoredTree", ...] = ()
    slots: tuple[int, ...] | None = None

    def __init__(self, color: int, children: tuple = (), slots: tuple | None = None):
        check_index(color)
        if slots is not None and len(slots) != len(children):
            raise ValueError("slots must parallel children")
        _set_color(self, color)
        _set_children(self, children)
        _set_slots(self, slots)

    def __reduce__(self):
        """Rebuild from a flat record, children first, each distinct subtree
        once as (color, its children's places in the record, slots)."""
        order = _fold((self,), _children, lambda t, _: t)  # id(subtree) -> subtree
        place = {key: i for i, key in enumerate(order)}
        return _rebuilt, ([(t.color, tuple(place[id(c)] for c in t.children), t.slots)
                           for t in order.values()],)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack, seen = [(self, other)], set()  # seen: id pairs already taken from the stack
        while stack:
            a, b = stack.pop()
            if a is b or (pair := (id(a), id(b))) in seen:
                continue
            seen.add(pair)
            if (a.color != b.color or a.slots != b.slots
                    or len(a.children) != len(b.children)):
                return False
            stack += zip(a.children, b.children)
        return True

    def __repr__(self):
        """The dataclass's repr, written from an explicit stack."""
        out, stack = [], [self]
        while stack:
            node = stack.pop()
            if isinstance(node, str):
                out.append(node)
                continue
            kids = node.children
            out.append(f"{node.__class__.__qualname__}(color={node.color!r}, children=(")
            stack.append(f"{',' * (len(kids) == 1)}), slots={node.slots!r})")
            for i in range(len(kids) - 1, 0, -1):
                stack += (kids[i], ", ")
            stack += kids[:1]
        return "".join(out)

    def __hash__(self):
        hashes = _fold((self,), _children,
                       lambda t, kids: _Hash(hash((t.color, tuple(kids), t.slots))))
        return hashes[id(self)].value

    @property
    def size(self) -> int:
        count, stack = 0, [self]
        while stack:
            count += 1
            stack += stack.pop().children
        return count

    @property
    def kind(self):
        """Event kind at this node, or None at a leaf."""
        return kind_for_child_count(len(self.children)) if self.children else None

    def shape(self):
        """Uncolored shape in the carrier matching the tree's mode."""
        return _shapes((self,))[id(self)]


# The constructor writes each field through its slot, as ``Edge`` and ``Vertex`` do.
_set_color, _set_children, _set_slots = (
    ColoredTree.__dict__[name].__set__ for name in ("color", "children", "slots"))


def _rebuilt(record) -> ColoredTree:
    """The tree of a ``ColoredTree.__reduce__`` record: its last entry."""
    built = []
    for color, kids, slots in record:
        built.append(ColoredTree(color, tuple(built[i] for i in kids), slots))
    return built[-1]


class _Hash:
    """A subtree's known hash, standing in for the subtree in its parent's
    (color, children, slots) tuple."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __hash__(self):
        return self.value


def _shapes(roots) -> dict:
    """``{id(t): shape}`` for every node under ``roots``.  Equal shapes are
    built as one object, so a set of deep shapes never compares two of them
    element by element."""
    interned: dict = {}

    def shape(t, kids):
        key = (t.slots, tuple(map(id, kids)))
        if key not in interned:
            interned[key] = tuple(kids) if t.slots is None else tuple(zip(t.slots, kids))
        return interned[key]

    return _fold(roots, _children, shape)


@dataclass(frozen=True)
class EnumerationSpec:
    """Parameters of one enumeration run: branching budget k (at most k+1
    children per node), dimension d, node count n."""

    k: int
    d: int
    n: int
    mode: TreeMode = TreeMode.PLANE
    table: LawTable | None = None
    limit: int | None = None

    def __post_init__(self):
        if self.k < 1 or self.d < 1 or self.n < 1:
            raise ValueError("k, d and n must all be >= 1")
        object.__setattr__(self, "mode", TreeMode.coerce(self.mode))


# ---------------------------------------------------------------------------
# Explicit enumeration
# ---------------------------------------------------------------------------

def enumerate_colored(spec: EnumerationSpec) -> tuple[ColoredTree, ...]:
    """All admissible colored trees for the spec, root color unconstrained.

    The explicit list is capped (``spec.limit``, default 10**6): the exact
    count, from the rules that the trees are then listed by, is checked
    against the cap before any tree is built.  Use ``count_colored`` for
    sizes beyond the cap.
    """
    def colored(color, slots, tuples):  # a leaf comes with slots () and keeps None
        return [ColoredTree(color, kids, slots or None) for kids in tuples]

    return tuple(_listed(spec, colored))


def enumerate_rows(spec: EnumerationSpec) -> tuple[tuple[list, list, list], list[int]]:
    """The trees of ``enumerate_colored(spec)``, checked and capped alike,
    as one table and the ids of the listed rows, in the same order.

    The table is three columns ``(colors, slots, kids)``: row r is the tree
    of color ``colors[r]`` whose children are the rows ``kids[r]``, at
    ``slots[r]`` (None in free mode and at a leaf, as in ``ColoredTree``).
    Each distinct subtree is one row, after its children's rows.  No
    ``ColoredTree`` is built."""
    colors, slots, kids = table = [], [], []

    def row(color, slots_of_kids, tuples):  # the ids of the rows it appends
        first = len(kids)
        kids.extend(tuples)
        colors.extend([color] * (len(kids) - first))
        slots.extend([slots_of_kids or None] * (len(kids) - first))
        return range(first, len(kids))

    return table, _listed(spec, row)


def _listed(spec: EnumerationSpec, node) -> list:
    """The trees of size ``spec.n`` that ``trees._pools`` builds through
    ``node`` from the spec's rules, by root color; the arguments and the
    exact count against the cap are checked first."""
    limit = spec.limit if spec.limit is not None else DEFAULT_LIST_LIMIT
    rules, plane = _checked_rules(spec.k, spec.d, spec.n, spec.mode, spec.table)
    total = _count_series(rules, spec.n, plane)[-1]
    if total > limit:
        raise EnumerationLimitError(f"{total} colored trees exceed limit {limit}")
    pool = _pools(rules, spec.k + 1, spec.n, plane, node)
    return [t for color in INDEX_VALUES for t in pool[color][spec.n]]


def project_uncolored(trees) -> frozenset:
    """Strip colors (and kinds) from colored trees; returns the shape set."""
    trees = tuple(trees)
    shapes = _shapes(trees)
    return frozenset(shapes[id(t)] for t in trees)


def shape_coverage(spec: EnumerationSpec) -> tuple[int, int]:
    """How many shapes admit at least one admissible coloring, out of all
    shapes for the spec's budget.

    In dimension >= 4 with budgets 1 and 2 the coverage is full; for larger
    budgets (junction arities) and for lower dimensions the gap is reported
    here rather than papered over.
    """
    covered = project_uncolored(enumerate_colored(spec))
    return len(covered), count_shapes(spec.k, spec.n, spec.mode)


# ---------------------------------------------------------------------------
# Exact counts: law rules for the count engine
# ---------------------------------------------------------------------------

def _count_rules(k: int, table: LawTable, n_max: int, plane: bool) -> dict:
    """The count engine's rules: each law rule (root color, child colors M,
    c children) with c <= min(k+1, n_max-1), weighted by C(k+1, c) times the
    orderings of M in plane mode."""
    rules = {color: [] for color in INDEX_VALUES}  # (weight, ((h, m), ...))
    for color, rs in rules.items():
        for c in range(1, min(k + 1, n_max - 1) + 1):
            for mset in splits_for_child_count(table, c, color):
                parts = tuple({h: mset.count(h) for h in mset}.items())  # mset is sorted
                orderings = factorial(c) // prod(factorial(m) for _, m in parts)
                rs.append((comb(k + 1, c) * orderings if plane else 1, parts))
    return rules


def _checked_rules(k: int, d: int, n_max: int, mode, table: LawTable | None) -> tuple[dict, bool]:
    """Check the count arguments; return the count rules and whether trees are plane."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got {n_max}")
    table = table if table is not None else builtin_table(d)
    if table.dimension != d:
        raise ValueError(f"table dimension {table.dimension} != d = {d}")
    plane = TreeMode.coerce(mode) is TreeMode.PLANE
    return _count_rules(k, table, n_max, plane), plane


def count_sequence(k: int, d: int, n_max: int, mode=TreeMode.PLANE,
                   table: LawTable | None = None) -> list[int]:
    """Exact numbers of admissible colored trees on n = 1..n_max nodes, from
    the count engine on the law table's rules (``_count_rules``)."""
    rules, plane = _checked_rules(k, d, n_max, mode, table)
    return _count_series(rules, n_max, plane)


def count_colored(k: int, d: int, n: int, mode=TreeMode.PLANE,
                  table: LawTable | None = None) -> int:
    """Exact number of admissible colored trees on n nodes (0 for n < 1):
    the last entry of ``count_sequence``, in either mode, which checks the
    arguments for every n."""
    return (count_sequence(k, d, max(n, 0), mode, table) or [0])[-1]


# ---------------------------------------------------------------------------
# Ratio and share sequences
# ---------------------------------------------------------------------------

def ratio_sequence(k_low: int, k_high: int, d: int, n_max: int,
                   mode=TreeMode.PLANE, table: LawTable | None = None) -> list[Fraction | None]:
    """Exact count ratios (higher budget over lower) for n = 1..n_max.

    Entries with a zero denominator are flagged as None.
    """
    if k_low > k_high:
        raise ValueError("need k_low <= k_high")
    lows = count_sequence(k_low, d, n_max, mode, table)
    highs = count_sequence(k_high, d, n_max, mode, table)
    return [Fraction(hi, lo) if lo else None for lo, hi in zip(lows, highs)]


def share_sequence(k: int, d_low: int, d_high: int, n_max: int,
                   mode=TreeMode.PLANE) -> list[Fraction | None]:
    """Exact count ratios (lower dimension over higher) for n = 1..n_max;
    each entry lies in (0, 1] because the law tables nest with dimension."""
    if d_low > d_high:
        raise ValueError("need d_low <= d_high")
    lows = count_sequence(k, d_low, n_max, mode)
    highs = count_sequence(k, d_high, n_max, mode)
    return [Fraction(lo, hi) if hi else None for lo, hi in zip(lows, highs)]


def ratio_lower_bound(k: int, n: int) -> Fraction:
    """Lower bound on the n-th ratio entry between budgets k-1 and k:
    the (k+1)-ary shape count over 3^n times the k-ary shape count.

    Exact rational, no asymptotic approximation.
    """
    if k < 2:
        raise ValueError("bound needs k >= 2")
    return Fraction(count_kary_formula(k + 1, n), 3 ** n * count_kary_formula(k, n))


# ---------------------------------------------------------------------------
# Colored tree -> diagram bridge
# ---------------------------------------------------------------------------

def tree_to_diagram(tree: ColoredTree, dimension: int) -> Diagram:
    """Concrete diagram with one branch per tree node: each internal node
    becomes a bifurcation vertex whose parent edge is the node's own branch;
    the root's far end and all leaf ends are terminals."""
    edges: list[Edge] = []
    vertices: list[Vertex] = []
    stack = [(tree, TERMINAL)]  # (node, the vertex above its branch)
    while stack:
        node, upper_end = stack.pop()
        eid = f"e{len(edges)}"
        vid = f"v{eid}" if node.children else TERMINAL
        edges.append(Edge(eid, node.color, (upper_end, vid)))
        if node.children:
            parent = None if len(node.children) == 1 else eid
            vertices.append(Vertex(vid, node.kind, parent_edge=parent))
            stack += [(child, vid) for child in reversed(node.children)]
    return Diagram(dimension, tuple(edges), tuple(vertices))


__all__ = [
    "ColoredTree", "EnumerationSpec", "DEFAULT_LIST_LIMIT",
    "enumerate_colored", "enumerate_rows", "project_uncolored", "count_colored", "count_sequence",
    "ratio_sequence", "share_sequence", "ratio_lower_bound", "shape_coverage",
    "tree_to_diagram", "count_shapes", "count_kary_formula", "TreeMode",
    "EnumerationLimitError",
]
