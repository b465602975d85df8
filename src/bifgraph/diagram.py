"""Bifurcation diagrams as index-colored multigraphs, and the validators
every other module relies on.

A diagram's edges are orbit branches carrying an orbit index in {-1, 0, +1}
(and optionally a minimal period); its vertices are bifurcation events.
Branch ends that simply run out of the parameter window are marked with the
``TERMINAL`` sentinel and carry no constraints.

All types are immutable after construction and the validators are pure
functions, so everything here is safe to share across threads.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from .laws import (
    SADDLE_NODE, PERIOD_DOUBLING, TYPE_M, JUNCTION,
    INDEX_VALUES, BifurcationKind, LawTable, check_index, splits_for_child_count,
)


class _Terminal:
    def __repr__(self):
        return "TERMINAL"

    def __reduce__(self):
        return "TERMINAL"  # pickle and copy resolve the one instance by name


#: Marker for a branch end that reaches the boundary of the parameter window.
TERMINAL = _Terminal()


class DiagramError(ValueError):
    """Structural problem in a diagram (dangling reference, bad arity, ...).

    ``where`` is the JSON path suffix of the offending value in the
    diagram's document form, such as ``.edges[2].endpoints[1]`` or
    ``.vertices[0].parentEdge``; empty when no diagram locates it.
    """

    def __init__(self, message: str, where: str = ""):
        super().__init__(message)
        self.where = where


# ---------------------------------------------------------------------------
# Orbit index from eigenvalue data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenvalueSpec:
    """Eigenvalues of the return-map differential at a periodic orbit.

    ``reals`` lists the real eigenvalues; ``complex_pairs`` lists
    (modulus, argument) for each conjugate pair.  No entry may have modulus
    exactly 1 (that would be a bifurcation point, where the index is
    undefined).
    """

    reals: tuple[float, ...] = ()
    complex_pairs: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "reals", tuple(float(r) for r in self.reals))
        object.__setattr__(self, "complex_pairs",
                           tuple((float(m), float(a)) for m, a in self.complex_pairs))
        for r in self.reals:
            if abs(r) == 1.0:
                raise ValueError(f"real eigenvalue {r} has modulus 1: index undefined")
        for m, _ in self.complex_pairs:
            if m <= 0:
                raise ValueError("complex pair modulus must be positive")
            if m == 1.0:
                raise ValueError("complex pair on the unit circle: index undefined")


class IndexResult(NamedTuple):
    sigma_plus: int
    sigma_minus: int
    index: int


def index_from_eigenvalues(spec: EigenvalueSpec) -> IndexResult:
    """Count eigenvalues above 1 and below -1 and derive the orbit index.

    Complex pairs contribute to neither count.  The index is 0 when the
    below -1 count is odd, otherwise (-1) ** (above 1 count).
    """
    sigma_plus = sum(1 for r in spec.reals if r > 1)
    sigma_minus = sum(1 for r in spec.reals if r < -1)
    index = 0 if sigma_minus % 2 else (-1) ** sigma_plus
    return IndexResult(sigma_plus, sigma_minus, index)


# ---------------------------------------------------------------------------
# Diagram structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True, init=False)
class Edge:
    """An orbit branch: orbit index color, optional minimal period, and the
    two ends (vertex ids or TERMINAL)."""

    id: str
    index: int
    ends: tuple
    period: int | None = None

    def __init__(self, id: str, index: int, ends: tuple, period: int | None = None):
        check_index(index)
        if len(ends) != 2:
            raise DiagramError(f"edge {id!r} needs exactly two ends")
        if period is not None and period < 1:
            raise DiagramError(f"edge {id!r} period must be a positive integer")
        _set_edge_id(self, id)
        _set_edge_index(self, index)
        _set_edge_ends(self, ends)
        _set_edge_period(self, period)


@dataclass(frozen=True, slots=True, init=False)
class Vertex:
    """A bifurcation event.  Saddle nodes are symmetric (no parent); every
    other kind designates one incident edge as the bifurcating branch."""

    id: str
    kind: BifurcationKind
    parent_edge: str | None = None

    def __init__(self, id: str, kind: BifurcationKind, parent_edge: str | None = None):
        _set_vertex_id(self, id)
        _set_vertex_kind(self, kind)
        _set_vertex_parent_edge(self, parent_edge)


# The constructors write each frozen field through its slot's member
# descriptor, where a generated frozen __init__ calls object.__setattr__.
_set_edge_id, _set_edge_index, _set_edge_ends, _set_edge_period = (
    Edge.__dict__[name].__set__ for name in ("id", "index", "ends", "period"))
_set_vertex_id, _set_vertex_kind, _set_vertex_parent_edge = (
    Vertex.__dict__[name].__set__ for name in ("id", "kind", "parent_edge"))


@dataclass(frozen=True)
class Diagram:
    """Orbit branches and bifurcation events, indexed once at construction
    (each vertex's incident edges, parent edge and child edges) so that
    every lookup below is a dictionary access.

    Construction checks that every edge end names a vertex (or TERMINAL)
    and that each vertex has exactly its kind's degree, with a parent edge
    among its incident edges for parented kinds.  A saddle node therefore
    has degree exactly 2, so a cycle made only of saddle nodes is a whole
    connected component; ``check_cycle_parity`` relies on this.
    """

    dimension: int
    edges: tuple[Edge, ...]
    vertices: tuple[Vertex, ...]

    def __post_init__(self):
        if self.dimension < 1:
            raise DiagramError("dimension must be >= 1", ".dimension")
        vertex_by_id = {v.id: v for v in self.vertices}
        incident: dict[str, list[Edge]] = {v: [] for v in vertex_by_id}
        edge_by_id: dict[str, Edge] = {}
        dangling = None  # the first (edge, end) naming no vertex, raised after the id checks
        for e in self.edges:
            edge_by_id[e.id] = e
            for end in e.ends:
                if end is not TERMINAL:
                    try:
                        incident[end].append(e)
                    except KeyError:
                        dangling = dangling or (e, end)
        if len(edge_by_id) != len(self.edges):
            raise DiagramError("edge ids must be unique", ".edges")
        if len(vertex_by_id) != len(self.vertices):
            raise DiagramError("vertex ids must be unique", ".vertices")
        if dangling:  # ids are unique, so index() finds the edge and the end's first slot
            e, end = dangling
            raise DiagramError(f"edge {e.id!r} references missing vertex {end!r}",
                               f".edges[{self.edges.index(e)}].endpoints[{e.ends.index(end)}]")
        parted: dict[str, tuple[Edge | None, list[Edge]]] = {}
        for i, v in enumerate(self.vertices):
            inc, kind = incident[v.id], v.kind
            degree = kind.degree
            if len(inc) != degree:
                raise DiagramError(
                    f"vertex {v.id!r} has no incident edge" if not inc else
                    f"vertex {v.id!r} ({kind.name}) needs degree {degree}, has {len(inc)}",
                    f".vertices[{i}]")
            if kind.name == SADDLE_NODE:
                if v.parent_edge is not None:
                    raise DiagramError(f"saddle-node vertex {v.id!r} takes no parent edge",
                                       f".vertices[{i}].parentEdge")
                parted[v.id] = None, inc
                continue
            if v.parent_edge is None:
                raise DiagramError(f"vertex {v.id!r} ({kind.name}) needs a parent edge",
                                   f".vertices[{i}].parentEdge")
            kids = inc.copy()  # minus the parent's first occurrence: a loop keeps one
            try:
                parted[v.id] = kids.pop(kids.index(edge_by_id.get(v.parent_edge))), kids
            except ValueError:
                raise DiagramError(
                    f"parent edge {v.parent_edge!r} is not incident to vertex {v.id!r}",
                    f".vertices[{i}].parentEdge") from None
        object.__setattr__(self, "_edge_by_id", edge_by_id)
        object.__setattr__(self, "_vertex_by_id", vertex_by_id)
        object.__setattr__(self, "_incident", incident)
        object.__setattr__(self, "_parted", parted)

    # -- lookups ----------------------------------------------------------

    def edge(self, edge_id: str) -> Edge:
        return self._edge_by_id[edge_id]

    def vertex(self, vertex_id: str) -> Vertex:
        return self._vertex_by_id[vertex_id]

    def incident_edges(self, vertex_id: str) -> list[Edge]:
        """Incident edges with multiplicity (a loop appears twice), in edge
        order; empty for an id that names no vertex."""
        return list(self._incident.get(vertex_id, ()))

    def child_edges(self, vertex: Vertex) -> list[Edge]:
        """Incident edges minus one occurrence of the parent edge."""
        return list(self._parted[vertex.id][1])

    def degree(self, vertex_id: str) -> int:
        return len(self._incident.get(vertex_id, ()))


# ---------------------------------------------------------------------------
# Conservation
# ---------------------------------------------------------------------------

class ConservationCheck(NamedTuple):
    ok: bool
    parent_sum: int
    child_sum: int


def check_index_conservation(diagram: Diagram, vertex_id: str) -> ConservationCheck:
    """Index bookkeeping across one bifurcation vertex.

    For a saddle node the two incident indices must sum to 0 (both orbit
    branches sit on one side of the event, nothing on the other).  For every
    parented kind the parent index must equal the sum of the child indices.
    """
    parent, kids = diagram._parted[vertex_id]
    return _conservation(parent, [e.index for e in kids])


def _conservation(parent: Edge | None, kids: list[int]) -> ConservationCheck:
    """Conservation from the parent edge and the child indices: a saddle
    node's indices sum to 0, any other vertex's children sum to its parent."""
    total = sum(kids)
    if parent is None:
        return ConservationCheck(total == 0, total, 0)
    return ConservationCheck(parent.index == total, parent.index, total)


# ---------------------------------------------------------------------------
# Cycle parity
# ---------------------------------------------------------------------------

class CycleCheck(NamedTuple):
    edge_ids: tuple[str, ...]
    vertex_ids: tuple[str, ...]
    ok: bool
    reason: str


def _saddle_node_cycles(diagram: Diagram):
    """Cycles made only of saddle-node vertices, as (edge ids, vertex ids).

    A saddle node has degree exactly 2, so such a cycle is a whole
    connected component and one walk from its least vertex finds it.
    Order: loops in edge order, then parallel pairs and then longer
    cycles, each by least vertex id; a longer cycle is read from its least
    vertex toward the smaller of that vertex's two neighbours.
    """
    saddle = {v.id for v in diagram.vertices if v.kind.name == SADDLE_NODE}
    loops = [((e.id,), (e.ends[0],)) for e in diagram.edges
             if e.ends[0] == e.ends[1] and e.ends[0] in saddle]
    pairs, rings = [], []
    seen = set()
    for start in sorted(saddle):
        if start in seen:
            continue
        seen.add(start)
        # Walk one way round; a walk that leaves the saddle nodes is
        # repeated the other way round only to mark the whole component.
        for edge in diagram._incident[start]:
            u, eids, vids = start, [], [start]
            while True:
                eids.append(edge.id)
                a, b = edge.ends
                u = b if a == u else a
                if u == start or u not in saddle:
                    break
                seen.add(u)
                vids.append(u)
                first, second = diagram._incident[u]
                edge = second if first.id == edge.id else first
            if u != start:
                continue
            if len(eids) == 2:
                pairs.append((tuple(sorted(eids)), tuple(vids)))
            elif len(eids) > 2:
                if vids[1] > vids[-1]:
                    eids, vids = eids[::-1], [start] + vids[:0:-1]
                rings.append((tuple(eids), tuple(vids)))
            break
    return loops + pairs + rings


def check_cycle_parity(diagram: Diagram) -> list[CycleCheck]:
    """Parity law for cycles made entirely of saddle-node vertices.

    Only those cycles are constrained, and because a saddle node has degree
    exactly 2 each one is a whole connected component: one linear walk
    finds them all.  In dimension <= 2 such a cycle must carry indices +-1
    that alternate around it, which forces even length; in dimension >= 3
    an odd cycle passes only when every edge has index 0 (even cycles are
    unconstrained here -- the per-vertex laws still apply separately).
    """
    results = []
    for eids, vids in _saddle_node_cycles(diagram):
        colors = [diagram.edge(eid).index for eid in eids]
        if diagram.dimension <= 2:
            ok = all(a == -b != 0 for a, b in zip(colors, colors[1:] + colors[:1]))
            reason = ("even alternating" if ok
                      else "saddle-node cycle must alternate +1/-1 with even length")
        elif len(colors) % 2:
            ok = not any(colors)
            reason = "odd all-zero" if ok else "odd saddle-node cycle must be all index 0"
        else:
            ok, reason = True, "even"
        results.append(CycleCheck(eids, vids, ok, reason))
    return results


# ---------------------------------------------------------------------------
# Period consistency
# ---------------------------------------------------------------------------

class PeriodViolation(NamedTuple):
    vertex_id: str
    edge_pair: tuple[str, str]
    message: str


class PeriodReport(NamedTuple):
    applicable: bool
    ok: bool
    violations: tuple[PeriodViolation, ...]


def junction_periods_consistent(parent_period: int, child_periods) -> bool:
    """True when the child periods are the leaves of a chain of period
    doublings (q -> {q, 2q}) or of m-fold multiplications
    (q -> {q, mq, mq}, any m >= 3 per event) rooted at the parent period p.

    Every event keeps one leaf at its own root period, so both chains leave
    exactly one child at p.  Beyond that:

    - doubling: every other period is p * 2**i with the exponents used
      running 1..j without a gap (a leaf at 2q needs a leaf at q);
    - multiplying: every other period is a multiple of p that is at least
      3p and occurs an even number of times (events add leaves in equal
      pairs, and each pair can hang directly off p).
    """
    p = parent_period
    others = Counter(child_periods)
    if others.pop(p, 0) != 1 or any(v % p for v in others):
        return False
    ratios = {v // p for v in others}
    doubling = ratios == {2 ** i for i in range(1, len(ratios) + 1)}
    multiplying = all(v >= 3 * p and n % 2 == 0 for v, n in others.items())
    return doubling or multiplying


def check_period_consistency(diagram: Diagram) -> PeriodReport:
    """Minimal-period bookkeeping per vertex.

    Saddle nodes preserve the period across the pair; a period doubling has
    one child at the parent period and one at exactly double; an m-fold
    multiplication keeps one child and multiplies two by m (a type_m vertex
    without a multiplier is a violation).  A junction from period p keeps
    exactly one child at p, and its other children are either p * 2**i with
    no exponent skipped (a doubling chain) or multiples of p that are at
    least 3p, each value an even number of times (a multiplication chain);
    see ``junction_periods_consistent``.  Applies only when every edge
    carries a period; partial labelings are rejected as ambiguous.
    """
    labels = [e.period for e in diagram.edges]
    if all(p is None for p in labels):
        return PeriodReport(False, True, ())
    if any(p is None for p in labels):
        raise ValueError("partial period labeling is ambiguous: label all edges or none")

    violations = []
    for v in diagram.vertices:
        parent, kids = diagram._parted[v.id]
        if parent is None:  # a saddle node: its first edge stands as the parent
            parent, kids = kids[0], kids[1:]
        p, got = parent.period, sorted(e.period for e in kids)
        name, m = v.kind.name, v.kind.param
        if name == SADDLE_NODE:
            problem = None if got == [p] else f"saddle node joins periods {p} and {got[0]}"
        elif name == PERIOD_DOUBLING:
            problem = (None if got == [p, 2 * p] else
                       f"doubling from period {p} must yield {{{p}, {2 * p}}}, got {got}")
        elif name == TYPE_M and m is None:
            problem = f"vertex {v.id!r}: type_m multiplier required to check periods"
        elif name == TYPE_M:
            problem = (None if got == [p, m * p, m * p] else
                       f"m-fold split from period {p} must yield {{{p}, {m}p x2}}, got {got}")
        else:  # junction
            problem = (None if junction_periods_consistent(p, got) else
                       f"junction periods {got} admit no decomposition from period {p}")
        if problem is not None:
            violations.append(PeriodViolation(v.id, (parent.id, kids[0].id), problem))
    return PeriodReport(True, not violations, tuple(violations))


# ---------------------------------------------------------------------------
# Full validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    vertex_id: str | None = None
    edge_ids: tuple[str, ...] = ()


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_diagram(diagram: Diagram, k: int, table: LawTable) -> ValidationReport:
    """Full admissibility check against a law table and branching budget k.

    Returns every violation found; an empty report means the diagram is
    admissible.  Violations come in this order:

    - per vertex, in document order: ``degree_bound`` (degree above k + 2),
      ``conservation`` (index conservation), ``law`` (the law lookup) and
      ``junction_two_index`` (the junction two-index rule);
    - then ``cycle_parity``, one per failing saddle-node cycle;
    - then ``period`` per period violation when every edge carries a
      period, or one ``period_partial`` when only some do.

    Each vertex's incident edges are read once.  Each law is looked up once
    per call: the saddle-node pairs, sorted and so in either edge order, and
    the child multisets per (child count, parent index).
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if table.dimension != diagram.dimension:
        raise ValueError(
            f"table dimension {table.dimension} != diagram dimension {diagram.dimension}")
    out: list[Violation] = []
    saddle_pairs = {tuple(sorted((p, c))) for p in INDEX_VALUES
                    for (c,) in splits_for_child_count(table, 1, p)}
    allowed: dict = {}  # (child count, parent index) -> admissible child multisets

    for v in diagram.vertices:
        incident = diagram._incident[v.id]
        if len(incident) > k + 2:
            out.append(Violation("degree_bound",
                                 f"vertex {v.id!r} has degree {len(incident)} > k+2 = {k + 2}",
                                 vertex_id=v.id))
        parent, kid_edges = diagram._parted[v.id]
        kids = [e.index for e in kid_edges]
        if sum(kids) != (0 if parent is None else parent.index):
            cons = _conservation(parent, kids)
            out.append(Violation("conservation",
                                 f"vertex {v.id!r}: parent side {cons.parent_sum} != "
                                 f"child side {cons.child_sum}", vertex_id=v.id))
        kids.sort()
        star = tuple(kids)
        if parent is None:
            if star not in saddle_pairs:
                out.append(Violation("law",
                                     f"saddle-node pair {star} not admissible in "
                                     f"dimension {table.dimension}", vertex_id=v.id))
            continue
        key = (len(kids), parent.index)
        if key not in allowed:
            allowed[key] = splits_for_child_count(table, *key)
        if star not in allowed[key]:
            out.append(Violation("law",
                                 f"vertex {v.id!r}: {parent.index} -> {star} not "
                                 f"admissible for {v.kind.name} in dimension {table.dimension}",
                                 vertex_id=v.id))
        if v.kind.name == JUNCTION and len(set(kids)) > 2:
            out.append(Violation("junction_two_index",
                                 f"junction {v.id!r} uses more than two child indices",
                                 vertex_id=v.id))

    for cyc in check_cycle_parity(diagram):
        if not cyc.ok:
            out.append(Violation("cycle_parity", cyc.reason, edge_ids=cyc.edge_ids))

    try:
        period = check_period_consistency(diagram)
    except ValueError as exc:
        out.append(Violation("period_partial", str(exc)))
    else:
        for pv in period.violations:
            out.append(Violation("period", pv.message,
                                 vertex_id=pv.vertex_id, edge_ids=pv.edge_pair))

    return ValidationReport(tuple(out))
