"""Admissibility laws for orbit-index colorings, organized as queryable
tables keyed by bifurcation kind and parent index.

Each rule in the dimension-specific catalogs lives in exactly one table
entry; junction rules are generated on demand from the two decomposition
schemes (chains of period doublings, chains of period multiplications)
rather than stored, which keeps tables finite.  Law-table documents are
read, like every other document, by ``documents.load_law_table``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

INDEX_VALUES = (-1, 0, 1)

#: Fixed rendering convention for orbit indices.
COLOR_OF = {-1: "red", 0: "green", 1: "blue"}

SADDLE_NODE = "saddle_node"
PERIOD_DOUBLING = "period_doubling"
TYPE_M = "type_m"
JUNCTION = "junction"


def check_index(value: int) -> int:
    if value not in INDEX_VALUES:
        raise ValueError(f"orbit index must be -1, 0 or +1, got {value!r}")
    return value


@dataclass(frozen=True)
class BifurcationKind:
    """Tagged bifurcation kind: saddle_node, period_doubling, type_m(m>=3)
    or junction(n>=4).

    ``type_m`` may carry ``param=None`` when the multiplier is not
    distinguished (the admissible index splittings do not depend on m).
    """

    name: str
    param: int | None = None

    def __post_init__(self):
        if self.name in (SADDLE_NODE, PERIOD_DOUBLING):
            if self.param is not None:
                raise ValueError(f"{self.name} takes no parameter")
        elif self.name == TYPE_M:
            if self.param is not None and self.param < 3:
                raise ValueError("type_m requires m >= 3")
        elif self.name == JUNCTION:
            if self.param is None or self.param < 4:
                raise ValueError("junction requires n >= 4")
        else:
            raise ValueError(f"unknown bifurcation kind {self.name!r}")

    @property
    def child_count(self) -> int:
        """Number of branches split off (the saddle-node pairing counts 1)."""
        return {SADDLE_NODE: 1, PERIOD_DOUBLING: 2, TYPE_M: 3}.get(self.name, self.param)

    @property
    def degree(self) -> int:
        """Degree of the bifurcation vertex in a diagram."""
        return 2 if self.name == SADDLE_NODE else self.child_count + 1


def saddle_node() -> BifurcationKind:
    return BifurcationKind(SADDLE_NODE)


def period_doubling() -> BifurcationKind:
    return BifurcationKind(PERIOD_DOUBLING)


def type_m(m: int | None = None) -> BifurcationKind:
    return BifurcationKind(TYPE_M, m)


def junction(n: int) -> BifurcationKind:
    return BifurcationKind(JUNCTION, n)


def kind_for_child_count(c: int) -> BifurcationKind:
    """Kind implied by the number of children at a tree node."""
    if c == 1:
        return saddle_node()
    if c == 2:
        return period_doubling()
    if c == 3:
        return type_m()
    if c >= 4:
        return junction(c)
    raise ValueError("child count must be >= 1")


@dataclass(frozen=True)
class LawEntry:
    """One admissible transition: the parent index may split into the given
    child-index multiset.

    ``multipliers`` is the multiset of per-child minimal-period factors
    (ints, or the symbol "m" for type_m); it is informational and not
    positionally bound to ``children``.  Junction entries carry no
    multipliers since their period patterns depend on the decomposition.
    """

    kind: str
    parent: int
    children: tuple[int, ...]
    multipliers: tuple = ()

    def __post_init__(self):
        check_index(self.parent)
        for c in self.children:
            check_index(c)
        object.__setattr__(self, "children", tuple(sorted(self.children)))
        object.__setattr__(self, "multipliers", tuple(self.multipliers))
        arity = len(self.children)
        if arity < 1 or self.kind != kind_for_child_count(arity).name:
            raise ValueError(f"a {self.kind!r} law entry cannot have {arity} children")
        if self.kind == SADDLE_NODE:
            if self.parent + self.children[0] != 0:
                raise ValueError("saddle-node pair must sum to 0")
        elif sum(self.children) != self.parent:
            raise ValueError(
                f"children {self.children} do not conserve parent index {self.parent}")
        _check_forbidden(self.kind, self.parent, self.children)


def _check_forbidden(kind: str, parent: int, children: tuple[int, ...]) -> None:
    # a 0-index orbit never splits 0 -> (0,0) in a period doubling
    if kind == PERIOD_DOUBLING and parent == 0 and children == (0, 0):
        raise ValueError("period doubling 0 -> (0,0) is never admissible")
    # +-1 -> (0, +-1, 0) is impossible for period multiplication in any dimension
    if kind == TYPE_M and parent in (-1, 1) and sorted(children) == sorted((0, parent, 0)):
        raise ValueError(f"type_m {parent} -> (0,{parent},0) is never admissible")
    if kind == JUNCTION and len(set(children)) > 2:
        raise ValueError("junction children may use at most two distinct indices")


# Junction decomposition families.  Each family generates, for a given child
# count n, the index multiset produced by a chain of elementary events:
#   doubling(i):     n-1 zeros and one i                       (any n >= 4)
#   multiplying(i):  k+1 children of index i and k of -i, from k >= 2
#                    chained three-way events, so n = 2k+1      (odd n >= 5)
#   all_zero:        n zeros, n a positive multiple of 3        (n >= 6)
DOUBLING = "doubling"
MULTIPLYING = "multiplying"
ALL_ZERO = "all_zero"


def _junction_children(family: str, parent: int, n: int) -> tuple[int, ...] | None:
    """The children that ``family`` gives a junction of n >= 4, or None."""
    if family == DOUBLING:
        return tuple(sorted((parent,) + (0,) * (n - 1)))
    if family == MULTIPLYING:
        if n % 2 == 1:
            k = (n - 1) // 2
            return tuple(sorted((parent,) * (k + 1) + (-parent,) * k))
        return None
    if family == ALL_ZERO:
        if n % 3 == 0:
            return (0,) * n
        return None
    raise ValueError(f"unknown junction family {family!r}")


@dataclass(frozen=True)
class LawTable:
    """Dimension-indexed admissibility table.

    ``entries`` holds saddle-node pairings, period-doubling and type_m
    transitions (and any explicitly listed junction transitions);
    ``junction_families`` enables the generated junction rules.  Immutable
    and safe to share across threads.
    """

    dimension: int
    entries: frozenset[LawEntry]
    junction_families: frozenset[tuple[str, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")

    def saddle_node_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(tuple(sorted((e.parent, e.children[0])))
                         for e in self.entries if e.kind == SADDLE_NODE)


def allowed_splits(table: LawTable, kind: BifurcationKind, parent: int) -> frozenset[LawEntry]:
    """Every admissible child multiset for the given kind and parent index.

    An empty set means the parent index cannot undergo this bifurcation in
    the table's dimension.
    """
    check_index(parent)
    if kind.name == JUNCTION:
        n = kind.param
        found = {e for e in table.entries
                 if e.kind == JUNCTION and e.parent == parent and len(e.children) == n}
        for family, p in table.junction_families:
            if p != parent:
                continue
            children = _junction_children(family, p, n)
            if children is not None:
                found.add(LawEntry(JUNCTION, parent, children))
        return frozenset(found)
    wanted = kind.name
    return frozenset(e for e in table.entries if e.kind == wanted and e.parent == parent)


def allowed_child_multisets(table: LawTable, kind: BifurcationKind, parent: int) -> frozenset[tuple[int, ...]]:
    return frozenset(e.children for e in allowed_splits(table, kind, parent))


def is_admissible_star(table: LawTable, kind: BifurcationKind, parent: int, children) -> bool:
    """Membership wrapper: may ``parent`` split into exactly this child multiset?"""
    kids = tuple(sorted(children))
    if len(kids) != kind.child_count:
        raise ValueError(
            f"{kind.name} expects {kind.child_count} children, got {len(kids)}")
    return kids in allowed_child_multisets(table, kind, parent)


def splits_for_child_count(table: LawTable, c: int, parent: int) -> frozenset[tuple[int, ...]]:
    """Admissible child multisets for a tree node with c children (kind
    implied by arity)."""
    return allowed_child_multisets(table, kind_for_child_count(c), parent)


# ---------------------------------------------------------------------------
# Built-in tables
# ---------------------------------------------------------------------------

def _builtin_parts(d: int):
    entries: list[LawEntry] = [LawEntry(SADDLE_NODE, 1, (-1,), (1,)),
                               LawEntry(SADDLE_NODE, -1, (1,), (1,)),
                               LawEntry(PERIOD_DOUBLING, 1, (0, 1), (1, 2))]
    families: list[tuple[str, int]] = [(DOUBLING, 1)]
    if d >= 2:
        entries.append(LawEntry(TYPE_M, 1, (1, -1, 1), (1, "m", "m")))
        families.append((MULTIPLYING, 1))
    if d >= 3:
        entries += [LawEntry(SADDLE_NODE, 0, (0,), (1,)),
                    LawEntry(PERIOD_DOUBLING, 0, (-1, 1), (1, 2)),
                    LawEntry(PERIOD_DOUBLING, -1, (-1, 0), (1, 2)),
                    LawEntry(TYPE_M, -1, (-1, 1, -1), (1, "m", "m"))]
        families += [(DOUBLING, -1), (MULTIPLYING, -1)]
    if d >= 4:
        entries += [LawEntry(TYPE_M, 0, (0, 0, 0), (1, "m", "m")),
                    LawEntry(TYPE_M, 0, (0, -1, 1), (1, "m", "m"))]
        families.append((ALL_ZERO, 0))
    return frozenset(entries), frozenset(families)


@lru_cache(maxsize=None)
def builtin_table(d: int) -> LawTable:
    """The built-in admissibility table for phase-space dimension d.

    Tables are nested in d and stabilize at d = 4: higher dimensions add no
    further rules.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    entries, families = _builtin_parts(min(d, 4))
    return LawTable(d, entries, families)
