"""Admissibility laws for orbit-index colorings, organized as queryable
tables keyed by child count, which implies the bifurcation kind, and parent index.

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

#: The child count of each kind that fixes it; a junction's is its parameter.
_FIXED_CHILD_COUNTS = {SADDLE_NODE: 1, PERIOD_DOUBLING: 2, TYPE_M: 3}


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
        return _FIXED_CHILD_COUNTS.get(self.name, self.param)

    @property
    def degree(self) -> int:
        """Degree of the bifurcation vertex in a diagram."""
        return 2 if self.name == SADDLE_NODE else self.child_count + 1


#: The kinds without a parameter, by child count: each is one shared value.
_SHARED_KINDS = {1: BifurcationKind(SADDLE_NODE), 2: BifurcationKind(PERIOD_DOUBLING),
                 3: BifurcationKind(TYPE_M)}


def saddle_node() -> BifurcationKind:
    return _SHARED_KINDS[1]


def period_doubling() -> BifurcationKind:
    return _SHARED_KINDS[2]


def type_m(m: int | None = None) -> BifurcationKind:
    return _SHARED_KINDS[3] if m is None else BifurcationKind(TYPE_M, m)


def junction(n: int) -> BifurcationKind:
    return BifurcationKind(JUNCTION, n)


def kind_for_child_count(c: int) -> BifurcationKind:
    """Kind implied by the number of children at a tree node."""
    if c in _SHARED_KINDS:
        return _SHARED_KINDS[c]
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
        # a 0-index orbit never splits 0 -> (0,0) in a period doubling
        if self.kind == PERIOD_DOUBLING and self.parent == 0 and self.children == (0, 0):
            raise ValueError("period doubling 0 -> (0,0) is never admissible")
        # +-1 -> (0, +-1, 0) is impossible for period multiplication in any dimension
        if (self.kind == TYPE_M and self.parent in (-1, 1)
                and self.children == tuple(sorted((0, 0, self.parent)))):
            raise ValueError(f"type_m {self.parent} -> (0,{self.parent},0) is never admissible")
        if self.kind == JUNCTION and len(set(self.children)) > 2:
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
    # ALL_ZERO, the one family left: LawTable admits no other name
    return (0,) * n if n % 3 == 0 else None


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
        for family, parent in self.junction_families:
            if family not in (DOUBLING, MULTIPLYING, ALL_ZERO):
                raise ValueError(f"unknown junction family {family!r}")
            check_index(parent)


def splits_for_child_count(table: LawTable, c: int, parent: int) -> frozenset[tuple[int, ...]]:
    """Every admissible child multiset for a node with c children and the
    given parent index; the kind follows from c.

    An empty set means the parent index cannot split this way in the
    table's dimension.
    """
    if c < 1:
        raise ValueError("child count must be >= 1")
    check_index(parent)
    found = {e.children for e in table.entries if e.parent == parent and len(e.children) == c}
    if c >= 4:
        found.update(_junction_children(family, parent, c)
                     for family, p in table.junction_families if p == parent)
        found.discard(None)
    return frozenset(found)


# ---------------------------------------------------------------------------
# Built-in tables
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def builtin_table(d: int) -> LawTable:
    """The built-in admissibility table for phase-space dimension d.

    Tables are nested in d and stabilize at d = 4: higher dimensions add no
    further rules.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
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
    return LawTable(d, frozenset(entries), frozenset(families))
