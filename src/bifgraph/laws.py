"""Admissibility laws for orbit-index colorings, organized as queryable
tables keyed by bifurcation kind and parent index.

Each rule in the dimension-specific catalogs lives in exactly one table
entry; junction rules are generated on demand from the two decomposition
schemes (chains of period doublings, chains of period multiplications)
rather than stored, which keeps tables finite.
"""

from __future__ import annotations

import json
import os
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


class SchemaError(ValueError):
    """Document violates the expected schema; ``path`` names the location."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise SchemaError(path, message)


def _json_loads(text: str):
    """``json.loads``, with text nested too deeply for the parser reported
    as a ``SchemaError`` at ``$``."""
    try:
        return json.loads(text)
    except RecursionError:
        raise SchemaError("$", "JSON nested too deeply to parse") from None


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


def kind_from_json(raw, path: str) -> BifurcationKind:
    """The kind as diagram and law-table documents write it:
    "saddle_node", "period_doubling", {"type_m": m} or {"junction": n}.

    type_m admits a null multiplier: the index laws do not depend on m, only
    the period check does (and it demands a concrete m).  Errors are
    ``SchemaError``s that name ``path``.
    """
    if raw == SADDLE_NODE:
        return saddle_node()
    if raw == PERIOD_DOUBLING:
        return period_doubling()
    if isinstance(raw, dict) and len(raw) == 1:
        (name, param), = raw.items()
        if name in (TYPE_M, JUNCTION):
            if not (_is_int(param) or (param is None and name == TYPE_M)):
                raise SchemaError(f"{path}.{name}", "parameter must be an integer"
                                  + (" or null" if name == TYPE_M else ""))
            try:
                return BifurcationKind(name, param)
            except ValueError as exc:
                raise SchemaError(f"{path}.{name}", str(exc)) from exc
    raise SchemaError(path, f"unknown kind {raw!r}")


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
        if self.kind == SADDLE_NODE:
            if len(self.children) != 1:
                raise ValueError("saddle_node entry pairs exactly one partner index")
            if self.parent + self.children[0] != 0:
                raise ValueError("saddle-node pair must sum to 0")
        else:
            expected = {PERIOD_DOUBLING: 2, TYPE_M: 3}.get(self.kind)
            if expected is not None and len(self.children) != expected:
                raise ValueError(f"{self.kind} entry needs {expected} children")
            if self.kind == JUNCTION and len(self.children) < 4:
                raise ValueError("junction entry needs at least 4 children")
            if sum(self.children) != self.parent:
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
    if n < 4:
        return None
    if family == DOUBLING:
        return tuple(sorted((parent,) + (0,) * (n - 1)))
    if family == MULTIPLYING:
        if n % 2 == 1 and n >= 5:
            k = (n - 1) // 2
            return tuple(sorted((parent,) * (k + 1) + (-parent,) * k))
        return None
    if family == ALL_ZERO:
        if n % 3 == 0 and n >= 6:
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


# ---------------------------------------------------------------------------
# User-supplied tables
# ---------------------------------------------------------------------------

def load_law_table(source) -> LawTable:
    """Load a law table from a JSON document (text, dict, or file path).

    Format::

        {"schemaVersion": "1", "dimension": D, "mode": "extend"|"replace",
         "entries": [{"kind": ..., "parent": i, "children": [...],
                      "multipliers": [...]}, ...]}

    ``extend`` (the default) adds the listed entries to the built-in table
    for the dimension; ``replace`` keeps only the listed entries plus no
    generated junction families.  Conservation and the always-forbidden
    transitions are enforced either way.  Text that is not JSON is read as
    a file path.  Schema problems raise ``SchemaError`` naming the JSON path.
    """
    if isinstance(source, dict):
        doc = source
    else:
        text = str(source)
        try:
            doc = _json_loads(text)
        except json.JSONDecodeError as exc:
            _expect(os.path.isfile(text), "$", f"neither JSON nor a file path: {exc}")
            with open(text, "r", encoding="utf-8") as fh:
                doc = _json_loads(fh.read())
    _expect(isinstance(doc, dict), "$", "document must be an object")
    d = doc.get("dimension")
    _expect(_is_int(d) and d >= 1, "$.dimension", "must be an integer >= 1")
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
        multipliers = item.get("multipliers", [])
        _expect(_is_element_list(multipliers), f"{path}.multipliers",
                "must be a list of integers or strings")
        try:
            extra.append(LawEntry(kind.name, item["parent"], tuple(children),
                                  tuple(multipliers)))
        except ValueError as exc:
            raise SchemaError(path, str(exc)) from exc
    if mode == "replace":
        return LawTable(d, frozenset(extra), frozenset())
    base = builtin_table(d)
    return LawTable(d, base.entries | frozenset(extra), base.junction_families)
