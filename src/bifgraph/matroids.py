"""Matroids as independence oracles: graphic matroids, the Vamos matroid,
minors, and a Vamos-minor detector.

Oracles rather than matrices are the representation of choice here because
the Vamos matroid admits no matrix representation over any field -- that is
the very obstruction the minor detector reports.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations

from .spanning import _is_forest


class Matroid:
    """Ground set plus a memoized independence oracle."""

    def __init__(self, ground, indep, name: str = "matroid"):
        self.ground = tuple(ground)
        self._ground_set = frozenset(self.ground)
        if len(self._ground_set) != len(self.ground):
            raise ValueError("ground set elements must be distinct")
        self._indep = indep
        self._memo: dict[frozenset, bool] = {frozenset(): True}
        self.name = name

    def is_independent(self, subset) -> bool:
        key = frozenset(subset)
        if not key <= self._ground_set:
            raise ValueError("subset is not contained in the ground set")
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = bool(self._indep(key))
        return got

    def rank_of(self, subset=None) -> int:
        """Greedy rank of ``subset`` (defaults to the whole ground set)."""
        if subset is None:
            pool = self.ground
        else:
            keep = set(subset)
            pool = [e for e in self.ground if e in keep]
        got = frozenset()
        for e in pool:
            if self.is_independent(got | {e}):
                got |= {e}
        return len(got)

    @property
    def rank(self) -> int:
        return self.rank_of()

    def circuits(self) -> list[frozenset]:
        """Minimal dependent sets, by exhaustive scan (desk scale)."""
        out = []
        for r in range(1, len(self.ground) + 1):
            for sub in combinations(self.ground, r):
                s = frozenset(sub)
                if self.is_independent(s):
                    continue
                if all(self.is_independent(s - {x}) for x in s):
                    out.append(s)
        return out

    def __repr__(self):
        return f"Matroid({self.name}, |E|={len(self.ground)})"


def graphic_matroid(g) -> Matroid:
    """Edges of a graph, independent exactly when they form a forest."""
    return Matroid(tuple(g.sorted_edges()), partial(_is_forest, g.n), name="graphic")


def from_bases(ground, bases) -> Matroid:
    """Tabulated matroid: independent sets are the subsets of the listed
    bases."""
    ground = tuple(ground)
    basis_sets = [frozenset(b) for b in bases]
    if not basis_sets:
        raise ValueError("need at least one basis")
    stray = frozenset().union(*basis_sets) - set(ground)
    if stray:
        raise ValueError(f"basis elements not in the ground set: {', '.join(sorted(map(repr, stray)))}")
    sizes = {len(b) for b in basis_sets}
    if len(sizes) != 1:
        raise ValueError("bases must share one size")
    # Exchange axiom: for bases B1, B2 and x in B1 - B2, some y in B2 - B1
    # makes B1 - x + y a basis.  fills[B - x] holds every y that completes
    # B - x to a basis (x among them), so B2 must meet fills[B1 - x].
    fills: dict[frozenset, set] = {}
    drops = []
    for b in basis_sets:
        row = []
        for x in b:
            fill = fills.setdefault(b - {x}, set())
            fill.add(x)
            row.append(fill)
        drops.append(row)
    for i, row in enumerate(drops):
        for j, b2 in enumerate(basis_sets):
            if any(fill.isdisjoint(b2) for fill in row):
                raise ValueError(f"bases[{i}] and bases[{j}] break the basis exchange axiom")

    def indep(subset: frozenset) -> bool:
        return any(subset <= b for b in basis_sets)

    return Matroid(ground, indep, name="tabulated")


VAMOS_GROUND = ("a1", "a2", "b1", "b2", "c1", "c2", "d1", "d2")

#: The five dependent four-element sets: pair unions along the diamond's
#: edges ab, ac, bc, ad, bd.  The pair union cd stays independent.
VAMOS_CIRCUIT_QUADS = tuple(frozenset(q) for q in (
    ("a1", "a2", "b1", "b2"),
    ("a1", "a2", "c1", "c2"),
    ("b1", "b2", "c1", "c2"),
    ("a1", "a2", "d1", "d2"),
    ("b1", "b2", "d1", "d2"),
))


def vamos() -> Matroid:
    """The rank-4 matroid on eight elements (two per diamond vertex) whose
    dependent quadruples are exactly the five diamond-edge pair unions.
    Representable over no field."""

    def indep(subset: frozenset) -> bool:
        if len(subset) > 4:
            return False
        if len(subset) == 4:
            return subset not in VAMOS_CIRCUIT_QUADS
        return True

    return Matroid(VAMOS_GROUND, indep, name="vamos")


def matroid_minor(m: Matroid, delete=(), contract=()) -> Matroid:
    """Minor after deleting ``delete`` and contracting the independent set
    ``contract``: S is independent exactly when S together with the
    contracted set is independent upstream."""
    dset, cset = frozenset(delete), frozenset(contract)
    if dset & cset:
        raise ValueError("delete and contract sets must be disjoint")
    if not m.is_independent(cset):
        raise ValueError("contract set must be independent")
    ground = tuple(e for e in m.ground if e not in dset and e not in cset)

    def indep(subset: frozenset) -> bool:
        return m.is_independent(subset | cset)

    return Matroid(ground, indep, name=f"{m.name}-minor")


def _vamos_candidates(m: Matroid):
    """The eight-element subsets of m's ground set on which m restricts to
    the Vamos matroid.

    Each triple, and each quadruple without a dependent triple, is queried
    once; the dependent ones are kept as bitmasks over the ground set.  A
    Vamos restriction has rank 4, no dependent triple and exactly five
    dependent quadruples, two of them disjoint with the eight elements as
    their union (the pair unions along ac and bd).  The four diamond
    vertices are the two-element intersections of the five quadruples, and
    each quadruple must be the union of two of them; five distinct edges on
    four vertices always form a diamond.
    """
    bit = {e: 1 << i for i, e in enumerate(m.ground)}
    triples = {sum(map(bit.get, t)) for t in combinations(m.ground, 3)
               if not m.is_independent(t)}
    quads = []
    for q in combinations(m.ground, 4):
        mask = sum(map(bit.get, q))
        if all(mask ^ bit[e] not in triples for e in q) and not m.is_independent(q):
            quads.append(mask)
    for eight in sorted({a | b for a, b in combinations(quads, 2) if not a & b}):
        if any(t & eight == t for t in triples):
            continue
        inside = [q for q in quads if q & eight == q]
        if len(inside) != 5:
            continue
        pairs = {a & b for a, b in combinations(inside, 2) if (a & b).bit_count() == 2}
        elements = tuple(e for e in m.ground if bit[e] & eight)
        # four two-element masks sum to the eight bits only when disjoint
        if (len(pairs) == 4 and sum(pairs) == eight
                and all(sum(p & q == p for p in pairs) == 2 for q in inside)
                and m.rank_of(elements) == 4):
            yield elements


def has_vamos_minor(m: Matroid) -> bool:
    """True when some minor of m is isomorphic to the Vamos matroid.

    Contracts each independent set small enough to leave rank 4 on eight
    elements.  The Vamos matroid is sparse paving, so its dependent sets of
    at most four elements decide it (Oxley, *Matroid Theory*, 2011): each
    minor's dependent triples and quadruples are listed once as bitmasks,
    and the Vamos restrictions are read off them.  The answer equals the
    test of every eight-element restriction for any deterministic oracle.
    A hit flags the source structure as non-representable.  Limited to
    ground sets of at most 15 elements.
    """
    size = len(m.ground)
    if size < 8:
        return False
    if size > 15:
        raise ValueError("vamos-minor search is limited to 15 ground elements")
    for csize in range(min(size - 8, m.rank - 4) + 1):
        for cset in combinations(m.ground, csize):
            if not m.is_independent(cset):
                continue
            minor = matroid_minor(m, contract=cset)
            if any(_vamos_candidates(minor)):
                return True
    return False
