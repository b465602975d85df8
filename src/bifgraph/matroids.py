"""Matroids as independence oracles: graphic matroids, the Vamos matroid,
minors, and a brute-force Vamos-minor detector.

Oracles rather than matrices are the representation of choice here because
the Vamos matroid admits no matrix representation over any field -- that is
the very obstruction the minor detector reports.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from itertools import combinations

from .spanning import _is_forest


class Matroid:
    """Ground set plus a memoized independence oracle."""

    def __init__(self, ground, indep, name: str = "matroid"):
        self.ground = tuple(ground)
        if len(set(self.ground)) != len(self.ground):
            raise ValueError("ground set elements must be distinct")
        self._indep = indep
        self._memo: dict[frozenset, bool] = {frozenset(): True}
        self.name = name

    def is_independent(self, subset) -> bool:
        key = frozenset(subset)
        if not key <= set(self.ground):
            raise ValueError("subset is not contained in the ground set")
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = bool(self._indep(key))
        return got

    def rank_of(self, subset=None, base=()) -> int:
        """Greedy rank of ``subset`` (defaults to the whole ground set),
        relative to an independent ``base``."""
        pool = self.ground if subset is None else [e for e in self.ground if e in set(subset)]
        got = list(base)
        for e in pool:
            if e in got:
                continue
            if self.is_independent(frozenset(got) | {e}):
                got.append(e)
        return len(got) - len(base)

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


def _matches_vamos(elements, indep) -> bool:
    """Structural isomorphism test against the Vamos matroid for a rank-4
    oracle on exactly eight elements (all triples already independent and
    exactly five dependent quadruples assumed checked by the caller)."""
    quads = [frozenset(q) for q in combinations(elements, 4) if not indep(frozenset(q))]
    pair_count = Counter()
    for q in quads:
        for pair in combinations(sorted(q, key=repr), 2):
            pair_count[frozenset(pair)] += 1
    pairs = [p for p, c in pair_count.items() if c >= 2]
    if len(pairs) != 4 or len(frozenset().union(*pairs)) != 8:
        return False
    which = {e: i for i, p in enumerate(pairs) for e in p}
    quad_edges = set()
    for q in quads:
        ps = frozenset(which[e] for e in q)
        if len(ps) != 2:
            return False
        quad_edges.add(ps)
    if len(quad_edges) != 5:
        return False
    deg = Counter()
    for e in quad_edges:
        for x in e:
            deg[x] += 1
    return sorted(deg.values()) == [2, 2, 3, 3]


def has_vamos_minor(m: Matroid) -> bool:
    """True when some minor of m is isomorphic to the Vamos matroid.

    Brute force over (contract, delete) splits, pruned by rank arithmetic
    and dependency-count signatures; a hit flags the source structure as
    non-representable.  Practical for ground sets up to ~15 elements.
    """
    size = len(m.ground)
    if size < 8:
        return False
    if size > 15:
        raise ValueError("vamos-minor search is limited to 15 ground elements")
    removals = size - 8
    top_rank = m.rank
    for csize in range(0, min(removals, max(0, top_rank - 4)) + 1):
        for cset in combinations(m.ground, csize):
            cfs = frozenset(cset)
            if not m.is_independent(cfs):
                continue
            pool = tuple(e for e in m.ground if e not in cfs)
            for dset in combinations(pool, removals - csize):
                rem = tuple(e for e in pool if e not in dset)

                def indep(subset: frozenset, _c=cfs) -> bool:
                    return m.is_independent(subset | _c)

                if m.rank_of(rem, base=cset) != 4:
                    continue
                bad = 0
                for q in combinations(rem, 4):
                    if not indep(frozenset(q)):
                        bad += 1
                        if bad > 5:
                            break
                if bad != 5:
                    continue
                if any(not indep(frozenset(t)) for t in combinations(rem, 3)):
                    continue
                if _matches_vamos(rem, indep):
                    return True
    return False
