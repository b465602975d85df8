"""Matroids as independence oracles: graphic matroids, the Vamos matroid,
minors, and a Vamos-minor detector.

Oracles rather than matrices are the representation of choice here because
the Vamos matroid admits no matrix representation over any field -- that is
the very obstruction the minor detector reports.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations, product
from operator import and_, or_

from .spanning import _is_forest


class Matroid:
    """Ground set plus a memoized independence oracle.

    Each ground element owns one bit, and queries are memoised by the int
    mask of the set.  The oracle given here receives a frozenset, built
    only when the memo misses; the built-in matroids answer on the mask
    itself.  A minor from ``matroid_minor`` keeps its parent's bits,
    oracle and memo: its query of a mask is the parent's query of that mask
    together with the contracted mask, so every minor of one matroid shares
    one memo.
    """

    def __init__(self, ground, indep, name: str = "matroid"):
        ground = tuple(ground)

        def on_mask(mask: int) -> bool:
            return bool(indep(frozenset(e for i, e in enumerate(ground) if mask >> i & 1)))

        self._fill(ground, on_mask, name)

    def _fill(self, ground: tuple, indep, name: str) -> None:
        """Set up a matroid whose oracle ``indep`` answers on the mask with
        bit i for ``ground[i]``."""
        self.ground = ground
        self._bit = {e: 1 << i for i, e in enumerate(ground)}
        if len(self._bit) != len(ground):
            raise ValueError("ground set elements must be distinct")
        self._contracted = 0
        self._indep = indep
        self._memo: dict[int, bool] = {0: True}
        self.name = name

    def _minor(self, ground, contracted: int, name: str) -> "Matroid":
        """Restriction to ``ground`` after contracting the independent mask
        ``contracted``, sharing this matroid's bits, oracle and memo."""
        minor = object.__new__(Matroid)
        minor.ground = tuple(ground)
        minor._bit = {e: self._bit[e] for e in minor.ground}
        minor._indep, minor._memo = self._indep, self._memo
        minor._contracted = self._contracted | contracted
        minor.name = name
        return minor

    def _mask(self, subset) -> int:
        """Mask of ``subset``; ValueError for an element outside the ground set."""
        mask, bit = 0, self._bit
        try:
            for e in subset:
                mask |= bit[e]
        except KeyError:
            raise ValueError("subset is not contained in the ground set") from None
        return mask

    def _independent(self, mask: int) -> bool:
        mask |= self._contracted
        got = self._memo.get(mask)
        if got is None:
            got = self._memo[mask] = self._indep(mask)
        return got

    def _rank(self, mask: int, over: int = 0) -> int:
        """Greedy rank of ``mask`` in ground order, over the contracted ``over``."""
        got = over
        for b in self._bit.values():
            if b & mask and self._independent(got | b):
                got |= b
        return (got ^ over).bit_count()

    def is_independent(self, subset) -> bool:
        return self._independent(self._mask(subset))

    def rank_of(self, subset=None) -> int:
        """Greedy rank of ``subset`` (defaults to the whole ground set);
        elements outside the ground set are ignored."""
        if subset is None:
            return self._rank(sum(self._bit.values()))
        return self._rank(sum(self._bit.get(e, 0) for e in set(subset)))

    @property
    def rank(self) -> int:
        return self.rank_of()

    def circuits(self) -> list[frozenset]:
        """Minimal dependent sets, by exhaustive scan (desk scale)."""
        out = []
        for r in range(1, len(self.ground) + 1):
            for sub in combinations(self.ground, r):
                mask = self._mask(sub)
                if not self._independent(mask) and all(
                        self._independent(mask ^ self._bit[x]) for x in sub):
                    out.append(frozenset(sub))
        return out

    def __repr__(self):
        return f"Matroid({self.name}, |E|={len(self.ground)})"


def _on_masks(ground, indep, name: str) -> Matroid:
    """A matroid whose oracle ``indep`` answers on the mask with bit i for
    ``ground[i]``."""
    m = object.__new__(Matroid)
    m._fill(tuple(ground), indep, name)
    return m


def graphic_matroid(g) -> Matroid:
    """Edges of a graph, independent exactly when they form a forest."""
    edges = tuple(g.sorted_edges())
    return _on_masks(edges, partial(_is_forest, g.n, edges), "graphic")


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
    bit = {e: 1 << i for i, e in enumerate(ground)}
    masks = [sum(bit[e] for e in b) for b in basis_sets]
    # holders[x] has bit j set when the j-th distinct basis holds x: a set lies
    # in a basis when its holders' AND is nonzero, meets all when their OR is full
    distinct = tuple(dict.fromkeys(masks))
    holders = {x: sum(1 << j for j, b in enumerate(distinct) if b & x) for x in bit.values()}
    everyone = (1 << len(distinct)) - 1
    # Exchange axiom: for bases B1, B2 and x in B1 - B2, some y in B2 - B1
    # makes B1 - x + y a basis.  fills[B - x] holds every y that completes
    # B - x to a basis (x among them), so B2 must meet fills[B1 - x].
    fills: dict[int, int] = {}
    for b in masks:
        for x in bit.values():
            if b & x:
                fills[b ^ x] = fills.get(b ^ x, 0) | x
    if any(_folded(holders, fill, or_, 0) != everyone for fill in set(fills.values())):
        # name the first failing pair in (i, j) order
        for i, b1 in enumerate(masks):
            row = [fills[b1 ^ x] for x in bit.values() if b1 & x]
            for j, b2 in enumerate(masks):
                if any(not fill & b2 for fill in row):
                    raise ValueError(f"bases[{i}] and bases[{j}] break the basis exchange axiom")
    return _on_masks(ground, lambda mask: _folded(holders, mask, and_, everyone) != 0, "tabulated")


def _folded(holders: dict, mask: int, op, acc: int) -> int:
    """``acc`` combined by ``op`` with ``holders[x]`` for each bit x of ``mask``."""
    while mask:
        low = mask & -mask
        acc = op(acc, holders[low])
        mask ^= low
    return acc


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

_VAMOS_QUAD_MASKS = frozenset(sum(1 << VAMOS_GROUND.index(e) for e in q)
                              for q in VAMOS_CIRCUIT_QUADS)


def _vamos_independent(mask: int) -> bool:
    """Independence in the Vamos matroid of a mask over ``VAMOS_GROUND``."""
    size = mask.bit_count()
    return size < 4 or size == 4 and mask not in _VAMOS_QUAD_MASKS


def vamos() -> Matroid:
    """The rank-4 matroid on eight elements (two per diamond vertex) whose
    dependent quadruples are exactly the five diamond-edge pair unions.
    Representable over no field."""
    return _on_masks(VAMOS_GROUND, _vamos_independent, "vamos")


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
    return m._minor(ground, m._mask(cset), f"{m.name}-minor")


def _vamos_eights(m: Matroid, cset: int, triples, quads):
    """Eight-element masks on which m / ``cset`` is the Vamos matroid, given
    the masks of its dependent triples and of its dependent quadruples
    without a dependent triple.  A Vamos restriction has rank 4 and exactly
    five dependent quadruples, two of them disjoint (the pair unions along
    ac and bd); the diamond vertices are the quadruples' two-element
    intersections, and five edges on four vertices always form a diamond."""
    for eight in sorted({a | b for a, b in combinations(quads, 2) if not a & b}):
        if any(t & eight == t for t in triples):
            continue
        inside = [q for q in quads if q & eight == q]
        if len(inside) != 5:
            continue
        pairs = {a & b for a, b in combinations(inside, 2) if (a & b).bit_count() == 2}
        # four two-element masks sum to the eight bits only when disjoint
        if (len(pairs) == 4 and sum(pairs) == eight
                and all(sum(p & q == p for p in pairs) == 2 for q in inside)
                and m._rank(eight, cset) == 4):
            yield eight


def has_vamos_minor(m: Matroid) -> bool:
    """True when some minor of m is isomorphic to the Vamos matroid.

    Contracts each independent c-set C small enough to leave rank 4 on
    eight elements.  The Vamos matroid is sparse paving, so the dependent
    triples and quadruples of m / C decide it (Oxley, *Matroid Theory*,
    2011).  Level c knows the dependent (3+c)-sets W and queries each
    (4+c)-set U once: m / C has the dependent triples W - C for W holding
    C, and the quadruples without one U - C for dependent U with
    bad(U) <= C <= U, where bad(U) holds the x with U - x among the W.
    These are the very sets that listing each m / C finds, each from the
    oracle's answer on the same set, and no set is taken as dependent
    because a subset is, so the answer equals the per-contraction search
    for any deterministic oracle.  The last level skips U with |bad(U)| > c.
    A hit flags the source structure as non-representable.  Limited to
    ground sets of at most 15 elements.
    """
    size = len(m.ground)
    if size > 15:
        raise ValueError("vamos-minor search is limited to 15 ground elements")
    top = min(size - 8, m.rank - 4)
    if top < 0:
        return False
    bits, independent = tuple(m._bit.values()), m._independent
    below = [w for w in map(sum, combinations(bits, 3)) if not independent(w)]
    for c in range(top + 1):
        bad: dict[int, int] = {}
        for w, b in product(below, bits):
            if not w & b:
                bad[w | b] = bad.get(w | b, 0) | b
        above, quads = [], {}
        for u in map(sum, combinations(bits, 4 + c)):
            forced = bad.get(u, 0)
            spare = c - forced.bit_count()
            if (c < top or spare >= 0) and not independent(u):
                above.append(u)
                if spare >= 0:
                    for rest in combinations([b for b in bits if b & u & ~forced], spare):
                        cset = forced | sum(rest)
                        quads.setdefault(cset, []).append(u ^ cset)
        for cset, inside in quads.items():
            if len(inside) >= 5 and independent(cset) and any(_vamos_eights(
                    m, cset, [w ^ cset for w in below if w & cset == cset], inside)):
                return True
        below = above
    return False
