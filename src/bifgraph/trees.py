"""Uncolored tree shapes: positional (slotted) trees counted by the k-ary
formula, rooted trees up to child reordering, unrooted free trees, and the
standard m-ary to binary conversion.

Three nested-tuple carriers are used:

* slot tree -- node = tuple of (slot, child) pairs with strictly increasing
  slot indices drawn from 0..arity-1.  Two trees differ if any child sits in
  a different slot.  This is the convention counted exactly by
  ``count_kary_formula``.
* ordered tree -- node = tuple of children; order matters, no slots.
* canonical tree -- node = sorted tuple of children; the canonical form of a
  rooted tree up to reordering ("free" mode of the enumerators).

A leaf is the empty tuple in every carrier.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from itertools import combinations, product
from math import comb

from .graphs import SimpleGraph


class TreeMode(Enum):
    PLANE = "plane"
    FREE = "free"

    @classmethod
    def coerce(cls, value) -> "TreeMode":
        if isinstance(value, TreeMode):
            return value
        return cls(str(value).lower())


class EnumerationLimitError(RuntimeError):
    """Raised when an explicit enumeration would exceed the configured cap."""


def count_kary_formula(k: int, n: int) -> int:
    """Number of k-ary trees on n nodes: binom(kn, n) / ((k-1)n + 1).

    The binomial is always divisible by (k-1)n + 1; the division is checked.
    """
    if k < 2:
        raise ValueError("k-ary count formula requires k >= 2")
    if n < 1:
        raise ValueError("need n >= 1")
    num = comb(k * n, n)
    den = (k - 1) * n + 1
    q, r = divmod(num, den)
    assert r == 0, "k-ary count formula produced a non-integer"
    return q


# ---------------------------------------------------------------------------
# Slot trees (positional children, "plane" mode)
# ---------------------------------------------------------------------------

def _compositions(total: int, parts: int):
    """Ordered tuples of positive integers of length ``parts`` >= 1 summing
    to total."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def slot_trees(arity: int, n: int) -> tuple:
    """All slot trees on n nodes where each node has ``arity`` child positions,
    filled in order of size: child count, slots, size composition, then the
    product of the smaller lists, each subtree one shared object."""
    pool = [(), ((),)]
    for size in range(2, n + 1):
        pool.append(tuple(
            tuple(zip(slots, kids))
            for c in range(1, min(arity, size - 1) + 1)
            for slots in combinations(range(arity), c)
            for sizes in _compositions(size - 1, c)
            for kids in product(*(pool[s] for s in sizes))))
    return pool[n] if n >= 1 else ()


def slot_tree_size(t) -> int:
    size, stack = 0, [t]
    while stack:
        size += 1
        stack += (c for _, c in stack.pop())
    return size


def strip_slots(t) -> tuple:
    """Forget slot positions, keeping child order: slot tree -> ordered tree."""
    return tuple(strip_slots(c) for _, c in t)


# ---------------------------------------------------------------------------
# Ordered trees (plane trees without slots)
# ---------------------------------------------------------------------------

def ordered_trees(n: int) -> tuple:
    """All plane trees on n nodes (ordered children, unbounded arity);
    there are Catalan(n-1) of them.  A tree is its forest of children:
    first child of every size, then the forests of the remaining nodes."""
    forests = [((),)]
    for total in range(1, n):
        forests.append(tuple((t,) + rest for s in range(1, total + 1)
                             for t in forests[s - 1] for rest in forests[total - s]))
    return forests[n - 1] if n >= 1 else ()


def tree_size(t) -> int:
    """Node count of an ordered or canonical tree."""
    size, stack = 0, [t]
    while stack:
        size += 1
        stack += stack.pop()
    return size


# ---------------------------------------------------------------------------
# Canonical rooted trees (children as a multiset, "free" mode)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _bounded_forests(total: int, slots: int, max_children: int, max_key) -> tuple:
    """Non-increasing tuples of canonical trees: at most ``slots`` trees whose
    sizes sum to ``total``, each tree of branching at most ``max_children``,
    each no larger than ``max_key`` under the (size, structure) order."""
    if total == 0:
        return ((),)
    if slots == 0:
        return ()
    out = []
    for s in range(total, 0, -1):
        for t in canonical_trees(s, max_children):
            key = (s, t)
            if max_key is not None and key > max_key:
                continue
            for rest in _bounded_forests(total - s, slots - 1, max_children, key):
                out.append((t,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def canonical_trees(n: int, max_children: int | None = None) -> tuple:
    """Rooted trees on n nodes up to reordering of children, canonically
    encoded as non-increasing child tuples."""
    if n < 1:
        return ()
    mc = n if max_children is None else max_children
    if n == 1:
        return ((),)
    return _bounded_forests(n - 1, mc, mc, None)


def canonical_form(t) -> tuple:
    """Canonical (order-free) form of an ordered tree."""
    kids = sorted((canonical_form(c) for c in t), key=lambda c: (tree_size(c), c), reverse=True)
    return tuple(kids)


# ---------------------------------------------------------------------------
# Shape enumeration entry point
# ---------------------------------------------------------------------------

def count_shapes(k: int, n: int, mode=TreeMode.PLANE) -> int:
    """Exact shape count for branching budget k (at most k+1 children)."""
    mode = TreeMode.coerce(mode)
    if mode is TreeMode.PLANE:
        if n == 1:
            return 1
        return count_kary_formula(k + 1, n)
    return len(canonical_trees(n, k + 1))


def enumerate_shapes(k: int, n: int, mode=TreeMode.PLANE, limit: int | None = None) -> tuple:
    """All uncolored tree shapes on n nodes with at most k+1 children per node.

    PLANE mode returns slot trees (children occupy distinct positions among
    k+1 slots); the count then matches ``count_kary_formula(k + 1, n)``.
    FREE mode returns canonical rooted trees up to child reordering.
    """
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    mode = TreeMode.coerce(mode)
    if limit is not None and (total := count_shapes(k, n, mode)) > limit:
        raise EnumerationLimitError(f"{total} shapes exceed limit {limit}")
    return slot_trees(k + 1, n) if mode is TreeMode.PLANE else canonical_trees(n, k + 1)


# ---------------------------------------------------------------------------
# m-ary -> binary conversion (left child / right sibling)
# ---------------------------------------------------------------------------

def mary_to_binary(t) -> tuple:
    """Encode an ordered tree as a binary slot tree (slots: 0 = left, 1 = right).

    The leftmost child becomes the left child; each subsequent child becomes
    the right child of its previous sibling.  Injective on plane trees and
    node-count preserving.  Built children first from an explicit stack,
    so deep and wide trees convert alike.
    """
    if t == ():
        return ()
    order, stack = [], [t]  # every inner node, each before its children
    while stack:
        node = stack.pop()
        order.append(node)
        stack += [c for c in node if c]
    chains = {}  # id(node) -> the binary form of its list of children
    for node in reversed(order):
        right = None
        for child in reversed(node):
            pairs = ((0, chains[id(child)]),) if child else ()
            right = pairs if right is None else pairs + ((1, right),)
        chains[id(node)] = right
    return ((0, chains[id(t)]),)


def is_binary(t) -> bool:
    """True when a slot tree uses only slots 0 and 1."""
    stack = [t]
    while stack:
        node = stack.pop()
        if any(s not in (0, 1) for s, _ in node):
            return False
        stack += (c for _, c in node)
    return True


# ---------------------------------------------------------------------------
# Free (unrooted) trees
# ---------------------------------------------------------------------------

def _tree_edges(t) -> list[tuple[int, int]]:
    """Edge list of a canonical/ordered tree, vertices numbered in DFS preorder."""
    edges = []
    counter = [0]

    def walk(node, my_id):
        for child in node:
            counter[0] += 1
            cid = counter[0]
            edges.append((my_id, cid))
            walk(child, cid)

    walk(t, 0)
    return edges


@lru_cache(maxsize=None)
def free_trees(n: int) -> tuple[SimpleGraph, ...]:
    """All unrooted, unlabeled trees on n vertices, as SimpleGraphs.

    Each is a canonical rooted tree whose root is a centroid.  Children come
    largest first, so the root is a centroid when the first subtree has
    fewer than n/2 nodes; with exactly n/2 (two centroids) the rooting whose
    first subtree is no smaller than the rest of the tree is kept."""
    out = []
    for t in canonical_trees(n):
        heavy = tree_size(t[0]) if t else 0
        if 2 * heavy < n or (2 * heavy == n and t[0] >= t[1:]):
            out.append(SimpleGraph.from_edges(n, _tree_edges(t)))
    return tuple(out)
