"""Uncolored tree shapes: positional (slotted) trees counted by the k-ary
formula, rooted trees up to child reordering, unrooted free trees, the
standard m-ary to binary conversion, and the one series engine that counts
both colored trees and shapes.

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

from collections import Counter
from enum import Enum
from itertools import combinations, product
from math import comb
from operator import ge, mul

from .graphs import SimpleGraph


class TreeMode(Enum):
    PLANE = "plane"
    FREE = "free"

    @classmethod
    def coerce(cls, value) -> "TreeMode":
        return value if isinstance(value, TreeMode) else cls(str(value).lower())


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
    q, r = divmod(comb(k * n, n), (k - 1) * n + 1)
    assert r == 0, "k-ary count formula produced a non-integer"
    return q


def _fold(roots, children, combine) -> dict:
    """``{id(node): combine(node, [value of each child])}`` over every node
    under ``roots``, where ``children(node)`` lists a node's children;
    children first from an explicit stack, each shared subtree once."""
    done: dict = {}
    stack = [(t, False) for t in roots]
    while stack:
        node, ready = stack.pop()
        if id(node) in done:
            continue
        if ready:
            done[id(node)] = combine(node, [done[id(c)] for c in children(node)])
        else:
            stack.append((node, True))
            stack += [(c, False) for c in children(node)]
    return done


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


def _shape_rules(arity: int, n: int) -> dict:
    """The count engine's rules of shapes: one root, with c = 1..min(arity, n - 1) children."""
    return {0: [(1, ((0, c),)) for c in range(1, min(arity, n - 1) + 1)]}


def _pools(rules: dict, arity: int, n: int, plane: bool, node) -> dict:
    """``pool[root][size]`` for size 1..n, filled in order of size within
    this one call: every tree whose nodes are leaves or have children by one
    of the count engine's ``rules[root]`` (``_count_series``), weights aside.
    ``node(root, slots, kid_tuples)`` builds the trees of one root, slots
    (None in free mode, ``()`` at a leaf) and iterable of child tuples.

    Plane trees come in the order of heads (child count, slots among
    ``arity``, then child roots, each a distinct ordering of a rule's
    multiset), size composition, then the product of the child pools.  Free
    trees keep their children, and each pool, sorted by the key (size,
    shape, root, child keys), built once per tree from its children's keys;
    a child multiset is taken once, in the order whose keys (led by sizes)
    do not increase.  Every tree of a pool is one object, shared by each
    larger tree that holds it."""
    heads = {}  # root: its sorted (child count, slots, child roots)
    for root, rs in rules.items():
        tuples = []
        for _, parts in rs:
            orderings = {()}
            for h in [h for h, m in parts for _ in range(m)]:  # one more h at each position
                orderings = {t[:i] + (h,) + t[i:] for t in orderings for i in range(len(t) + 1)}
            tuples += orderings
        heads[root] = sorted((len(t), slots, t) for t in tuples
                             for slots in (combinations(range(arity), len(t)) if plane else [None]))
    pool = {root: [(), tuple(node(root, (), [()]))] for root in rules}
    key = {id(pool[root][1][0]): (1, (), root, ()) for root in rules}

    def falling(seq) -> bool:
        return all(map(ge, seq, seq[1:]))

    for size in range(2, n + 1):
        for root, root_heads in heads.items():
            out = []
            for c, slots, kid_roots in root_heads:
                if c >= size:
                    break
                for sizes in _compositions(size - 1, c):
                    kid_tuples = product(*(pool[h][s] for s, h in zip(sizes, kid_roots)))
                    if plane:
                        out += node(root, slots, kid_tuples)
                    elif falling(sizes):
                        kept = [(kids, keys) for kids in kid_tuples
                                if falling(keys := tuple([key[id(t)] for t in kids]))]
                        for tree, (_, keys) in zip(node(root, None, [k for k, _ in kept]), kept):
                            key[id(tree)] = (size, tuple(k[1] for k in keys), root, keys)
                            out.append(tree)
            if not plane:
                out.sort(key=lambda t: key[id(t)])
            pool[root].append(tuple(out))
    return pool


def slot_trees(arity: int, n: int) -> tuple:
    """All slot trees on n nodes of ``arity`` child positions: ``_pools`` over ``_shape_rules``."""
    pool = _pools(_shape_rules(arity, n), arity, n, True,
                  lambda _, slots, kid_tuples: [tuple(zip(slots, kids)) for kids in kid_tuples])
    return pool[0][n] if n >= 1 else ()


def slot_tree_size(t) -> int:
    size, stack = 0, [t]
    while stack:
        size += 1
        stack += (c for _, c in stack.pop())
    return size


def strip_slots(t) -> tuple:
    """Forget slot positions, keeping child order: slot tree -> ordered tree."""
    return _fold((t,), lambda node: [c for _, c in node], lambda _, kids: tuple(kids))[id(t)]


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

def _forests(memo: dict, total: int, slots: int, max_children: int, max_key) -> tuple:
    """Non-increasing tuples of canonical trees: at most ``slots`` trees whose
    sizes sum to ``total``, each tree of branching at most ``max_children``,
    each no larger than ``max_key`` under the (size, structure) order.  A
    tree of size s is a forest of s - 1 nodes in ``max_children`` slots."""
    if total == 0:
        return ((),)
    if slots == 0:
        return ()
    key = (total, slots, max_key)  # hashed once per call: trees hash slowly
    out = memo.get(key)
    if out is None:
        out = []
        # the other slots - 1 trees are no larger than s, so s >= ceil(total / slots)
        for s in range(total, -(-total // slots) - 1, -1):
            for t in _forests(memo, s - 1, max_children, max_children, None):
                bound = (s, t)
                if max_key is None or bound <= max_key:
                    for rest in _forests(memo, total - s, slots - 1, max_children, bound):
                        out.append((t,) + rest)
        out = memo[key] = tuple(out)
    return out


def canonical_trees(n: int, max_children: int | None = None) -> tuple:
    """Rooted trees on n nodes up to reordering of children, canonically
    encoded as non-increasing child tuples; the memo lives for one call."""
    if n < 1:
        return ()
    mc = n if max_children is None else max_children
    memo: dict = {}
    for total in range(n - 1):  # smallest first, so the recursion stays shallow
        _forests(memo, total, mc, mc, None)
    return _forests(memo, n - 1, mc, mc, None)


def canonical_form(t) -> tuple:
    """Canonical (order-free) form of an ordered tree: children sorted by
    (size, canonical form), largest first.  Equal forms are built as one
    object, so equal deep siblings compare by identity."""
    interned: dict = {}

    def form(_, kids):  # kids: (size, canonical form) of each child
        kids.sort(reverse=True)
        forms = tuple(f for _, f in kids)
        return 1 + sum(size for size, _ in kids), interned.setdefault(tuple(map(id, forms)), forms)

    return _fold((t,), tuple, form)[id(t)][1]


# ---------------------------------------------------------------------------
# Exact counts, one bottom-up coefficient table, and the shape entry points
# ---------------------------------------------------------------------------

def _coefficient(s: list[int], t: list[int], n: int, j: int = 1) -> int:
    """Coefficient n of S(x^j) * T(x), where S has no constant term; reads
    s[1..n // j] and t[0..n - j].  A square S(x)^2 takes each cross term
    s_i s_(n-i) once and doubles it."""
    if s is t and j == 1:
        cross = 2 * sum(map(mul, s[1:(n + 1) // 2], s[n - 1:n // 2:-1]))
        return cross + s[n // 2] ** 2 if n % 2 == 0 else cross
    return sum(map(mul, s[1:n // j + 1], t[n - j::-j]))


def _quotient(rs: list, rep: dict, plane: bool) -> tuple:
    """A root's rules with each child h replaced by ``rep[h]``, sorted, the
    weights of equal parts summed.  In plane mode the factors of one class
    combine into one power, since A_h^m A_g^l = A^(m+l) when A_h = A_g; in
    free mode they stay separate factors, since MSET_m(A) MSET_l(A) is not
    MSET_(m+l)(A)."""
    out: dict = {}
    for weight, parts in rs:
        if plane:
            kids: dict = {}
            for h, m in parts:
                kids[rep[h]] = kids.get(rep[h], 0) + m
            parts = tuple(sorted(kids.items()))
        else:
            parts = tuple(sorted((rep[h], m) for h, m in parts))
        out[parts] = out.get(parts, 0) + weight
    return tuple(sorted((weight, parts) for parts, weight in out.items()))


def _classes(rules: dict, plane: bool) -> tuple[dict, dict]:
    """``{root: representative}`` of the coarsest stable partition of the
    roots, in which two roots share a class when their rules, with every
    child replaced by its class (``_quotient``), are equal; and those rules
    of each representative.  Refined from one class until no class splits;
    each representative is its class's least root.  Once every root is
    alone in its class, the rules are read over classes as they stand."""
    roots = sorted(rules)
    rep = {root: roots[0] for root in roots}
    while True:
        groups: dict = {}
        for root in roots:
            groups.setdefault((rep[root], _quotient(rules[root], rep, plane)), []).append(root)
        if len(groups) == len(roots):
            return {root: root for root in roots}, rules
        if len(groups) == len(set(rep.values())):
            return rep, {root: quotient for root, quotient in groups}
        rep = {root: members[0] for members in groups.values() for root in members}


def _keys(parts: tuple) -> list:
    """The series a product of ``parts`` is built from, itself included:
    each power ((h, j),), j = 2..m, of a factor (h, m), and each prefix of
    two or more factors."""
    return [((h, j),) for h, m in parts for j in range(2, m + 1)] + \
        [parts[:i] for i in range(2, len(parts) + 1)]


def _price(keys) -> float:
    """Full products per coefficient that filling the series ``keys`` takes;
    a square, a power (h, 2) or a product of two equal factors, counts 1/2."""
    return sum(0.5 if len(key) == 1 and key[0][1] == 2 or key[1:] == key[:1] else 1
               for key in keys)


def _plan(rules: dict, plane: bool) -> tuple[float, dict, set]:
    """The plan by which ``_count_series`` fills the series of ``rules``,
    read over classes: ``{root: (direct, own)}``; its full products per
    coefficient; and the series keys it reads.

    Each term is (weight, shift, parts): a rule with the factors of classes
    without rules taken out, since such a class's series is x (and
    MSET_m(x) = x^m), leaving x^shift.  A direct term adds weight times
    coefficient n-1-shift of the product of its parts to ``a[root][n]``.
    The own terms are the rules of degree two or more that hold A_root, with
    one factor A_root taken out (in free mode only a factor MSET_1(A_root),
    since MSET_m does not factor).  The rules are linear in that factor, so
    the own terms add coefficient n-1 of A_root times Q, the sum of their
    weighted products: one convolution for all of them.

    Two plans are priced, and the cheaper kept, the first on a tie: every
    rule direct, or a root's own terms wherever a rule holds A_root.  A
    product of parts takes one product per power and prefix (``_keys``),
    shared across rules and priced by ``_price``, and each root with own
    terms takes one more.  Powers are priced as in plane mode in both
    modes."""
    idle = {h for h, rs in rules.items() if not rs}
    prefix, led, plans = set(), set(), ({}, {})
    for root, rs in rules.items():
        whole = plans[0][root] = []
        direct, own = plans[1][root] = [], []
        for weight, parts in rs:
            shift = sum(m for h, m in parts if h in idle) if idle else 0
            if shift:
                parts = tuple(f for f in parts if f[0] not in idle)
            whole.append((weight, shift, parts))
            if len(parts) == 1 and parts[0][1] == 1:  # A_h alone: no product
                direct.append((weight, shift, parts))
                continue
            keys = _keys(parts)
            prefix.update(keys)
            for i, (h, m) in enumerate(parts):
                if h == root and (plane or m == 1):
                    rest = parts[:i] + ((h, m - 1),) * (m > 1) + parts[i + 1:]
                    own.append((weight, shift, rest))
                    led.update(_keys(rest))
                    break
            else:
                direct.append((weight, shift, parts))
                led.update(keys)
    by_prefix = _price(prefix)
    by_root = _price(led) + sum(1 for _, own in plans[1].values() if own)
    if by_root < by_prefix:
        return by_root, plans[1], led
    return by_prefix, {root: (whole, []) for root, whole in plans[0].items()}, prefix


def _count_series(rules: dict, n_max: int, plane: bool) -> list[int]:
    """Numbers of trees on n = 1..n_max nodes over all roots, where every root
    is a leaf or has children by one of its ``rules[root]``, each
    ``(weight, ((child, multiplicity), ...))`` with sorted children.

    Roots of one class of ``_classes`` have equal series A_root: every root
    counts 1 at n = 1, and if the roots of each class agree below n, the
    rules of two roots of a class, read over classes, give equal products
    and so equal coefficients at n.  So one series is filled per class, over
    the rules of its representative read over classes (``_quotient``), and
    the total is the sum of class size times class series.  In dimension
    d >= 3 the built-in tables are unchanged when every index is negated, so
    -1 and +1 share a class, and 0 joins them when nodes have at most two
    children.

    ``a[root][n]`` is filled in order of n, by the terms of ``_plan``, from
    products with one factor per child h of multiplicity m, ``A_h^m`` in
    plane mode and ``MSET_m(A_h)`` in free mode, from m Z_m(x) = sum_j
    A_h(x^j) Z_{m-j}(x).  No series has a constant term, so coefficient n-1
    reads only trees of fewer nodes.
    """
    rep, rules = _classes(rules, plane)
    size = Counter(rep.values())
    _, plan, keys = _plan(rules, plane)
    a = {root: [0, 1] for root in rules}
    # series[parts]: the product of the factors (h, m) in parts; the factor
    # of (h, 1) is A_h in both modes, that of (h, 0) and the empty product are 1
    one = [1] + [0] * n_max
    series = {(): one, **{((h, 1),): a[h] for h in rules}, **{((h, 0),): one for h in rules}}
    series.update({key: [0] for key in keys})
    powers = sorted(key[0] for key in keys if len(key) == 1)
    products = sorted((key for key in keys if len(key) > 1), key=len)

    def read(terms):  # each term with the series of its parts
        return [(weight, shift, series[parts]) for weight, shift, parts in terms]

    fill = [(root, read(direct), read(own), [0]) for root, (direct, own) in plan.items()]
    for n in range(1, n_max):
        for h, m in powers:
            if plane:
                got = _coefficient(a[h], series[((h, m - 1),)], n)
            else:
                got = sum(_coefficient(a[h], series[((h, m - j),)], n, j)
                          for j in range(1, m + 1)) // m
            series[((h, m),)].append(got)
        for parts in products:
            series[parts].append(_coefficient(series[parts[-1:]], series[parts[:-1]], n))
        for root, direct, own, q in fill:  # q: the sum of the own terms
            got = sum([weight * s[n - shift] for weight, shift, s in direct if shift <= n])
            if own:
                got += _coefficient(a[root], q, n)
                q.append(sum([weight * s[n - shift] for weight, shift, s in own if shift <= n]))
            a[root].append(got)
    return [sum(size[root] * a[root][n] for root in rules) for n in range(1, n_max + 1)]


def count_shapes(k: int, n: int, mode=TreeMode.PLANE) -> int:
    """Exact shape count for branching budget k (at most k+1 children): the
    (k+1)-ary formula in plane mode, the count engine in free mode."""
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    if TreeMode.coerce(mode) is TreeMode.PLANE:
        return count_kary_formula(k + 1, n)
    return _count_series(_shape_rules(k + 1, n), n, plane=False)[-1]


def enumerate_shapes(k: int, n: int, mode=TreeMode.PLANE, limit: int | None = None) -> tuple:
    """All uncolored tree shapes on n nodes with at most k+1 children per node.

    PLANE mode returns slot trees (children occupy distinct positions among
    k+1 slots); the count then matches ``count_kary_formula(k + 1, n)``.
    FREE mode returns canonical rooted trees up to child reordering.
    """
    total = count_shapes(k, n, mode)
    mode = TreeMode.coerce(mode)
    if limit is not None and total > limit:
        raise EnumerationLimitError(f"{total} shapes exceed limit {limit}")
    return slot_trees(k + 1, n) if mode is TreeMode.PLANE else canonical_trees(n, k + 1)


# ---------------------------------------------------------------------------
# m-ary -> binary conversion (left child / right sibling)
# ---------------------------------------------------------------------------

def mary_to_binary(t) -> tuple:
    """Encode an ordered tree as a binary slot tree (slots: 0 = left, 1 = right).

    The leftmost child becomes the left child; each subsequent child becomes
    the right child of its previous sibling.  Injective on plane trees and
    node-count preserving.  Built children first, so deep and wide trees
    convert alike.
    """
    def chain(node, kids):  # the binary form of node's list of children
        right = None
        for child, kid in zip(reversed(node), reversed(kids)):
            pairs = ((0, kid),) if child else ()
            right = pairs if right is None else pairs + ((1, right),)
        return right

    return ((0, _fold((t,), tuple, chain)[id(t)]),) if t else ()


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
    """Edge list of a canonical/ordered tree, vertices numbered in DFS
    preorder from an explicit stack; each edge is (parent, child)."""
    edges, stack = [], [(t, 0)]  # (node, its parent's number)
    while stack:
        node, parent = stack.pop()
        me = len(edges)  # the root comes first, as the pseudo-edge (0, 0)
        edges.append((parent, me))
        for child in reversed(node):
            stack.append((child, me))
    return edges[1:]


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
