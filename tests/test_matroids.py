"""Graphic matroids, the Vamos matroid, minors, axiom checks."""

import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifgraph import (
    Matroid, SimpleGraph, complete_graph, connected_graphs, cycle_graph,
    from_bases, graphic_matroid, has_vamos_minor, matroid_minor, path_graph,
    vamos,
)
from bifgraph.matroids import VAMOS_CIRCUIT_QUADS, VAMOS_GROUND, _vamos_eights
from helpers import (
    contracted_vamos_minor, graphic_set_oracle, is_vamos_restriction, labeled_graphs,
    listed_is_forest, mask_subset, random_connected_graph, random_graph, scanned_from_bases,
    searched_vamos_minor, set_from_bases, swept_vamos_minor, tabulated_set_oracle, vamos_bases,
    vamos_set_oracle,
)


def powerset(items):
    for r in range(len(items) + 1):
        yield from combinations(items, r)


def test_graphic_tree_is_free():
    m = graphic_matroid(path_graph(5))
    assert m.rank == 4
    for sub in powerset(m.ground):
        assert m.is_independent(sub)


def test_graphic_triangle():
    m = graphic_matroid(cycle_graph(3))
    assert m.rank == 2
    assert m.circuits() == [frozenset(m.ground)]


def test_graphic_k4_circuits():
    m = graphic_matroid(complete_graph(4))
    assert m.rank == 3
    circuits = m.circuits()
    assert len(circuits) == 7
    by_size = sorted(len(c) for c in circuits)
    assert by_size == [3, 3, 3, 3, 4, 4, 4]  # four triangles, three quads


def test_graphic_rank_counts_components():
    g = SimpleGraph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
    assert graphic_matroid(g).rank == 6 - 3


def test_vamos_structure():
    v = vamos()
    assert v.rank == 4 and repr(v) == "Matroid(vamos, |E|=8)"
    for quad in VAMOS_CIRCUIT_QUADS:
        assert not v.is_independent(quad)
    assert v.is_independent({"c1", "c2", "d1", "d2"})  # the missing diamond edge
    for trio in combinations(VAMOS_GROUND, 3):
        assert v.is_independent(trio)
    dependent_quads = [q for q in combinations(VAMOS_GROUND, 4)
                       if not v.is_independent(q)]
    assert len(dependent_quads) == 5


def test_minor_identity():
    v = vamos()
    m = matroid_minor(v)
    assert m.ground == v.ground and m.rank == 4


def test_minor_contract_triangle_edge():
    m = graphic_matroid(cycle_graph(3))
    minor = matroid_minor(m, contract=[m.ground[0]])
    assert len(minor.ground) == 2 and minor.rank == 1
    assert not minor.is_independent(set(minor.ground))
    for e in minor.ground:
        assert minor.is_independent({e})


def test_minor_delete_from_vamos():
    v = vamos()
    for e in v.ground:
        assert matroid_minor(v, delete=[e]).rank == 4


def _splits(m):
    """Every (independent contract set, disjoint delete set) pair of m."""
    for cset in powerset(m.ground):
        if m.is_independent(cset):
            rest = [e for e in m.ground if e not in cset]
            for dset in powerset(rest):
                yield frozenset(cset), frozenset(dset)


@pytest.mark.parametrize("make", [lambda: graphic_matroid(complete_graph(4)), vamos],
                         ids=["graphic K4", "vamos"])
def test_minors_answer_like_their_parent_exhaustively(make):
    # every minor shares one parent's memo; a second copy gives the answers
    m, reference = make(), make()
    for cset, dset in _splits(reference):
        minor = matroid_minor(m, delete=dset, contract=cset)
        assert minor.ground == tuple(e for e in m.ground if e not in cset | dset)
        for sub in powerset(minor.ground):
            assert minor.is_independent(sub) == reference.is_independent(set(sub) | cset)
        for e in cset | dset:
            with pytest.raises(ValueError):
                minor.is_independent({e})
            with pytest.raises(ValueError):
                minor.is_independent(set(minor.ground) | {e})


def test_minors_of_minors_add_their_contractions():
    m, reference = vamos(), vamos()
    first = matroid_minor(m, delete=["d2"], contract=["a1"])
    for cset, dset in _splits(first):
        minor = matroid_minor(first, delete=dset, contract=cset)
        for sub in powerset(minor.ground):
            assert (minor.is_independent(sub)
                    == reference.is_independent(set(sub) | cset | {"a1"}))


@pytest.mark.parametrize("make", [lambda: graphic_matroid(complete_graph(4)), vamos],
                         ids=["graphic K4", "vamos"])
def test_minor_queries_reach_the_oracle_once_as_subset_plus_contracted(make):
    base = make()
    received = []

    def counting(subset):
        received.append(subset)
        return base.is_independent(subset)

    m = Matroid(base.ground, counting, name="counting")
    for cset, dset in _splits(base):
        start = len(received)
        minor = matroid_minor(m, delete=dset, contract=cset)
        for sub in powerset(minor.ground):
            minor.is_independent(sub)
        minor.rank_of(minor.ground)
        # the sets the minor's own oracle passed upstream before: S | C
        assert all(cset <= got and got - cset <= set(minor.ground)
                   for got in received[start:])
    # the minor with nothing deleted or contracted asks about every set once
    assert all(type(got) is frozenset for got in received)
    assert max(Counter(received).values()) == 1
    assert len(received) == 2 ** len(base.ground) - 1


@pytest.mark.parametrize("make", [lambda: graphic_matroid(complete_graph(6)),
                                  lambda: _with_coloop(vamos())],
                         ids=["graphic K6", "vamos + coloop"])
def test_vamos_search_passes_each_set_to_the_oracle_once(make):
    base = make()
    received = []

    def counting(subset):
        received.append(subset)
        return base.is_independent(subset)

    m = Matroid(base.ground, counting, name="counting")
    assert has_vamos_minor(m) == has_vamos_minor(base)
    assert received and max(Counter(received).values()) == 1


def test_minor_argument_validation():
    v = vamos()
    with pytest.raises(ValueError):
        matroid_minor(v, delete=["a1"], contract=["a1"])
    with pytest.raises(ValueError):
        matroid_minor(v, contract=["a1", "a2", "b1", "b2", "c1"])  # dependent


def test_axioms_on_graphic_and_tabulated():
    rng = random.Random(11)
    samples = [graphic_matroid(random_connected_graph(rng, 5)) for _ in range(5)]
    samples.append(vamos())
    samples.append(from_bases("abcd", ["ab", "ac", "ad"]))
    for m in samples:
        ground = m.ground[:8]
        assert m.is_independent(frozenset())
        for sub in powerset(ground):
            if m.is_independent(sub):
                for smaller in combinations(sub, max(0, len(sub) - 1)):
                    assert m.is_independent(smaller)
        # all maximal independent subsets of a sample set share one size
        for sample in (ground[:4], ground[2:7], ground):
            maxima = set()
            for sub in powerset(sample):
                if m.is_independent(sub) and not any(
                        m.is_independent(set(sub) | {x})
                        for x in sample if x not in sub):
                    maxima.add(len(sub))
            assert len(maxima) == 1


def test_from_bases_validation():
    with pytest.raises(ValueError):
        from_bases("abc", [])
    with pytest.raises(ValueError):
        from_bases("abc", ["ab", "c"])
    with pytest.raises(ValueError):
        from_bases(["a", "b"], [["a", "z"]])
    with pytest.raises(ValueError, match="exchange"):
        from_bases("abcd", ["ab", "cd"])


def _satisfies_exchange(bases) -> bool:
    bs = {frozenset(b) for b in bases}
    return all(any((b1 - {x}) | {y} in bs for y in b2 - b1)
               for b1 in bs for b2 in bs for x in b1 - b2)


def _outcome(build, ground, bases):
    """None when ``build(ground, bases)`` accepts, else its ValueError text."""
    try:
        build(ground, bases)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("ground, r", [("abcd", 2), ("abcde", 2), ("abcde", 3)])
def test_from_bases_accepts_exactly_the_exchange_families(ground, r):
    # every nonempty family of r-subsets, against the axiom as written and
    # against the frozenset check and the basis-mask scan, message for
    # message; an accepted family answers every set as the scan does
    subsets = ["".join(c) for c in combinations(ground, r)]
    for mask in range(1, 1 << len(subsets)):
        bases = [b for i, b in enumerate(subsets) if mask >> i & 1]
        got = _outcome(from_bases, ground, bases)
        assert got == _outcome(set_from_bases, ground, bases), bases
        assert got == _outcome(scanned_from_bases, ground, bases), bases
        assert (got is None) == _satisfies_exchange(bases), bases
        if got is None:
            m, scanned = from_bases(ground, bases), scanned_from_bases(ground, bases)
            assert all(m._indep(s) == scanned._indep(s) for s in range(1 << len(ground)))


def _graphic_bases(g: SimpleGraph) -> list:
    """The maximal forests of g, each edge written as the string 'u-v'."""
    edges = g.sorted_edges()
    rank = g.n - len(g.components())
    return [[f"{u}-{v}" for u, v in b] for b in combinations(edges, rank)
            if listed_is_forest(g.n, b)]


@st.composite
def _bases_documents(draw):
    """(ground, bases) of a matroid: the maximal forests of a graph on at
    most five vertices, plus coloops and loops, up to 15 elements in all,
    with the ground set, the bases and each basis shuffled."""
    rng = draw(st.randoms(use_true_random=True))
    g = random_graph(rng, rng.randint(1, 5), rng.random())
    bases = _graphic_bases(g)
    ground = [f"{u}-{v}" for u, v in g.sorted_edges()]
    extra = rng.randint(0, 15 - len(ground))
    coloops = [f"z{i}" for i in range(rng.randint(0, extra))]
    loops = [f"x{i}" for i in range(extra - len(coloops))]
    ground += coloops + loops
    bases = [rng.sample(b + coloops, len(b) + len(coloops)) for b in bases]
    rng.shuffle(ground)
    rng.shuffle(bases)
    return ground, bases


@st.composite
def _families(draw):
    """(ground, bases) near the valid documents: a valid document with one
    basis dropped or repeated, or a random family of r-subsets with
    repeats; now and then a basis of another size, an element outside the
    ground set, a repeated ground element or no basis at all."""
    rng = draw(st.randoms(use_true_random=True))
    if rng.random() < 0.4:
        ground, bases = draw(_bases_documents())
        i = rng.randrange(len(bases))
        if len(bases) > 1 and rng.random() < 0.8:
            return ground, bases[:i] + bases[i + 1:]
        return ground, bases + [bases[i]]
    ground = rng.sample("abcdefg", rng.randint(1, 7))
    if rng.random() < 0.05:
        ground.append(ground[-1])
    pool = "abcdefgh" if rng.random() < 0.05 else ground
    r = rng.randint(0, min(4, len(pool)))
    count = rng.randint(1, 14) if rng.random() < 0.97 else 0
    return ground, [rng.sample(pool, r - (r > 0 and rng.random() < 0.03))
                    for _ in range(count)]


@settings(deadline=None, max_examples=400)
@given(_families())
def test_from_bases_rejects_like_the_frozenset_check(doc):
    ground, bases = doc
    assert _outcome(from_bases, ground, bases) == _outcome(set_from_bases, ground, bases)


@settings(deadline=None, max_examples=200)
@given(_bases_documents(), st.randoms(use_true_random=False))
def test_from_bases_answers_like_the_basis_scan(doc, rng):
    ground, bases = doc
    assert _outcome(from_bases, ground, bases) == _outcome(scanned_from_bases, ground, bases)
    m, scanned = from_bases(ground, bases), scanned_from_bases(ground, bases)
    for mask in [rng.getrandbits(len(ground)) for _ in range(64)]:
        assert m._indep(mask) == scanned._indep(mask), (ground, bases, mask)


def _assert_same_oracle(m, set_oracle, masks) -> None:
    for mask in masks:
        assert m._indep(mask) == set_oracle(mask_subset(m.ground, mask)), (m, mask)


def test_mask_oracles_equal_the_set_oracles_exhaustively():
    # every set of the graphic matroid of every graph on at most five
    # vertices and of random graphs on six and seven vertices with at most
    # 12 edges, of the bases documents of the same matroids, and of the
    # Vamos matroid with up to four coloops
    rng = random.Random(20)
    graphs = [SimpleGraph.from_edges(n, edges) for n in range(1, 6)
              for edges in labeled_graphs(n)]
    for _ in range(12):
        n = rng.choice((6, 7))
        pairs = list(combinations(range(n), 2))
        graphs.append(SimpleGraph.from_edges(n, rng.sample(pairs, rng.randint(7, 12))))
    cases = [(graphic_matroid(g), graphic_set_oracle(g)) for g in graphs]
    cases.append((vamos(), vamos_set_oracle))
    for coloops in range(5):
        ground, bases = vamos_bases(coloops)
        cases.append((from_bases(ground, bases), tabulated_set_oracle(bases)))
    for g in graphs:
        ground = [f"{u}-{v}" for u, v in g.sorted_edges()]
        bases = _graphic_bases(g)
        cases.append((from_bases(ground, bases), tabulated_set_oracle(bases)))
    assert max(len(m.ground) for m, _ in cases) == 12
    for m, set_oracle in cases:
        _assert_same_oracle(m, set_oracle, range(1 << len(m.ground)))


@st.composite
def _mask_matroids(draw):
    """(built-in matroid, its frozenset oracle) on up to 15 elements: the
    graphic matroid of a random graph, a bases document, or the Vamos
    matroid plus up to seven coloops."""
    kind = draw(st.sampled_from(["graphic", "bases", "vamos"]))
    if kind == "graphic":
        n = draw(st.integers(1, 7))
        pairs = list(combinations(range(n), 2))
        g = SimpleGraph.from_edges(n, draw(st.lists(st.sampled_from(pairs), unique=True,
                                                     max_size=15)) if pairs else [])
        return graphic_matroid(g), graphic_set_oracle(g)
    ground, bases = (draw(_bases_documents()) if kind == "bases"
                     else vamos_bases(draw(st.integers(0, 7))))
    return from_bases(ground, bases), tabulated_set_oracle(bases)


@settings(deadline=None, max_examples=300)
@given(_mask_matroids(), st.randoms(use_true_random=False))
def test_mask_oracles_equal_the_set_oracles(case, rng):
    m, set_oracle = case
    _assert_same_oracle(m, set_oracle, [rng.getrandbits(len(m.ground)) for _ in range(64)])


def test_vamos_minor_examples():
    assert has_vamos_minor(vamos())
    assert not has_vamos_minor(graphic_matroid(path_graph(9)))
    assert not has_vamos_minor(graphic_matroid(complete_graph(5)))
    assert not has_vamos_minor(graphic_matroid(cycle_graph(3)))  # < 8 elements


def _padded_vamos() -> Matroid:
    # vamos plus two deletable junk elements that are loops (never independent)
    base = vamos()

    def indep(sub):
        if "x" in sub or "y" in sub:
            return False
        return base.is_independent(sub)

    return Matroid(VAMOS_GROUND + ("x", "y"), indep, name="padded-vamos")


def _with_coloop(base: Matroid, z="z") -> Matroid:
    return Matroid(base.ground + (z,), lambda sub: base.is_independent(sub - {z}),
                   name=f"{base.name}+coloop")


def test_vamos_minor_survives_padding():
    assert has_vamos_minor(_padded_vamos())


def test_vamos_minor_found_through_contraction():
    # vamos plus a coloop: rank 5, so the search must contract one element
    extended = _with_coloop(vamos())
    assert extended.rank == 5
    assert has_vamos_minor(extended)


def test_vamos_minor_ground_size_guard():
    with pytest.raises(ValueError):
        has_vamos_minor(graphic_matroid(complete_graph(7)))


def test_no_vamos_minor_on_fewer_than_eight_elements():
    # the contraction sizes range(min(size - 8, rank - 4) + 1) are empty
    for n in range(8):
        for r in range(n + 1):
            assert not has_vamos_minor(Matroid(tuple(range(n)), lambda s, r=r: len(s) <= r))
    for n in range(1, 6):
        for g in connected_graphs(n):
            if len(g.edges) < 8:
                assert not has_vamos_minor(graphic_matroid(g))


def test_no_vamos_minor_in_uniform_paving():
    # rank-4 matroid on nine elements with every 4-subset independent:
    # every eight-element minor has zero dependent quadruples
    ground = tuple("abcdefghi")
    uniform = Matroid(ground, lambda s: len(s) <= 4, name="U49")
    assert uniform.rank == 4
    assert not has_vamos_minor(uniform)


def _listed(ground, dependent, rank=4) -> Matroid:
    """Sets of at most ``rank`` elements are independent unless listed in
    ``dependent``.  With rank 4 and listed four-sets that pairwise meet in
    at most two elements (the circuit-hyperplanes) this is a sparse paving
    matroid; other lists give oracles outside the matroid axioms."""
    listed = {frozenset(s) for s in dependent}
    return Matroid(ground, lambda s: len(s) <= rank and s not in listed, name="listed")


def _random_sparse_paving(rng: random.Random) -> Matroid:
    """Rank 4 on 8-10 elements: random four-sets meeting pairwise in at most
    two elements are the circuit-hyperplanes; half the time they start from
    the Vamos pattern on a random relabelling of eight elements."""
    ground = tuple(f"e{i}" for i in range(rng.randint(8, 10)))
    quads = []
    if rng.random() < 0.5:
        a, b, c, d = (set(rng.sample(ground, 2)) for _ in range(4))
        while len(a | b | c | d) < 8:
            a, b, c, d = (set(rng.sample(ground, 2)) for _ in range(4))
        quads = [a | b, a | c, b | c, a | d, b | d]
    for _ in range(rng.randint(0, 6)):
        q = set(rng.sample(ground, 4))
        if all(len(q & o) <= 2 for o in quads):
            quads.append(q)
    return _listed(ground, quads)


def _pair_unions(edges) -> list:
    """Unions of the diamond-vertex pairs of VAMOS_GROUND along ``edges``."""
    return [{f"{u}1", f"{u}2", f"{v}1", f"{v}2"} for u, v in edges]


def test_vamos_minor_matches_the_split_search():
    rng = random.Random(5)
    samples = [vamos(), _padded_vamos(), _with_coloop(vamos()),
               matroid_minor(_with_coloop(_padded_vamos()), delete=["x"]),
               matroid_minor(_with_coloop(vamos()), contract=["a1"]),
               # pair unions along a 4-cycle and along all of K4
               _listed(VAMOS_GROUND, _pair_unions(["ab", "bc", "cd", "da"])),
               _listed(VAMOS_GROUND, _pair_unions(combinations("abcd", 2))),
               Matroid(tuple("abcdefgh"), lambda s: len(s) <= 4, name="U48"),
               Matroid(tuple("abcdefghi"), lambda s: len(s) <= 4, name="U49")]
    expected = [True] * 4 + [False] * 5
    samples += [graphic_matroid(g) for n in range(1, 6) for g in connected_graphs(n)]
    for _ in range(40):
        m = _random_sparse_paving(rng)
        samples.append(_with_coloop(m) if rng.random() < 0.25 else m)
    answers = [has_vamos_minor(m) for m in samples]
    assert answers == [searched_vamos_minor(m) for m in samples]
    assert answers == [contracted_vamos_minor(m) for m in samples]
    assert answers[:len(expected)] == expected
    assert [swept_vamos_minor(m) for m in samples[:len(expected)]] == expected
    assert len(set(answers[-40:])) == 2


def test_vamos_minor_matches_the_split_search_outside_the_axioms():
    # each oracle fails one condition of the Vamos test: rank 5, a dependent
    # triple, and four pairs in two or more quads that leave elements
    # uncovered; the last two hold two disjoint quads, and either the pairs
    # (0,1), (2,3), (4,5), (6,7) split the eight but (0,1,2,4) is no union
    # of two, or every quad is a union of two pairs but (1,3) and (2,3) meet
    samples = [
        _listed(VAMOS_GROUND, VAMOS_CIRCUIT_QUADS, rank=5),
        _listed(VAMOS_GROUND, VAMOS_CIRCUIT_QUADS + (("a1", "c1", "d1"),)),
        _listed(range(8), [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5),
                           (0, 1, 6, 7), (3, 4, 6, 7)]),
        _listed(range(8), [(0, 1, 2, 3), (4, 5, 6, 7), (0, 1, 2, 4),
                           (0, 1, 4, 5), (2, 3, 6, 7)]),
        _listed(range(8), [(0, 1, 2, 3), (4, 5, 6, 7), (1, 3, 6, 7),
                           (2, 3, 4, 5), (2, 3, 6, 7)]),
    ]
    for m in samples:
        assert not has_vamos_minor(m) and not searched_vamos_minor(m)
        assert not swept_vamos_minor(m) and not contracted_vamos_minor(m)


def test_vamos_minor_matches_the_split_search_on_random_graphic():
    # six and seven vertices with 8 to 15 edges, so contractions of up to
    # two elements; the split search is too slow past 12 edges
    rng = random.Random(6)
    for n in (6, 7):
        pairs = list(combinations(range(n), 2))
        for size in range(8, 16):
            for _ in range(3):
                m = graphic_matroid(SimpleGraph.from_edges(n, rng.sample(pairs, size)))
                assert has_vamos_minor(m) == contracted_vamos_minor(m)
                if size <= 12:
                    assert has_vamos_minor(m) == searched_vamos_minor(m)


def _random_oracle(rng: random.Random) -> Matroid:
    """Sets of at most four elements listed at random as dependent, with no
    regard for the matroid axioms; half the time the Vamos quadruples of a
    random relabelling are listed too."""
    ground = tuple(range(rng.randint(8, 10)))
    listed = [rng.sample(ground, rng.choice((3, 4, 4, 4))) for _ in range(rng.randint(0, 8))]
    if rng.random() < 0.5:
        perm = dict(zip(VAMOS_GROUND, rng.sample(ground, 8)))
        listed += [[perm[e] for e in q] for q in VAMOS_CIRCUIT_QUADS]
    return _listed(ground, listed)


@settings(deadline=None, max_examples=150)
@given(st.randoms(use_true_random=True), st.booleans(), st.integers(0, 2))
def test_vamos_minor_matches_the_contracted_search_on_random_oracles(rng, sparse, coloops):
    # up to two coloops, so hits through contractions of up to two elements
    m = _random_sparse_paving(rng) if sparse else _random_oracle(rng)
    for z in ("z", "y")[:coloops]:
        m = _with_coloop(m, z)
    assert has_vamos_minor(m) == contracted_vamos_minor(m) == searched_vamos_minor(m)


def test_vamos_candidates_keep_every_vamos_restriction():
    # from the dependent triples and the quadruples without one, the
    # eight-set test yields exactly the eight-sets the direct test accepts
    rng = random.Random(8)
    hits = 0
    for _ in range(60):
        m = _random_oracle(rng)
        accepted = {eight for eight in combinations(m.ground, 8)
                    if is_vamos_restriction(m, eight)}
        bits = tuple(m._bit.values())
        triples = [t for t in map(sum, combinations(bits, 3)) if not m._independent(t)]
        quads = [q for q in map(sum, combinations(bits, 4)) if not m._independent(q)
                 and all(m._independent(q ^ b) for b in bits if q & b)]
        assert accepted == {tuple(e for e, b in m._bit.items() if b & eight)
                            for eight in _vamos_eights(m, 0, triples, quads)}
        hits += bool(accepted)
    assert hits

