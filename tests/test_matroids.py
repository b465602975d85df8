"""Graphic matroids, the Vamos matroid, minors, axiom checks."""

import random
from itertools import combinations

import pytest

from bifgraph import (
    Matroid, SimpleGraph, complete_graph, cycle_graph, from_bases,
    graphic_matroid, has_vamos_minor, matroid_minor, path_graph, vamos,
)
from bifgraph.matroids import VAMOS_CIRCUIT_QUADS, VAMOS_GROUND
from helpers import random_connected_graph


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
    assert v.rank == 4
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


def test_vamos_minor_examples():
    assert has_vamos_minor(vamos())
    assert not has_vamos_minor(graphic_matroid(path_graph(9)))
    assert not has_vamos_minor(graphic_matroid(complete_graph(5)))
    assert not has_vamos_minor(graphic_matroid(cycle_graph(3)))  # < 8 elements


def test_vamos_minor_survives_padding():
    # vamos plus two deletable junk elements that are loops (never independent)
    ground = VAMOS_GROUND + ("x", "y")
    base = vamos()

    def indep(sub):
        if "x" in sub or "y" in sub:
            return False
        return base.is_independent(sub)

    padded = Matroid(ground, indep, name="padded-vamos")
    assert has_vamos_minor(padded)


def test_vamos_minor_found_through_contraction():
    # vamos plus a coloop: rank 5, so the search must contract one element
    ground = VAMOS_GROUND + ("z",)
    base = vamos()

    def indep(sub):
        return base.is_independent(sub - {"z"})

    extended = Matroid(ground, indep, name="vamos+coloop")
    assert extended.rank == 5
    assert has_vamos_minor(extended)


def test_vamos_minor_ground_size_guard():
    with pytest.raises(ValueError):
        has_vamos_minor(graphic_matroid(complete_graph(7)))


def test_no_vamos_minor_in_uniform_paving():
    # rank-4 matroid on nine elements with every 4-subset independent:
    # every eight-element minor has zero dependent quadruples
    ground = tuple("abcdefghi")
    uniform = Matroid(ground, lambda s: len(s) <= 4, name="U49")
    assert uniform.rank == 4
    assert not has_vamos_minor(uniform)
