"""Diagram domain types and validators."""

import json
import random
import time
from dataclasses import replace
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings, strategies as st

from bifgraph import (
    TERMINAL, ColoredTree, Diagram, DiagramError, Edge, EigenvalueSpec, EnumerationSpec, Vertex,
    builtin_table, check_cycle_parity, check_index_conservation,
    check_period_consistency, emit_diagram, enumerate_colored, index_from_eigenvalues,
    junction_periods_consistent, load_law_table, parse_diagram, period_doubling, saddle_node,
    tree_to_diagram, type_m, validate_diagram,
)
from helpers import (
    branched_cycle_parity, branched_period_consistency, constructible_diagrams,
    eager_parse_diagram, period_labelled, planted_index_fault, planted_period_fault,
    random_sn_doubling_diagram, saddle_node_cycles, searched_junction_periods, sn_chain,
    sn_cycle, split_incident, star_diagram, stepwise_index_conservation,
    stepwise_validate_diagram,
)
from bifgraph.diagram import _conservation


# -- orbit index ------------------------------------------------------------

def test_index_examples():
    assert index_from_eigenvalues(EigenvalueSpec(reals=(2.0, 0.5))) == (1, 0, -1)
    assert index_from_eigenvalues(EigenvalueSpec(reals=(0.3, 0.5))) == (0, 0, 1)
    assert index_from_eigenvalues(EigenvalueSpec(reals=(-2.0, -0.5))) == (0, 1, 0)


def test_complex_pairs_do_not_count():
    spec = EigenvalueSpec(reals=(3.0,), complex_pairs=((2.0, 1.0), (0.5, 2.0)))
    assert index_from_eigenvalues(spec) == (1, 0, -1)


def test_unit_modulus_rejected():
    with pytest.raises(ValueError):
        EigenvalueSpec(reals=(1.0,))
    with pytest.raises(ValueError):
        EigenvalueSpec(reals=(-1.0,))
    with pytest.raises(ValueError):
        EigenvalueSpec(complex_pairs=((1.0, 0.7),))


@given(st.lists(st.floats(min_value=-10, max_value=10,
                          allow_nan=False).filter(lambda r: abs(abs(r) - 1) > 1e-9),
                max_size=8))
def test_index_zero_iff_odd_negative_count(reals):
    res = index_from_eigenvalues(EigenvalueSpec(reals=tuple(reals)))
    assert res.sigma_plus == sum(1 for r in reals if r > 1)
    assert res.sigma_minus == sum(1 for r in reals if r < -1)
    if res.sigma_minus % 2 == 1:
        assert res.index == 0
    else:
        assert res.index == (-1) ** res.sigma_plus


# -- conservation -----------------------------------------------------------

def test_conservation_doubling_pass():
    d = star_diagram(1, (0, 1))
    assert check_index_conservation(d, "v") == (True, 1, 1)


def test_conservation_saddle_node_pair():
    d = star_diagram(1, (-1,))
    assert check_index_conservation(d, "v") == (True, 0, 0)


@pytest.mark.parametrize("parent", [1, -1])
def test_a_saddle_node_pairing_listed_one_way_admits_either_edge_order(parent):
    """A table that lists only ``parent -> (-parent)`` admits a saddle node
    whose two edges carry -1 and 1 in either order, and no other pair."""
    table = load_law_table({"schemaVersion": "1", "dimension": 3, "mode": "replace", "entries": [
        {"kind": "saddle_node", "parent": parent, "children": [-parent]}]})

    def saddle(first, second):
        return Diagram(3, (Edge("a", first, (TERMINAL, "v")), Edge("b", second, ("v", TERMINAL))),
                       (Vertex("v", saddle_node()),))

    for pair in ((-1, 1), (1, -1)):
        assert validate_diagram(saddle(*pair), 1, table).ok
        assert stepwise_validate_diagram(saddle(*pair), 1, table).ok
    report = validate_diagram(saddle(0, 0), 1, table)
    assert [v.message for v in report.violations] == [
        "saddle-node pair (0, 0) not admissible in dimension 3"]
    assert report == stepwise_validate_diagram(saddle(0, 0), 1, table)


def test_conservation_holds_even_for_unlawful_doubling():
    # 0 -> (0, 0) conserves; the law lookup is what rejects it
    d = star_diagram(0, (0, 0))
    assert check_index_conservation(d, "v").ok
    report = validate_diagram(d, 1, builtin_table(4))
    assert [v.code for v in report.violations] == ["law"]


def test_missing_parent_is_structural():
    with pytest.raises(DiagramError):
        Diagram(2, (Edge("p", 1, (TERMINAL, "v")),
                    Edge("c0", 0, ("v", TERMINAL)),
                    Edge("c1", 1, ("v", TERMINAL))),
                (Vertex("v", period_doubling()),))


def test_structural_errors():
    with pytest.raises(DiagramError):  # dangling endpoint
        Diagram(2, (Edge("e", 1, ("v", "w")),), (Vertex("v", saddle_node()),))
    with pytest.raises(DiagramError):  # saddle node needs degree 2
        Diagram(2, (Edge("e", 1, ("v", TERMINAL)),), (Vertex("v", saddle_node()),))
    with pytest.raises(DiagramError):  # parent edge must be incident
        Diagram(2, (Edge("p", 1, (TERMINAL, TERMINAL)),
                    Edge("a", 0, ("v", TERMINAL)),
                    Edge("b", 1, ("v", TERMINAL)),
                    Edge("c", 0, ("v", TERMINAL))),
                (Vertex("v", period_doubling(), "p"),))


def test_lookups_keep_multiplicity_and_order():
    # a doubling whose parent branch is a loop: the loop fills two slots
    loop, out = Edge("p", 1, ("v", "v")), Edge("c", 0, ("v", TERMINAL))
    sn_edges = (Edge("a", 1, ("s", TERMINAL)), Edge("b", -1, (TERMINAL, "s")))
    d = Diagram(2, (loop, out) + sn_edges,
                (Vertex("v", period_doubling(), "p"), Vertex("s", saddle_node())))
    assert d.incident_edges("v") == [loop, loop, out]
    assert d.child_edges(d.vertex("v")) == [loop, out]
    assert d.child_edges(d.vertex("s")) == list(sn_edges)
    assert d.degree("v") == 3 and d.degree("s") == 2
    assert d.incident_edges("nowhere") == [] and d.degree("nowhere") == 0
    assert d.edge("c") is out
    with pytest.raises(KeyError):
        d.edge("nowhere")
    with pytest.raises(KeyError):
        d.vertex("nowhere")
    _split_as_the_oracle_splits(d)


def _split_as_the_oracle_splits(d: Diagram):
    """Each vertex's stored split holds the oracle's edges, in its order,
    and the lookups hand out copies of it."""
    for v in d.vertices:
        parent, kids = split_incident(v, d.incident_edges(v.id))
        got = d.child_edges(v)
        assert len(got) == len(kids) and all(a is b for a, b in zip(got, kids))
        assert check_index_conservation(d, v.id) == _conservation(parent, [e.index for e in kids])
        got.clear()
        assert d.child_edges(v) == kids and len(d.incident_edges(v.id)) == v.kind.degree


@given(constructible_diagrams())
def test_the_stored_split_is_the_oracle_split(d):
    _split_as_the_oracle_splits(d)


# -- cycle parity -----------------------------------------------------------

def test_triangle_of_saddle_nodes_fails_in_dimension_two():
    checks = check_cycle_parity(sn_cycle(2, [1, -1, 1]))
    assert len(checks) == 1 and not checks[0].ok


def test_zero_triangle_passes_in_dimension_three():
    checks = check_cycle_parity(sn_cycle(3, [0, 0, 0]))
    assert all(c.ok for c in checks)


def test_alternating_even_cycle_passes_in_dimension_two():
    checks = check_cycle_parity(sn_cycle(2, [1, -1, 1, -1]))
    assert all(c.ok for c in checks)


def test_non_alternating_even_cycle_fails_in_dimension_two():
    checks = check_cycle_parity(sn_cycle(2, [1, 1, -1, -1]))
    assert not all(c.ok for c in checks)


def test_parallel_pair_counts_as_two_cycle():
    d = Diagram(2, (Edge("a", 1, ("u", "w")), Edge("b", -1, ("u", "w"))),
                (Vertex("u", saddle_node()), Vertex("w", saddle_node())))
    checks = check_cycle_parity(d)
    assert len(checks) == 1 and checks[0].ok


def test_cycles_with_other_kinds_are_unconstrained():
    # doubling vertices on the cycle: parity says nothing
    edges = (Edge("a", 1, ("u", "w")), Edge("b", 0, ("u", "w")),
             Edge("c", 1, ("u", TERMINAL)), Edge("d", 1, ("w", TERMINAL)))
    d = Diagram(2, edges, (Vertex("u", period_doubling(), "c"),
                           Vertex("w", period_doubling(), "d")))
    assert check_cycle_parity(d) == []


def test_cycle_walk_matches_simple_cycle_oracle():
    rng = random.Random(2)
    for _ in range(400):
        d = random_sn_doubling_diagram(rng)
        got = [(c.edge_ids, c.vertex_ids) for c in check_cycle_parity(d)]
        assert got == saddle_node_cycles(d), d


def test_long_saddle_node_ring_validates():
    ring = sn_cycle(2, [1, -1] * 600)
    checks = check_cycle_parity(ring)
    assert len(checks) == 1 and checks[0].ok and len(checks[0].edge_ids) == 1200
    assert validate_diagram(ring, 1, builtin_table(2)).ok


def test_long_saddle_node_chain_validates():
    n = 1200
    ends = [TERMINAL] + [f"v{i}" for i in range(n)] + [TERMINAL]
    edges = tuple(Edge(f"e{i}", (1, -1)[i % 2], (ends[i], ends[i + 1]))
                  for i in range(n + 1))
    chain = Diagram(3, edges, tuple(Vertex(f"v{i}", saddle_node()) for i in range(n)))
    assert check_cycle_parity(chain) == []
    assert validate_diagram(chain, 1, builtin_table(3)).ok


# -- period consistency -----------------------------------------------------

def test_doubling_periods_pass():
    d = star_diagram(1, (0, 1), parent_period=3, child_periods=(3, 6))
    report = check_period_consistency(d)
    assert report.applicable and report.ok


def test_saddle_node_period_mismatch():
    d = star_diagram(1, (-1,), parent_period=2, child_periods=(4,))
    report = check_period_consistency(d)
    assert not report.ok
    assert report.violations[0].edge_pair == ("p", "c0")


def test_multiplying_periods():
    ok = star_diagram(1, (1, -1, 1), parent_period=2, child_periods=(2, 6, 6), m=3)
    assert check_period_consistency(ok).ok
    bad = star_diagram(1, (1, -1, 1), parent_period=2, child_periods=(2, 6, 4), m=3)
    assert not check_period_consistency(bad).ok


def test_partial_labeling_is_ambiguous():
    d = star_diagram(1, (0, 1), parent_period=3, child_periods=(3, None))
    with pytest.raises(ValueError):
        check_period_consistency(d)


def test_unlabeled_diagram_not_applicable():
    report = check_period_consistency(star_diagram(1, (0, 1)))
    assert not report.applicable and report.ok


def test_junction_period_decompositions():
    # chain of doublings: 1 -> {1,2} -> {1,2,4} -> {1,2,4,8}
    assert junction_periods_consistent(1, (1, 2, 4, 8))
    assert junction_periods_consistent(1, (1, 2, 2, 2))
    # chain of multiplications: 1 -> {1,3,3} -> {1,3,3,9,9}
    assert junction_periods_consistent(1, (1, 3, 3, 9, 9))
    assert not junction_periods_consistent(1, (1, 2, 3, 5))
    assert not junction_periods_consistent(2, (1, 2, 4, 8))


def test_junction_period_decompositions_at_scale():
    start = time.monotonic()
    # a twelve-way split with a genuine doubling tree behind it
    assert junction_periods_consistent(1, (1, 2, 2, 4, 4, 4, 8, 8, 8, 8, 16, 32))
    # twelve leaves can never come from a multiplication chain (odd counts
    # only), and these are not doubling-shaped either
    assert not junction_periods_consistent(
        1, (1, 3, 3, 9, 9, 9, 9, 27, 27, 27, 27, 81))
    assert not junction_periods_consistent(1, tuple(range(1, 13)))
    # thirteen leaves: six three-way events
    assert junction_periods_consistent(
        1, (1, 3, 3, 9, 9, 9, 9, 27, 27, 27, 27, 81, 81))
    # mixed multipliers per event are allowed
    assert junction_periods_consistent(1, (1, 3, 3, 15, 15))
    # the surviving chain keeps exactly one leaf at the root period
    assert not junction_periods_consistent(1, (1, 1, 2))
    assert time.monotonic() - start < 2


@pytest.mark.parametrize("p", [1, 2])
def test_junction_periods_match_the_decomposition_search(p):
    for size in range(7):
        for periods in combinations_with_replacement(range(1, 9 * p + 1), size):
            assert junction_periods_consistent(p, periods) == \
                searched_junction_periods(p, periods), (p, periods)


@st.composite
def _event_chains(draw):
    """Root period and leaf periods of a chain of doublings (up to eight
    leaves) or of m-fold events (up to nine)."""
    p = draw(st.integers(1, 4))
    multiplying = draw(st.booleans())
    leaves = [p]
    for _ in range(draw(st.integers(0, 4 if multiplying else 7))):
        q = draw(st.sampled_from(leaves))
        leaves += [draw(st.integers(3, 6)) * q] * 2 if multiplying else [2 * q]
    return p, draw(st.permutations(leaves))


@settings(deadline=None, max_examples=200)
@given(_event_chains(), st.data())
def test_event_chains_and_their_one_leaf_perturbations(chain, data):
    p, leaves = chain
    assert junction_periods_consistent(p, leaves)
    i = data.draw(st.integers(0, len(leaves) - 1))
    new = data.draw(st.integers(1, 2 * max(leaves)))
    op = data.draw(st.sampled_from(["replace", "drop", "add"] if len(leaves) < 9
                                   else ["replace", "drop"]))
    changed = {"replace": leaves[:i] + [new] + leaves[i + 1:],
               "drop": leaves[:i] + leaves[i + 1:],
               "add": leaves + [new]}[op]
    assert junction_periods_consistent(p, changed) == searched_junction_periods(p, changed)


def test_invalid_19_leaf_junction_is_decided_fast():
    # the decomposition search took about 48 s on this junction
    periods = (1, 3, 3, 9, 9, 27, 27, 81, 81, 3, 3, 9, 9, 27, 27, 81, 81, 5, 7)
    d = star_diagram(1, (1,) + (0,) * 18, parent_period=1, child_periods=periods)
    start = time.monotonic()
    report = validate_diagram(d, 18, builtin_table(4))
    assert time.monotonic() - start < 2
    assert [(v.code, v.vertex_id) for v in report.violations] == [("period", "v")]


def test_valid_41_leaf_multiplication_junction():
    leaves = [1]
    for m in range(3, 23):  # twenty events, each on the newest leaf
        leaves += [m * leaves[-1]] * 2
    d = star_diagram(1, (1,) * 21 + (-1,) * 20, parent_period=1,
                     child_periods=leaves, dimension=2)
    start = time.monotonic()
    assert validate_diagram(d, 40, builtin_table(2)).ok
    assert time.monotonic() - start < 2


def test_null_multiplier_does_not_hide_other_period_violations():
    # a bad doubling 3 -> {3, 9} above a type_m vertex with no multiplier
    edges = (Edge("p", 1, (TERMINAL, "a"), 3),
             Edge("c0", 0, ("a", TERMINAL), 3),
             Edge("c1", 1, ("a", "b"), 9),
             Edge("d0", 1, ("b", TERMINAL), 9),
             Edge("d1", -1, ("b", TERMINAL), 27),
             Edge("d2", 1, ("b", TERMINAL), 27))
    d = Diagram(2, edges, (Vertex("a", period_doubling(), "p"),
                           Vertex("b", type_m(), "c1")))
    report = validate_diagram(d, 2, builtin_table(2))
    assert [(v.code, v.vertex_id, v.edge_ids) for v in report.violations] == [
        ("period", "a", ("p", "c0")), ("period", "b", ("c1", "d0"))]
    assert report.violations[1].message == \
        "vertex 'b': type_m multiplier required to check periods"


def test_junction_vertex_period_check():
    good = star_diagram(1, (1, 0, 0, 0), parent_period=1, child_periods=(8, 1, 2, 4))
    assert check_period_consistency(good).ok
    bad = star_diagram(1, (1, 0, 0, 0), parent_period=1, child_periods=(1, 2, 3, 4))
    assert not check_period_consistency(bad).ok


# -- full validation --------------------------------------------------------

def test_validate_type_m_zero_split_in_dimension_four():
    d = star_diagram(0, (0, -1, 1), dimension=4)
    assert validate_diagram(d, 2, builtin_table(4)).ok


def test_validate_rejects_doubling_from_minus_one_in_dimension_two():
    d = star_diagram(-1, (-1, 0), dimension=2)
    report = validate_diagram(d, 1, builtin_table(2))
    assert not report.ok
    assert any(v.code == "law" for v in report.violations)


def test_validate_empty_diagram():
    assert validate_diagram(Diagram(2, (), ()), 1, builtin_table(2)).ok


def test_validate_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        validate_diagram(Diagram(2, (), ()), 1, builtin_table(3))


def test_degree_bound_depends_on_k():
    d = star_diagram(1, (1, -1, 1), dimension=2)  # vertex degree 4
    assert not validate_diagram(d, 1, builtin_table(2)).ok
    assert validate_diagram(d, 2, builtin_table(2)).ok


def test_validity_is_monotone_in_k():
    d = star_diagram(1, (0, 1), dimension=3)
    for k in (1, 2, 3, 5):
        assert validate_diagram(d, k, builtin_table(3)).ok


def test_validity_is_monotone_in_dimension():
    from bifgraph import EnumerationSpec, enumerate_colored, tree_to_diagram
    for d in (1, 2, 3):
        for n in range(1, 6):
            for t in enumerate_colored(EnumerationSpec(2, d, n)):
                diagram = tree_to_diagram(t, d)
                assert validate_diagram(diagram, 2, builtin_table(d)).ok
                lifted = Diagram(d + 1, diagram.edges, diagram.vertices)
                assert validate_diagram(lifted, 2, builtin_table(d + 1)).ok


# -- the one-pass parser and validator against the stepwise ones --------------

def _same_as_the_oracles(diagram: Diagram, k: int) -> tuple:
    """Check parse and validate against the stepwise oracles on ``diagram``
    and on its emitted document; returns the violation codes."""
    table = builtin_table(diagram.dimension)
    report = validate_diagram(diagram, k, table)
    assert report == stepwise_validate_diagram(diagram, k, table)
    for v in diagram.vertices:
        assert check_index_conservation(diagram, v.id) == stepwise_index_conservation(diagram, v.id)
    text = emit_diagram(diagram)
    parsed = parse_diagram(text)
    assert parsed == eager_parse_diagram(text) == parse_diagram(json.loads(text))
    assert validate_diagram(parsed, k, table) == stepwise_validate_diagram(parsed, k, table)
    return tuple(v.code for v in report.violations)


def _has_junction(tree: ColoredTree) -> bool:
    stack = [tree]
    while stack:
        node = stack.pop()
        if len(node.children) >= 4:
            return True
        stack += node.children
    return False


def _tree_cases(rng):
    for d in range(1, 5):
        for k in range(1, 5):
            for n in range(1, 7 if k <= 2 else 6):
                trees = enumerate_colored(EnumerationSpec(k, d, n))
                junctions = [t for t in trees if _has_junction(t)]
                for t in (rng.sample(trees, min(12, len(trees)))
                          + rng.sample(junctions, min(4, len(junctions)))):
                    diagram = tree_to_diagram(t, d)
                    yield diagram, k
                    yield diagram, rng.randint(1, 4)
                    yield planted_index_fault(rng, diagram), k
                    yield Diagram(d, tuple(Edge(e.id, rng.choice((-1, 0, 1)), e.ends)
                                           for e in diagram.edges), diagram.vertices), k
                    if n >= 3:
                        labelled = period_labelled(rng, diagram)
                        yield labelled, k
                        yield planted_period_fault(rng, labelled), k


def _saddle_node_cases(rng):
    for d in range(1, 5):
        for n in range(1, 10):
            alternating = [(-1) ** i for i in range(n)]
            for colors in (alternating, [0] * n, [rng.choice((-1, 0, 1)) for _ in range(n)]):
                yield sn_cycle(d, colors), 1
                yield planted_index_fault(rng, sn_cycle(d, colors)), 1
                yield sn_chain(d, colors), 1
                yield planted_index_fault(rng, sn_chain(d, colors)), 1


def _special_cases(rng):
    for d in range(1, 5):
        yield star_diagram(1, (1, -1, 1), 1, (1, 3, 3), dimension=d), 2  # type_m, m null
        yield star_diagram(1, (1, -1, 1), 1, (1, 3, 3), dimension=d, m=3), 2
        yield star_diagram(1, (0, 1), 1, None, dimension=d), 1  # partial periods
        yield star_diagram(1, (0, 1), None, (1, 2), dimension=d), 1
        yield star_diagram(0, (-1, 0, 1, 0), dimension=d), 2  # junction, three indices
        yield star_diagram(0, (-1, 0, 1, 0), dimension=d), 1
        # a saddle-node loop, a doubling whose parent branch is a loop, and
        # a parallel saddle pair next to a chain
        yield Diagram(d, (Edge("e", 0, ("v", "v")),), (Vertex("v", saddle_node()),)), 1
        yield Diagram(d, (Edge("p", 1, ("v", "v"), 1), Edge("c", 0, ("v", TERMINAL), 2)),
                      (Vertex("v", period_doubling(), "p"),)), 1
        yield Diagram(d, (Edge("a", 1, ("u", "w")), Edge("b", -1, ("w", "u")),
                          Edge("c", 1, (TERMINAL, "x")), Edge("e", 1, ("x", TERMINAL))),
                      (Vertex("w", saddle_node()), Vertex("u", saddle_node()),
                       Vertex("x", saddle_node()))), 1
    for _ in range(200):
        yield random_sn_doubling_diagram(rng), rng.randint(1, 2)


@pytest.mark.parametrize("cases", [_tree_cases, _saddle_node_cases, _special_cases])
def test_one_pass_parse_and_validate_equal_the_stepwise_oracles(cases):
    codes = set()
    for diagram, k in cases(random.Random(13)):
        codes.update(_same_as_the_oracles(diagram, k))
    # the generated cases reach every violation code their family can raise
    assert codes >= {
        _tree_cases: {"degree_bound", "conservation", "law", "junction_two_index", "period"},
        _saddle_node_cases: {"conservation", "law", "cycle_parity"},
        _special_cases: {"conservation", "law", "junction_two_index", "cycle_parity",
                         "period", "period_partial"},
    }[cases]


_colored_trees = st.recursive(
    st.builds(ColoredTree, st.sampled_from((-1, 0, 1))),
    lambda inner: st.builds(ColoredTree, st.sampled_from((-1, 0, 1)),
                            st.lists(inner, min_size=1, max_size=5).map(tuple)),
    max_leaves=12)


@st.composite
def _diagrams(draw):
    d = draw(st.integers(1, 4))
    diagram = tree_to_diagram(draw(_colored_trees), d)
    periods = draw(st.sampled_from(("none", "some", "all")))
    if periods != "none":
        edges = tuple(Edge(e.id, e.index, e.ends,
                           draw(st.integers(1, 8) if periods == "all"
                                else st.none() | st.integers(1, 8)))
                      for e in diagram.edges)
        diagram = Diagram(d, edges, diagram.vertices)
    return diagram


@settings(deadline=None, max_examples=300)
@given(st.one_of(_diagrams(), st.randoms(use_true_random=False).map(random_sn_doubling_diagram)),
       st.integers(1, 4))
def test_one_pass_validate_equals_the_stepwise_oracle_on_random_diagrams(diagram, k):
    _same_as_the_oracles(diagram, k)


# -- the cycle and period rules against their three-branch forms --------------

def test_cycle_rule_equals_the_branched_rule_on_every_short_cycle():
    reasons = set()
    for d in range(1, 5):
        for length in range(1, 8):
            for colors in product((-1, 0, 1), repeat=length):
                cycle = sn_cycle(d, colors)
                checks = check_cycle_parity(cycle)
                assert checks == branched_cycle_parity(cycle), (d, colors)
                reasons.update(c.reason for c in checks)
    assert len(reasons) == 5  # every outcome of both dimension ranges


@st.composite
def _period_cases(draw):
    """A tree's diagram with lawful periods, or any diagram that
    constructs, with up to three edges then given another period or none."""
    if draw(st.booleans()):
        tree = tree_to_diagram(draw(_colored_trees), draw(st.integers(1, 4)))
        diagram = period_labelled(draw(st.randoms(use_true_random=False)), tree)
    else:
        diagram = draw(constructible_diagrams())
    edges = list(diagram.edges)
    if edges:
        for i in draw(st.lists(st.integers(0, len(edges) - 1), max_size=3)):
            edges[i] = replace(edges[i], period=draw(st.sampled_from((None, 1, 2, 3, 4, 6, 8))))
    return Diagram(diagram.dimension, tuple(edges), diagram.vertices)


def _period_outcome(check, diagram):
    try:
        return check(diagram)
    except ValueError as exc:
        return str(exc)


@settings(deadline=None, max_examples=300)
@given(_period_cases())
def test_period_rule_equals_the_branched_rule(diagram):
    assert (_period_outcome(check_period_consistency, diagram)
            == _period_outcome(branched_period_consistency, diagram))
