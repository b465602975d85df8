"""bifgraph: colored-graph models of periodic-orbit bifurcation diagrams.

The package models bifurcation diagrams as index-colored multigraphs,
validates them against dimension-specific admissibility laws, enumerates
the admissible colored-tree families exactly, and ships the supporting
graph and matroid machinery (star/clique representations, class detectors,
counting formulas, spanning-tree counts, Vamos-minor tests) together with
brute-force oracles for every closed form.

Each submodule is imported on first use of one of its names (PEP 562), so
``import bifgraph`` alone loads none of them.
"""

# the public names of each submodule, which the package re-exports
_EXPORTS = {
    "diagram": """TERMINAL ConservationCheck Diagram DiagramError Edge EigenvalueSpec
        IndexResult ValidationReport Vertex Violation check_cycle_parity
        check_index_conservation check_period_consistency index_from_eigenvalues
        junction_periods_consistent validate_diagram""",
    "laws": """COLOR_OF INDEX_VALUES BifurcationKind LawEntry LawTable builtin_table junction
        kind_for_child_count period_doubling saddle_node splits_for_child_count type_m""",
    "trees": """EnumerationLimitError TreeMode canonical_form canonical_trees
        count_kary_formula count_shapes enumerate_shapes free_trees is_binary
        mary_to_binary ordered_trees slot_trees strip_slots tree_size""",
    "enumeration": """ColoredTree EnumerationSpec count_colored count_sequence
        enumerate_colored project_uncolored ratio_lower_bound ratio_sequence
        shape_coverage share_sequence tree_to_diagram""",
    "graphs": """SimpleGraph all_graphs complete_graph connected_graphs cycle_graph
        diamond_graph graphs_isomorphic path_graph star_graph""",
    "represent": "block_intersection_graph line_graph to_clique to_star",
    "classes": """BlockDecomposition block_decomposition cactus_count has_diamond_minor
        has_diamond_subgraph has_induced_diamond husimi_count is_block_graph
        is_block_graph_by_obstructions is_cactus is_chordal is_claw_free
        triangular_cactus_count""",
    "spanning": """laplacian spanning_count_edges spanning_count_kirchhoff
        spanning_enumerate_brute tutte_11""",
    "matroids": "Matroid from_bases graphic_matroid has_vamos_minor matroid_minor vamos",
    "documents": """SchemaError emit_diagram emit_dot emit_graph load_law_table
        nonadmissible_period_fixture parse_diagram parse_graph parse_matroid parse_tree""",
}
# each public name, the submodules included, to the submodule that defines it
_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in (module, *names.split())}

__all__ = list(_OWNER)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the submodule that owns ``name`` and bind ``name`` here, so
    later lookups do not come back."""
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = import_module(f"{__name__}.{module}")
    value = value if name == module else getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
