"""bifgraph: colored-graph models of periodic-orbit bifurcation diagrams.

The package models bifurcation diagrams as index-colored multigraphs,
validates them against dimension-specific admissibility laws, enumerates
the admissible colored-tree families exactly, and ships the supporting
graph and matroid machinery (star/clique representations, class detectors,
counting formulas, spanning-tree counts, Vamos-minor tests) together with
brute-force oracles for every closed form.
"""

from .diagram import (
    TERMINAL, ConservationCheck, Diagram, DiagramError, Edge, EigenvalueSpec,
    IndexResult, ValidationReport, Vertex, Violation, check_cycle_parity,
    check_index_conservation, check_period_consistency, index_from_eigenvalues,
    junction_periods_consistent, validate_diagram,
)
from .laws import (
    COLOR_OF, INDEX_VALUES, BifurcationKind, LawEntry, LawTable,
    allowed_child_multisets, builtin_table, is_admissible_star,
    junction, kind_for_child_count, period_doubling,
    saddle_node, splits_for_child_count, type_m,
)
from .trees import (
    EnumerationLimitError, TreeMode, canonical_form, canonical_trees,
    count_kary_formula, count_shapes, enumerate_shapes, free_trees, is_binary,
    mary_to_binary, ordered_trees, slot_trees, strip_slots, tree_size,
)
from .enumeration import (
    ColoredTree, CountTable, EnumerationSpec, count_colored, count_sequence,
    enumerate_colored, project_uncolored, ratio_lower_bound, ratio_sequence,
    shape_coverage, share_sequence, tree_to_diagram,
)
from .graphs import (
    SimpleGraph, all_graphs, complete_graph, connected_graphs, cycle_graph,
    diamond_graph, graphs_isomorphic, path_graph, star_graph,
)
from .represent import block_intersection_graph, line_graph, to_clique, to_star
from .classes import (
    BlockDecomposition, block_decomposition, cactus_count, has_diamond_minor,
    has_diamond_subgraph, has_induced_diamond, husimi_count, is_block_graph,
    is_block_graph_by_obstructions, is_cactus, is_chordal, is_claw_free,
    triangular_cactus_count,
)
from .spanning import (
    laplacian, spanning_count_edges, spanning_count_kirchhoff,
    spanning_enumerate_brute, tutte_11,
)
from .matroids import (
    Matroid, from_bases, graphic_matroid, has_vamos_minor, matroid_minor, vamos,
)
from .documents import (
    SchemaError, emit_diagram, emit_dot, emit_graph, load_law_table,
    nonadmissible_period_fixture, parse_diagram, parse_graph, parse_matroid, parse_tree,
)

__version__ = "0.1.0"
