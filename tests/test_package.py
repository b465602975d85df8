"""The package namespace: which submodules an import loads, and the names
``bifgraph`` exports.

``import bifgraph`` loads no submodule; each loads on the first lookup of
one of its names (PEP 562).  What an import loads is checked in a fresh
interpreter, since this one has loaded every module already.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bifgraph

MODULES = ("classes", "cli", "diagram", "documents", "enumeration", "graphs", "laws",
           "matroids", "represent", "spanning", "trees")

# the names ``from bifgraph import *`` bound before the submodules loaded lazily
STAR_NAMES = (
    "laws", "diagram", "TERMINAL", "ConservationCheck", "Diagram", "DiagramError", "Edge",
    "EigenvalueSpec", "IndexResult", "ValidationReport", "Vertex", "Violation",
    "check_cycle_parity", "check_index_conservation", "check_period_consistency",
    "index_from_eigenvalues", "junction_periods_consistent", "validate_diagram", "COLOR_OF",
    "INDEX_VALUES", "BifurcationKind", "LawEntry", "LawTable", "builtin_table", "junction",
    "kind_for_child_count", "period_doubling", "saddle_node", "splits_for_child_count",
    "type_m", "graphs", "trees",
    "EnumerationLimitError", "TreeMode", "canonical_form", "canonical_trees",
    "count_kary_formula", "count_shapes", "enumerate_shapes", "free_trees", "is_binary",
    "mary_to_binary", "ordered_trees", "slot_trees", "strip_slots", "tree_size",
    "enumeration", "ColoredTree", "EnumerationSpec", "count_colored",
    "count_sequence", "enumerate_colored", "project_uncolored", "ratio_lower_bound",
    "ratio_sequence", "shape_coverage", "share_sequence", "tree_to_diagram", "SimpleGraph",
    "all_graphs", "complete_graph", "connected_graphs", "cycle_graph", "diamond_graph",
    "graphs_isomorphic", "path_graph", "star_graph", "classes", "represent",
    "block_intersection_graph", "line_graph", "to_clique", "to_star", "BlockDecomposition",
    "block_decomposition", "cactus_count", "has_diamond_minor", "has_diamond_subgraph",
    "has_induced_diamond", "husimi_count", "is_block_graph", "is_block_graph_by_obstructions",
    "is_cactus", "is_chordal", "is_claw_free", "triangular_cactus_count", "spanning",
    "laplacian", "spanning_count_edges", "spanning_count_kirchhoff",
    "spanning_enumerate_brute", "tutte_11", "matroids", "Matroid", "from_bases",
    "graphic_matroid", "has_vamos_minor", "matroid_minor", "vamos", "documents",
    "SchemaError", "emit_diagram", "emit_dot", "emit_graph", "load_law_table",
    "nonadmissible_period_fixture", "parse_diagram", "parse_graph", "parse_matroid",
    "parse_tree",
)


def loaded_after(code: str) -> set[str]:
    """The bifgraph modules in ``sys.modules`` after a fresh interpreter
    runs ``code``, without the ``bifgraph.`` prefix."""
    report = ("\nimport json, sys\n"
              "print(json.dumps([m for m in sys.modules if m.startswith('bifgraph')]))")
    env = {**os.environ, "PYTHONPATH": str(Path(bifgraph.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-c", code + report], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return {name.removeprefix("bifgraph.") for name in json.loads(done.stdout)}


def test_import_loads_no_submodule():
    assert loaded_after("import bifgraph") == {"bifgraph"}


def test_a_lookup_loads_only_its_submodule():
    assert loaded_after("import bifgraph\nbifgraph.builtin_table(4)") == {"bifgraph", "laws"}


def test_the_cli_loads_every_module():
    assert loaded_after("import bifgraph.cli") == {"bifgraph", *MODULES}


def test_the_cli_loads_every_module_with_a_functools_cache():
    # benchmarks/run.py empties the caches it finds once bifgraph.cli is imported
    cached = {name for name in MODULES
              if any(hasattr(value, "cache_clear")
                     for value in vars(importlib.import_module(f"bifgraph.{name}")).values())}
    assert cached and cached <= loaded_after("import bifgraph.cli")


def test_star_import_binds_the_pinned_names():
    namespace: dict = {}
    exec("from bifgraph import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(STAR_NAMES)
    assert sorted(bifgraph.__all__) == sorted(STAR_NAMES)


def test_each_name_is_its_submodules_object():
    for name in bifgraph.__all__:
        owner = bifgraph._OWNER[name]
        module = importlib.import_module(f"bifgraph.{owner}")
        assert getattr(bifgraph, name) is (module if name == owner else getattr(module, name))


def test_a_lookup_binds_the_name():
    bifgraph.Diagram
    assert vars(bifgraph)["Diagram"] is bifgraph.diagram.Diagram


def test_dir_lists_every_public_name():
    assert set(bifgraph.__all__) <= set(dir(bifgraph))
    assert "__version__" in dir(bifgraph)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'bifgraph' has no attribute 'nosuch'$"):
        bifgraph.nosuch
    assert not hasattr(bifgraph, "nosuch")


def test_version():
    assert bifgraph.__version__ == "0.1.0"
