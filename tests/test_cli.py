"""End-to-end checks of the command-line surface."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from enum import IntEnum
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bifgraph
from bifgraph import (
    DiagramError, SchemaError, count_kary_formula, count_sequence, emit_diagram,
    load_law_table, nonadmissible_period_fixture, parse_diagram,
)
from bifgraph.cli import COMMANDS, _fractions, _run, build_parser, main
from bifgraph.documents import kind_from_json
from helpers import (
    chunked_digits, csv_written_counts, diagram_trees_dot, dumped_trees_json,
    eager_parse_diagram, star_diagram,
)


DATA = Path(__file__).parent / "data"
README = Path(__file__).parent.parent / "README.md"


@pytest.fixture()
def fixture_file(tmp_path):
    path = tmp_path / "bad_periods.json"
    path.write_text(emit_diagram(nonadmissible_period_fixture()))
    return str(path)


@pytest.fixture()
def valid_file(tmp_path):
    path = tmp_path / "doubling.json"
    path.write_text(emit_diagram(star_diagram(1, (0, 1), dimension=2)))
    return str(path)


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "k4.json"
    path.write_text(json.dumps({
        "vertexCount": 4,
        "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]}))
    return str(path)


def test_validate_exit_codes(capsys, fixture_file, valid_file):
    assert main(["validate", valid_file, "--k", "1"]) == 0
    assert "valid" in capsys.readouterr().out
    assert main(["validate", fixture_file, "--k", "1"]) == 1
    out = capsys.readouterr().out
    assert "period" in out


def test_validate_json_is_deterministic(capsys, fixture_file):
    main(["validate", fixture_file, "--json"])
    first = capsys.readouterr().out
    main(["validate", fixture_file, "--json"])
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["valid"] is False
    assert payload["violations"][0]["code"] == "period"


def test_validate_json_multi_cycle_fixture(capsys):
    # expected output recorded from the recursive simple-cycle search that
    # preceded the component walk; cycle order must not change
    assert main(["validate", str(DATA / "multi_cycle.json"), "--json"]) == 1
    assert capsys.readouterr().out == (DATA / "multi_cycle_validate.json").read_text()


def test_validate_schema_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schemaVersion": "1"}')
    assert main(["validate", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_enumerate_counts_csv(capsys):
    assert main(["enumerate", "--k", "1", "--d", "4", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "k,d,n,mode,count"
    assert "1,4,4,plane,60" in out


def test_enumerate_csv_alias_and_dot(capsys):
    assert main(["enumerate", "--k", "1", "--d", "4", "--n", "3",
                 "--emit", "csv"]) == 0
    assert "1,4,3,plane,18" in capsys.readouterr().out
    assert main(["enumerate", "--k", "1", "--d", "2", "--n", "2",
                 "--mode", "free", "--emit", "dot"]) == 0
    dot = capsys.readouterr().out
    assert dot.count("graph t") == 2 and "color=red" in dot


def test_enumerate_json_trees(capsys):
    assert main(["enumerate", "--k", "1", "--d", "2", "--n", "2",
                 "--mode", "free", "--emit", "json"]) == 0
    trees = json.loads(capsys.readouterr().out)
    assert len(trees) == 2
    assert {t["color"] for t in trees} == {-1, 1}


def test_enumerate_respects_limit(capsys):
    assert main(["enumerate", "--k", "2", "--d", "4", "--n", "8",
                 "--emit", "json", "--limit", "10"]) == 2


def test_enumerate_env_limit(capsys, monkeypatch):
    monkeypatch.setenv("BIFGRAPH_LIMIT", "5")
    assert main(["enumerate", "--k", "2", "--d", "4", "--n", "6",
                 "--emit", "json"]) == 2


def test_bad_env_limit_exits_two_naming_the_variable(capsys, monkeypatch):
    monkeypatch.setenv("BIFGRAPH_LIMIT", "abc")
    assert main(["enumerate", "--k", "1", "--d", "1", "--n", "3", "--emit", "json"]) == 2
    assert capsys.readouterr().err == "error: BIFGRAPH_LIMIT: 'abc' is not an integer\n"
    # --limit overrides the variable, which is then never read
    assert main(["enumerate", "--k", "1", "--d", "1", "--n", "3", "--emit", "json",
                 "--limit", "10"]) == 0


def test_counts_ignore_env_limit(capsys, monkeypatch):
    # counts list nothing, so the cap is not read
    monkeypatch.setenv("BIFGRAPH_LIMIT", "abc")
    assert main(["enumerate", "--k", "1", "--d", "1", "--n", "3"]) == 0
    assert capsys.readouterr().out.startswith("k,d,n,mode,count")


def test_enumerate_free_limit_uses_the_colored_count(capsys):
    # 64 colored trees, though the free shapes on 12 nodes number 983
    assert main(["enumerate", "--k", "1", "--d", "1", "--n", "12", "--mode", "free",
                 "--emit", "json", "--limit", "100"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 64


# stdout recorded with the memoized top-down plane counts and the
# enumeration-backed free counts that preceded the bottom-up table
COUNT_CASES = json.loads((DATA / "count_cli.json").read_text())


@pytest.mark.parametrize("n, digits", [(5192, 4300), (5193, 4301)])
def test_count_prints_counts_on_both_sides_of_the_digit_cap(n, digits, capsys):
    # str(int) stops at sys.get_int_max_str_digits(), 4,300 digits by default
    want = chunked_digits(count_kary_formula(3, n))
    assert len(want) == digits
    assert main(["count", "--kary", "3", str(n)]) == 0
    assert capsys.readouterr().out == want + "\n"
    assert main(["count", "--kary", "3", str(n), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"count": want}


@pytest.mark.parametrize("case", COUNT_CASES, ids=[" ".join(c["argv"]) for c in COUNT_CASES])
def test_count_output_is_unchanged(case, capsys, monkeypatch):
    monkeypatch.chdir(Path(__file__).parent.parent)  # argv names tests/data/...
    assert main(case["argv"]) == case["exit"]
    assert capsys.readouterr().out == case["stdout"]


@pytest.mark.parametrize("mode", ["plane", "free"])
@pytest.mark.parametrize("k, d", [(k, d) for k in (1, 2, 3) for d in (1, 2, 3, 4)])
def test_enumerate_counts_equal_the_csv_writer_rows(k, d, mode, capsys):
    for n in (1, 12):
        assert main(["enumerate", "--k", str(k), "--d", str(d), "--n", str(n),
                     "--mode", mode]) == 0
        want = csv_written_counts(k, d, mode, count_sequence(k, d, n, mode))
        assert capsys.readouterr().out == want


@pytest.mark.parametrize("emit", ["counts", "csv"])
def test_enumerate_counts_of_a_replace_table_equal_the_csv_writer_rows(emit, capsys):
    path = DATA / "replace_table.json"
    counts = count_sequence(2, 3, 12, "free", load_law_table(path.read_text()))
    assert main(["enumerate", "--k", "2", "--d", "3", "--n", "12", "--mode", "free",
                 "--law-table", str(path), "--emit", emit]) == 0
    assert capsys.readouterr().out == csv_written_counts(2, 3, "free", counts)


def test_enumerate_counts_print_the_same_rows_past_a_lowered_digit_cap(capsys):
    argv = ["enumerate", "--k", "1", "--d", "4", "--n", "950"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the lowest cap the interpreter allows
    try:
        assert main(argv) == 0
        capped = capsys.readouterr().out
    finally:
        sys.set_int_max_str_digits(limit)
    assert capped == plain == csv_written_counts(1, 4, "plane", count_sequence(1, 4, 950))
    assert len(plain.splitlines()[-1].rpartition(",")[2]) > 640


# stdout recorded with the parent of the streaming writers: json.dumps of
# the whole list, and a Diagram and star graph per tree for DOT
EMIT_CASES = json.loads((DATA / "enumerate_emit.json").read_text())


@pytest.mark.parametrize("case", EMIT_CASES, ids=[" ".join(c["argv"]) for c in EMIT_CASES])
def test_enumerate_emit_output_is_unchanged(case, capsys, monkeypatch):
    monkeypatch.chdir(Path(__file__).parent.parent)  # argv names tests/data/...
    assert main(case["argv"]) == case["exit"]
    assert capsys.readouterr().out == case["stdout"]


class CountedWrites(io.StringIO):
    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("emit", ["json", "dot"])
def test_listed_trees_are_written_as_a_stream(emit, monkeypatch):
    # at least one write per tree: joining the chunks before writing fails this
    trees = bifgraph.enumerate_colored(bifgraph.EnumerationSpec(2, 4, 5))
    assert len(trees) == 1587
    out = CountedWrites()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["enumerate", "--k", "2", "--d", "4", "--n", "5", "--emit", emit]) == 0
    assert out.writes >= len(trees)
    want = dumped_trees_json(trees) if emit == "json" else diagram_trees_dot(trees, 4)
    assert out.getvalue() == want


# stdout, stderr and exit code of help and usage errors, recorded with the
# parent of the subcommand table, when every call built the full parser
USAGE_CASES = json.loads((DATA / "cli_usage.json").read_text())


def _outcome(run, argv, capsys):
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def _through_the_full_parser(argv):
    return _run(build_parser().parse_args(argv))


@pytest.mark.parametrize("case", USAGE_CASES,
                         ids=[" ".join(c["argv"]) or "(none)" for c in USAGE_CASES])
def test_usage_and_usage_errors_are_unchanged(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    got = _outcome(main, case["argv"], capsys)
    assert got == _outcome(_through_the_full_parser, case["argv"], capsys)
    # recorded under Python 3.10 to 3.12 alike; 3.13 rewraps usage lines
    # and lists choices unquoted
    if sys.version_info < (3, 13):
        assert got == (case["exit"], case["stdout"], case["stderr"])


def test_readme_usage_lists_every_long_option():
    block = README.read_text().split("## Command line")[1].split("```")[1]
    lines = {line.split()[1]: line for line in block.splitlines() if line.strip()}
    assert sorted(lines) == sorted(c[0] for c in COMMANDS)
    for name, _, _, arguments in COMMANDS:
        for flags, _, _ in arguments:
            for flag in flags:
                if flag.startswith("--"):
                    assert re.search(re.escape(flag) + r"(?![\w-])", lines[name]), (name, flag)


def test_ratio_and_share(capsys):
    assert main(["ratio", "--k1", "1", "--k2", "2", "--d", "4",
                 "--n-max", "3"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "n,value,approx"
    assert out.splitlines()[2].startswith("2,3/2,")

    assert main(["share", "--k", "1", "--d1", "2", "--d2", "3",
                 "--n-max", "2", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[1]["value"] == "2/3"


# (value, its nearest float or None beyond the float range)
FRACTION_ROWS = [
    (Fraction(1, 3), 1 / 3), (None, None), (Fraction(10**400, 3), None),
    (Fraction(3, 10**400), 0.0), (Fraction(10**5000 + 1, 7), None),
    (Fraction(10**300, 7), 10**300 / 7), (Fraction(5, 2), 2.5),
]


@pytest.mark.parametrize("rows", [[], FRACTION_ROWS[1:2], FRACTION_ROWS[:1], FRACTION_ROWS])
def test_fraction_rows_are_the_bytes_of_json_dumps(rows):
    text = _fractions([v for v, _ in rows], True)
    want = [{"n": n, "approx": approx,
             "value": None if v is None else
             f"{chunked_digits(v.numerator)}/{chunked_digits(v.denominator)}"}
            for n, (v, approx) in enumerate(rows, start=1)]
    assert text == json.dumps(want, indent=2, sort_keys=True) + "\n"


def _reject(constant):
    raise ValueError(f"not strict JSON: {constant}")


def test_a_ratio_beyond_the_float_range_prints_exactly_with_a_null_approx():
    (row,) = json.loads(_fractions([Fraction(10**400, 3)], True), parse_constant=_reject)
    assert row == {"n": 1, "value": f"{10**400}/3", "approx": None}
    assert _fractions([Fraction(10**400, 3)], False) == f"n,value,approx\n1,{10**400}/3,None\n"


def test_classify(capsys, graph_file):
    assert main(["classify", graph_file, "--json"]) == 0
    facts = json.loads(capsys.readouterr().out)
    assert facts == {"tree": False, "block_graph": True, "cactus": False,
                     "claw_free": True, "diamond_minor": True}


def test_spanning_methods_agree(capsys, graph_file):
    counts = []
    for method in ("kirchhoff", "brute", "tutte"):
        assert main(["spanning", graph_file, "--method", method]) == 0
        counts.append(capsys.readouterr().out.strip())
    assert counts == ["16", "16", "16"]


def test_repr_star_and_line(capsys, valid_file, graph_file):
    assert main(["repr", valid_file, "--star"]) == 0
    dot = capsys.readouterr().out
    assert dot.count(" -- ") == 2 and "color=blue" in dot

    assert main(["repr", graph_file, "--line", "--emit", "json"]) == 0
    lg = json.loads(capsys.readouterr().out)
    assert lg["vertexCount"] == 6


def test_count_subcommand(capsys):
    assert main(["count", "--kary", "2", "4"]) == 0
    assert capsys.readouterr().out.strip() == "14"
    assert main(["count", "--husimi", "2=2"]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert main(["count", "--cactus", "3=2"]) == 0
    assert capsys.readouterr().out.strip() == "15"


def test_convert_tree(capsys, tmp_path):
    path = tmp_path / "tree.json"
    path.write_text("[[], [], []]")
    assert main(["convert", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["left"]["right"]["right"] == {"left": None, "right": None}


def test_convert_flat_tree(tmp_path, capsys):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps([[]] * 2000))
    assert main(["convert", str(path)]) == 0
    out = capsys.readouterr().out
    # 2,001 binary nodes with 2,000 links between them; the last child
    # sits 2,000 levels down the right spine
    assert out.count("{") == 2001 and out.count("null") == 2002
    assert "\n" + "  " * 2001 + '"right": null' in out


def test_convert_deep_tree(tmp_path, capsys):
    path = tmp_path / "tree.json"
    path.write_text("[" * 600 + "]" * 600)
    assert main(["convert", str(path)]) == 0
    out = capsys.readouterr().out
    # a 600-deep left spine: each node's right is null, the last left too
    assert out.count('"left": {') == 599 and out.count('"right": null') == 600


def test_matroid_vamos_flag(capsys, tmp_path):
    from itertools import combinations
    from bifgraph import vamos
    v = vamos()
    bases = [sorted(q) for q in combinations(v.ground, 4)
             if v.is_independent(q)]
    doc = {"groundSet": list(v.ground), "bases": bases}
    path = tmp_path / "vamos.json"
    path.write_text(json.dumps(doc))
    assert main(["matroid", str(path)]) == 0
    assert "rank 4" in capsys.readouterr().out
    assert main(["matroid", str(path), "--vamos-minor"]) == 1
    assert "non-representable" in capsys.readouterr().out


def test_law_table_dimension_mismatch_exits_two(tmp_path, valid_file, capsys):
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"schemaVersion": "1", "dimension": 3,
                                 "entries": []}))
    assert main(["validate", valid_file, "--law-table", str(table)]) == 2
    assert "dimension" in capsys.readouterr().err


def test_classify_disconnected_exits_two(tmp_path, capsys):
    path = tmp_path / "split.json"
    path.write_text(json.dumps({"vertexCount": 4, "edges": [[0, 1], [2, 3]]}))
    assert main(["classify", str(path)]) == 2
    assert "connected" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["enumerate", "--k", "0", "--d", "4", "--n", "3"],
    ["ratio", "--k1", "0", "--k2", "1", "--d", "4", "--n-max", "5"],
    ["ratio", "--k1", "1", "--k2", "2", "--d", "4", "--n-max", "-3"],
    ["share", "--k", "0", "--d1", "1", "--d2", "2", "--n-max", "4"],
    ["share", "--k", "1", "--d1", "1", "--d2", "2", "--n-max", "-3"],
    ["count", "--husimi", "1=2"],
    ["count", "--kary", "1", "3"],
    ["count", "--cactus", "x"],
    ["classify", "@array"],
    ["spanning", "@array"],
    ["matroid", "@array"],
    ["validate", "@dir"],
    ["classify", "@dir"],
    ["count", "--kary", "x", "3"],
    ["count", "--husimi", "2=x"],
    ["count", "--husimi", "2=1,2=3"],
    ["validate", "@valid", "--k", "0"],
    ["validate", "@valid", "--k", "-3"],
])
def test_bad_input_exits_two_without_traceback(argv, tmp_path, valid_file, capsys):
    path = tmp_path / "array.json"
    path.write_text("[1,2]")
    files = {"@array": str(path), "@dir": str(tmp_path), "@valid": valid_file}
    assert main([files.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["count", "--kary", "x", "3"], "error: --kary: 'x' is not an integer\n"),
    (["count", "--husimi", "2=x"], "error: --husimi: 'x' is not an integer\n"),
    (["count", "--cactus", "x"], "error: --cactus: 'x' is not an integer\n"),
    (["count", "--husimi", "2=1,2=3"], "error: --husimi: size 2 is given twice\n"),
    (["count", "--cactus", "3=1,4=1,3=2"], "error: --cactus: size 3 is given twice\n"),
    (["count", "--husimi", "2=-1"], "error: --husimi: '2=-1': counts are nonnegative\n"),
    (["count", "--husimi", "2"], "error: --husimi: '2' is not SIZE=COUNT\n"),
    (["count", "--husimi", "3=1,=2"], "error: --husimi: '=2' is not SIZE=COUNT\n"),
    (["count", "--husimi", "1=3"], "error: --husimi: '1=3': sizes start at 2\n"),
    (["count", "--cactus", "3=1,0=1"], "error: --cactus: '0=1': sizes start at 2\n"),
])
def test_bad_count_integer_is_named_with_its_option(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == message


# the second breaks inside the streamed writes of ``_run``
@pytest.mark.parametrize("argv", [
    ["count", "--kary", "3", "10"],
    ["enumerate", "--k", "2", "--d", "4", "--n", "5", "--emit", "dot"],
], ids=" ".join)
def test_closed_stdout_exits_141_silently(argv):
    # the read end is closed before the child starts, so its first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(bifgraph.__file__).parent.parent)}
    try:
        done = subprocess.run([sys.executable, "-m", "bifgraph.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == 141
    assert done.stderr == b""


def _long_literal(text: str, field: str, digits: int = 5000) -> str:
    """``text`` with the value 1 of ``field`` written as ``digits`` nines."""
    old = f'"{field}": 1'
    assert text.count(old) == 1
    return text.replace(old, f'"{field}": ' + "9" * digits)


@pytest.mark.parametrize("command, text, path", [
    ("validate", _long_literal(emit_diagram(star_diagram(1, (0, 1), 1, dimension=2)), "period"),
     "$.edges[2].period"),
    ("classify", _long_literal('{"vertexCount": 1, "edges": []}', "vertexCount"),
     "$.vertexCount"),
    ("validate", _long_literal(emit_diagram(star_diagram(1, (0, 1), dimension=1)), "dimension"),
     "$.dimension"),
], ids=["period", "vertexCount", "dimension"])
def test_over_long_integer_literal_names_its_path(command, text, path, tmp_path, capsys):
    # longer than sys.get_int_max_str_digits(), which is never raised
    limit = sys.get_int_max_str_digits()
    doc = tmp_path / "long.json"
    doc.write_text(text)
    assert main([command, str(doc)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: integer literal longer than the {limit} digits the parser reads"
        " (sys.get_int_max_str_digits())\n")
    assert sys.get_int_max_str_digits() == limit


def test_over_long_integer_in_a_comment_still_parses(tmp_path, capsys):
    doc = json.loads(emit_diagram(star_diagram(1, (0, 1), dimension=2)))
    path = tmp_path / "commented.json"
    path.write_text(_long_literal(json.dumps({**doc, "comment": 1}), "comment"))
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out.startswith("valid: ")


def _law_doc(entry=None, **top):
    """A one-entry law-table document with some values replaced."""
    first = {"kind": "period_doubling", "parent": 0, "children": [-1, 1], **(entry or {})}
    return {"schemaVersion": "1", "dimension": 2, "entries": [first], **top}


@pytest.mark.parametrize("doc, path", [
    ({"schemaVersion": "1", "entries": []}, "$.dimension"),
    (_law_doc(dimension=2.9), "$.dimension"),
    (_law_doc(dimension=True), "$.dimension"),
    (_law_doc(mode="merge"), "$.mode"),
    (_law_doc(entries="abc"), "$.entries"),
    (_law_doc(entries=[1]), "$.entries[0]"),
    (_law_doc(entries=[{"kind": "period_doubling", "children": [-1, 1]}]),
     "$.entries[0].parent"),
    (_law_doc({"parent": True}), "$.entries[0].parent"),
    (_law_doc({"children": 1}), "$.entries[0].children"),
    (_law_doc({"children": [-1.5, 1.2]}), "$.entries[0].children"),
    (_law_doc({"multipliers": 5}), "$.entries[0].multipliers"),
    (_law_doc({"children": [1, 1]}), "$.entries[0]"),
    ([1], "$"),
    ("x" * 300, "$"),
    (_law_doc({"kind": {"junction": 7}, "parent": 1, "children": [0, 0, 0, 0, 1]}),
     "$.entries[0]"),
])
def test_bad_law_table_exits_two_naming_the_path(doc, path, tmp_path, valid_file, capsys):
    table = tmp_path / "table.json"
    table.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert main(["validate", valid_file, "--law-table", str(table)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err


def test_law_table_holding_a_path_exits_two(tmp_path, valid_file, capsys):
    # the file's content is JSON text, never a path to read the table from
    table = tmp_path / "table.json"
    table.write_text(json.dumps(_law_doc()))
    pointer = tmp_path / "pointer.json"
    pointer.write_text(str(table))
    assert main(["validate", valid_file, "--law-table", str(pointer)]) == 2
    assert capsys.readouterr().err.startswith("error: $: ")


@pytest.mark.parametrize("argv", [
    ["validate", "@deep"],
    ["classify", "@deep"],
    ["matroid", "@deep"],
    ["convert", "@deep"],
    ["spanning", "@deep"],
    ["repr", "@deep", "--star"],
    ["repr", "@deep", "--line"],
    ["validate", "@valid", "--law-table", "@deep"],
])
def test_deeply_nested_json_exits_two(argv, tmp_path, valid_file, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 3000 + "]" * 3000)
    files = {"@deep": str(path), "@valid": valid_file}
    assert main([files.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: $") and "Traceback" not in err


def _triangle_cactus(n: int) -> list:
    """A path 0..n-1 with a chord (i - 2, i) at every even i: triangles
    sharing cut vertices, plus a pendant edge when n is even."""
    return [[i - 1, i] for i in range(1, n)] + [[i - 2, i] for i in range(2, n, 2)]


@pytest.mark.parametrize("edges", [
    [[i, (i + 1) % 2000] for i in range(2000)],
    _triangle_cactus(2000),
], ids=["cycle", "triangle_cactus"])
def test_classify_large_cactus_is_fast(edges, tmp_path, capsys):
    path = tmp_path / "cactus.json"
    path.write_text(json.dumps({"vertexCount": 2000, "edges": edges}))
    start = time.perf_counter()
    assert main(["classify", str(path), "--json"]) == 0
    assert time.perf_counter() - start < 2
    facts = json.loads(capsys.readouterr().out)
    assert facts["cactus"] and not facts["diamond_minor"] and not facts["tree"]


# -- fuzzing the exit-code contract --------------------------------------------

_KEYS = ("schemaVersion", "dimension", "edges", "vertices", "id", "index", "period",
         "endpoints", "kind", "parentEdge", "vertexCount", "colors", "groundSet", "bases",
         "saddle_node", "period_doubling", "type_m", "junction", "terminal", "1")
_SCALARS = (st.none() | st.booleans() | st.integers(-3, 8) | st.text(max_size=4)
            | st.sampled_from(_KEYS))
_JSON = st.recursive(_SCALARS, lambda kids: st.lists(kids, max_size=5) | st.dictionaries(
    st.sampled_from(_KEYS) | st.text(max_size=3), kids, max_size=5), max_leaves=16)
_DOC_KINDS = ("saddle_node", "period_doubling", {"type_m": None}, {"type_m": 3},
              {"type_m": 4}, {"junction": 4}, {"junction": 5})
_POOL = st.sampled_from("abcdef")


@st.composite
def _near_valid_diagrams(draw) -> dict:
    """A diagram document whose vertices have their kinds' degrees, built
    from half-edges paired at random and terminal ends, but with ids drawn
    from a pool of six (so ids may repeat) and indices and periods drawn
    freely (so periods may be partial)."""
    kinds = draw(st.lists(st.sampled_from(_DOC_KINDS), max_size=4))
    vids = draw(st.lists(_POOL, min_size=len(kinds), max_size=len(kinds)))
    degrees = [kind_from_json(kind, "$").degree for kind in kinds]
    halves = draw(st.permutations([v for v, degree in zip(vids, degrees) for _ in range(degree)]))
    pairs = draw(st.integers(0, len(halves) // 2))
    ends = [halves[2 * i:2 * i + 2] for i in range(pairs)]
    ends += [draw(st.permutations([v, "terminal"])) for v in halves[2 * pairs:]]
    ends += [["terminal", "terminal"]] * draw(st.integers(0, 1))
    eids = draw(st.lists(_POOL, min_size=len(ends), max_size=len(ends)))
    periods = draw(st.sampled_from([st.none(), st.integers(1, 4), st.none() | st.integers(1, 4)]))
    edges = []
    for eid, pair in zip(eids, ends):
        edge = {"id": eid, "index": draw(st.integers(-1, 1)), "endpoints": list(pair)}
        period = draw(periods)
        edges.append(edge if period is None else {**edge, "period": period})
    vertices = [{"id": v, "kind": kind} if kind == "saddle_node" else {
        "id": v, "kind": kind,
        "parentEdge": draw(st.sampled_from([e for e, pair in zip(eids, ends) if v in pair]))}
        for v, kind in zip(vids, kinds)]
    return {"schemaVersion": "1", "dimension": draw(st.integers(1, 4)), "edges": edges,
            "vertices": vertices}


@settings(deadline=None, max_examples=300)
@given(st.one_of(_JSON, _near_valid_diagrams()), st.sampled_from([
    ["validate"], ["validate", "--k", "3"], ["classify"], ["spanning"], ["repr", "--star"],
    ["repr", "--clique"], ["repr", "--line"], ["matroid"], ["convert"]]))
def test_every_document_exits_zero_one_or_two(doc, command):
    """Each subcommand that reads a document, on arbitrary JSON or a
    near-valid diagram, exits 0, 1 or 2 and prints no traceback.

    Bounds: arbitrary JSON has at most 16 leaves and 5 items per array or
    object, and its ints lie in -3..8, so a ``vertexCount`` or a ground set
    stays at desk scale; near-valid diagrams have at most 4 vertices.
    ``spanning --method brute|tutte`` and ``matroid --vamos-minor`` are left
    out: they are exponential by design."""
    err = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(doc))), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command[0], "-", *command[1:]])
    assert code in (0, 1, 2) and "Traceback" not in err.getvalue()


_BAD_ENDPOINTS = ("", 0, 1.0, True, None, ["v"])


@st.composite
def _mutated_diagrams(draw) -> dict:
    """A near-valid diagram document with one field mutated: a bool, a
    float or a string in its place, the key missing, an extra key beside
    it, or a bad endpoint (a non-id value, or a list of the wrong length)."""
    doc = draw(_near_valid_diagrams())
    item = draw(st.sampled_from([doc, *doc["edges"], *doc["vertices"]]))
    how = draw(st.sampled_from(("bool", "float", "string", "missing", "extra", "endpoint")))
    key = draw(st.sampled_from(sorted(item)))
    if how == "extra":
        item["extra"] = 1
    elif how == "missing":
        del item[key]
    elif how == "endpoint" and doc["edges"]:
        ends = draw(st.sampled_from(doc["edges"]))["endpoints"]
        if draw(st.booleans()):
            ends[draw(st.integers(0, 1))] = draw(st.sampled_from(_BAD_ENDPOINTS))
        else:
            ends[:] = draw(st.sampled_from(([], ends[:1], ends * 2)))
    elif how != "endpoint":
        item[key] = {"bool": draw(st.booleans()), "float": draw(st.sampled_from((0.0, 1.0, 2.5))),
                     "string": str(item[key])}[how]
    return doc


def _parsed_or_error(parse, source):
    """The parsed diagram, or the path and text of the error; a
    ``DiagramError`` is located as ``"$" + where``, as ``parse_diagram``
    reports it."""
    try:
        return parse(source)
    except SchemaError as exc:
        return exc.path, str(exc)
    except DiagramError as exc:
        return "$" + exc.where, f"${exc.where}: {exc}"


@settings(deadline=None, max_examples=400)
@given(_mutated_diagrams())
def test_parse_diagram_equals_the_eager_parser_on_mutated_documents(doc):
    """On a near-valid document with one field mutated, ``parse_diagram`` and
    ``eager_parse_diagram`` build equal diagrams or fail with the same path
    and message, from the dict and from its JSON text."""
    for source in (doc, json.dumps(doc)):
        assert (_parsed_or_error(parse_diagram, source)
                == _parsed_or_error(eager_parse_diagram, source))


def test_a_dict_source_takes_subclassed_items_indices_and_ids():
    """Through the library a dict source may hold a ``dict``-subclass item,
    an ``IntEnum`` index and a ``str``-subclass id; the diagram equals the
    one parsed from the document's JSON text."""
    class Item(dict):
        pass

    class Index(IntEnum):
        MINUS = -1
        PLUS = 1

    class Id(str):
        pass

    doc = {"schemaVersion": "1", "dimension": 2, "edges": [
        Item(id=Id("a"), index=Index.PLUS, endpoints=["terminal", Id("v")]),
        {"id": "b", "index": Index.MINUS, "endpoints": [Id("v"), "terminal"]}],
        "vertices": [Item(id=Id("v"), kind="saddle_node")]}
    parsed = parse_diagram(doc)
    assert parsed == parse_diagram(json.dumps(doc)) == eager_parse_diagram(doc)
    assert parsed.edges[0].index is Index.PLUS and type(parsed.vertices[0].id) is Id


_FLAG_SUBCOMMANDS = {c[0]: c[3] for c in COMMANDS
                     if c[0] in ("enumerate", "ratio", "share", "count")}


@st.composite
def _flag_argv(draw) -> list:
    """An argv for a subcommand that reads no document, built from its row
    of ``cli.COMMANDS``: ints in -2..8 (``--n-max`` up to 40), each spec's
    choices, and size specs with sizes 1..5 and counts -1..3.  One argument
    of a required group is given, and each optional one or not.
    ``--law-table`` names a document, so it is left out."""
    name = draw(st.sampled_from(sorted(_FLAG_SUBCOMMANDS)))
    arguments = _FLAG_SUBCOMMANDS[name]
    group = [a for a in arguments if a[2]]
    chosen = draw(st.sampled_from(group)) if group else None
    values = {}
    for argument in arguments:
        flags, options, one_of = argument
        options = dict(options)
        flag = flags[0]
        if flag == "--law-table" or (one_of and argument is not chosen):
            continue
        if not (one_of or options.get("required") or draw(st.booleans())):
            continue
        if options.get("action") == "store_true":
            values[flag] = []
        elif "choices" in options:
            values[flag] = [draw(st.sampled_from(options["choices"]))]
        elif options.get("metavar") == "SPEC":
            pairs = draw(st.lists(st.tuples(st.integers(1, 5), st.integers(-1, 3)), max_size=4))
            values[flag] = [",".join(f"{size}={count}" for size, count in pairs)]
        else:
            high = 40 if flag == "--n-max" else 8
            values[flag] = [str(draw(st.integers(-2, high)))
                            for _ in range(options.get("nargs", 1))]
    # listing trees of 5 or more nodes at k = 8 reaches six-figure counts
    assume(values.get("--emit") not in (["json"], ["dot"]) or int(values["--n"][0]) <= 4)
    return [name] + [word for flag, rest in values.items() for word in (flag, *rest)]


@settings(deadline=None, max_examples=300)
@given(_flag_argv())
def test_every_flag_value_exits_zero_or_two(argv):
    """Each subcommand that reads no document exits 0 or 2 on any value of
    its flags and prints no traceback."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the value itself
            code = exc.code
    assert code in (0, 2) and "Traceback" not in err.getvalue(), (argv, err.getvalue())
