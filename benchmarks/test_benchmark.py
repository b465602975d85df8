"""Tests of the benchmark's own pieces.

    python3 -m pytest benchmarks/test_benchmark.py
"""

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import bifgraph  # noqa: E402
import bifgraph.cli  # noqa: E402,F401
import inputs  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generator_is_deterministic(workload):
    first = json.dumps(inputs.generate(workload, 7))
    assert json.dumps(inputs.generate(workload, 7)) == first
    assert json.dumps(inputs.generate(workload, 8)) != first


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_job_composition_does_not_depend_on_seed(workload):
    def families(seed):
        return sorted(j["family"] for j in inputs.generate(workload, seed))
    assert families(1) == families(2)
    assert len(inputs.generate(workload, 1)) >= 96


@pytest.mark.parametrize("seed", [1, 2])
def test_validator_reports_every_planted_violation(seed):
    """Every generated diagram below the recursion limit gets exactly the
    verdict and the violation codes its construction implies."""
    checked = planted = 0
    for job in inputs.generate("validation", seed):
        if job["branches"] >= 1000:
            continue
        diagram = bifgraph.parse_diagram(job["doc"])
        report = bifgraph.validate_diagram(diagram, job["k"],
                                           bifgraph.builtin_table(diagram.dimension))
        assert report.ok == job["valid"], job["id"]
        assert sorted({v.code for v in report.violations}) == job["codes"], job["id"]
        checked += 1
        planted += not job["valid"]
    assert checked >= 90 and planted >= 40


def test_long_saddle_families_are_present():
    big = [j["family"] for j in inputs.generate("validation", 1)
           if j["family"] in ("ring", "chain") and j["branches"] >= 1100]
    assert sorted(big) == ["chain", "ring"]


def _corrupt_text(text, old, new):
    assert old in text
    return text.replace(old, new, 1)


def _reemit(text, change, **dump):
    doc = json.loads(text)
    change(doc)
    return json.dumps(doc, **dump) + "\n"


def _drop_last_csv_count(out):
    code, text = out
    lines = text.splitlines()
    last = lines[-1].rsplit(",", 1)
    lines[-1] = f"{last[0]},{int(last[1]) + 1}"
    return code, "\n".join(lines) + "\n"


def _flip_validation(out):
    if len(out) == 2:
        code, text = out
        return code, _reemit(text, lambda d: d.update(valid=not d["valid"]),
                             indent=2, sort_keys=True)
    valid, codes, rep = out
    return not valid, codes, rep


def _pop_edge(doc):
    doc["edges"].pop()


CORRUPT = {
    "counts": _drop_last_csv_count,
    "free": _drop_last_csv_count,
    "lawtable": _drop_last_csv_count,
    "ratio": lambda out: (out[0], _reemit(out[1], lambda d: d[-1].update(value="1/1"),
                                          indent=2, sort_keys=True)),
    "share": lambda out: (out[0], _reemit(out[1], lambda d: d[-1].update(value="1/7"),
                                          indent=2, sort_keys=True)),
    "tree": _flip_validation,
    "periodic": _flip_validation,
    "ring": _flip_validation,
    "chain": _flip_validation,
    "enum_json": lambda out: (out[0], _reemit(out[1], lambda d: d.pop(),
                                              indent=2, sort_keys=True)),
    "enum_dot": lambda out: (out[0], out[1][:out[1].rindex("graph t")]),
    "repr": lambda out: (out[0], _reemit(out[1], _pop_edge, indent=2)
                         if out[1].startswith("{") else
                         "".join(out[1].splitlines(True)[:-2]) + "}\n"),
    "line": lambda out: (out[0], _reemit(out[1], _pop_edge, indent=2)
                         if out[1].startswith("{") else
                         "".join(out[1].splitlines(True)[:-2]) + "}\n"),
    "convert": lambda out: (out[0], _reemit(out[1], lambda d: d.update(right={"left": None,
                                                                              "right": None}),
                                            indent=2)),
    "roundtrip": lambda out: (_reemit(out[0], _pop_edge, indent=2), out[1]),
    "catalog": lambda out: out + 1,
    "shapes": lambda out: out + 1,
    "classify": lambda out: (out[0], _corrupt_text(
        out[1], '"claw_free": ' + ("true" if '"claw_free": true' in out[1] else "false"),
        '"claw_free": ' + ("false" if '"claw_free": true' in out[1] else "true"))),
    "spanning": lambda out: (out[0], _reemit(
        out[1], lambda d: d.update(count=str(int(d["count"]) + 1)), indent=2, sort_keys=True)),
    "spanning3": lambda out: (out[0], out[1] + 1, out[2]),
    "isomorphic": lambda out: not out,
    "matroid_rank": lambda out: (out[0], _reemit(
        out[1], lambda d: d.update(rank=d["rank"] + 1), indent=2, sort_keys=True)),
    "vamos_graphic": lambda out: True,
    "vamos_coloops": lambda out: (0, '{\n  "representable": null,\n  "vamosMinor": false\n}\n'),
}


def _smallest_jobs():
    """One small job per family, across all workloads."""
    picked = {}
    for workload in inputs.WORKLOADS:
        for job in inputs.generate(workload, 3):
            size = job.get("branches", job.get("n", 0))
            if job["family"] not in picked or size < picked[job["family"]][0]:
                picked[job["family"]] = (size, job)
    return picked


SMALLEST = _smallest_jobs()


def test_every_family_has_a_corruption():
    assert set(SMALLEST) == set(CORRUPT)


@pytest.mark.parametrize("family", sorted(CORRUPT))
def test_check_accepts_output_and_rejects_corruption(family, tmp_path):
    job = copy.deepcopy(SMALLEST[family][1])
    runner = jobs.Runner(bifgraph, [job], tmp_path)
    oracle = jobs.Oracle(bifgraph)
    output = runner.run(job)
    assert jobs.check(job, output, oracle)
    corrupted = CORRUPT[family](output)
    assert corrupted != output
    assert not jobs.check(job, corrupted, oracle)


def test_plane_oracle_matches_enumeration():
    oracle = jobs.Oracle(bifgraph)
    for k in (1, 2, 3):
        for d in (1, 2, 3, 4):
            ref = oracle.plane_counts(inputs.ref_table(d), k + 1, 6)
            for n in range(1, 7):
                spec = bifgraph.EnumerationSpec(k, d, n)
                assert ref[n] == len(bifgraph.enumerate_colored(spec)), (k, d, n)


def test_tracer_records_spans_and_restores_functions(tmp_path):
    job = copy.deepcopy(SMALLEST["tree"][1])
    runner = jobs.Runner(bifgraph, [job], tmp_path)
    original = bifgraph.validate_diagram
    tracer = tracing.Tracer()
    tracer.keep_spans = True
    tracer.install(bifgraph)
    try:
        assert bifgraph.validate_diagram is not original
        runner.run(job)
    finally:
        tracer.uninstall()
    assert bifgraph.validate_diagram is original
    metrics = tracing.layer_metrics(tracer)
    assert metrics["diagram.calls"] > 0 and metrics["diagram.validate_diagram.s"] > 0
    sp = tracer.spans
    top = sum(e - s for s, e, p in zip(sp["start"], sp["end"], sp["parent"]) if p == -1)
    self_total = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert self_total == pytest.approx(top, rel=1e-6)
    written = tracer.write_spans(tmp_path / "spans.tsv.gz")
    assert written == sum(tracer.stats(n)[0] for n in tracer.names)


def test_times_at_reference_speed_cancel_machine_speed():
    """A job that always takes three calibration loops reads three
    CALIBRATION_S, however fast the machine ran in each pass."""
    passes = []
    for speed in (1.0, 0.6, 1.7):
        p = run.Pass()
        p.calibration[0] = (speed * 1e-3, speed * 1e-3)
        p.latency[0] = p.cpu[0] = 3 * speed * 1e-3
        passes.append(p)
    for attr in ("latency", "cpu"):
        assert run.at_reference_speed(passes, attr)[0] == pytest.approx(3 * run.CALIBRATION_S)


def test_quantile_estimate():
    assert run.quantile([4.0] * 9, 0.9) == pytest.approx(4.0)
    values = [float(v) for v in range(1, 102)]
    assert run.quantile(values, 0.5) == pytest.approx(51.0, abs=1e-3)
    p50, p90 = run.quantile(values, 0.5), run.quantile(values, 0.9)
    assert 89 < p90 < 93 and p50 < p90 < max(values)
