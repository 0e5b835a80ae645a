"""Tests of the benchmark suite at toy size.

    PYTHONPATH=src python -m pytest benchmarks/suite -q

Each workload runs once through ``run.execute`` with 12-site webs, one
study (two service jobs) untraced and one traced, then the layer
probes.  The calibrated web keeps its full size.
"""

from __future__ import annotations

import dataclasses
import os
import re
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402
import run  # noqa: E402

workloads, layers = run.import_program()

from repro.obs.export import read_trace  # noqa: E402
from repro.obs.flame import folded_stacks  # noqa: E402

BENCHMARK = run.load_benchmark()
NAMES = [entry["name"] for entry in BENCHMARK["workloads"]]
TOY = workloads.Options(sites=12, job_sites=12, min_reps=1)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """``run.execute`` of a workload with tracing, once per module."""
    done = {}

    def get(name):
        if name not in done:
            out = str(tmp_path_factory.mktemp("trace") / "trace.jsonl")
            options = TOY
            if name == "service-jobs":
                options = dataclasses.replace(TOY, min_reps=2)
            done[name] = run.execute(name, 404, 0, True, options, out), out
        return done[name]

    return get


@pytest.mark.parametrize("name", NAMES)
def test_workload_runs_checked_and_emits_every_metric(traced_run, name):
    (plain, traced, metrics, errors), _ = traced_run(name)
    assert errors == []
    assert [rep.errors for rep in plain + traced] == [[]] * len(plain
                                                              + traced)
    layer_line = run.result_line(BENCHMARK["per_layer"], metrics,
                                 plain + traced, errors)
    e2e_line = run.result_line(
        BENCHMARK["end_to_end"],
        run.end_to_end(plain, [run.time_setup(name)]), plain, [])
    for kind, line in (("per_layer", layer_line), ("end_to_end", e2e_line)):
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] >= 1
        assert set(line["metrics"]) == {m["name"] for m in BENCHMARK[kind]}
        for metric in BENCHMARK[kind]:
            assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert all(entry["value"] > 0 for entry in e2e_line["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_a_layer_does_work_only_where_its_studies_call_it(traced_run, name):
    (_, _, metrics, _), _ = traced_run(name)
    for metric in ("ipc.pickle_s", "blocklist.match_s", "blocklist.parse_s",
                   "table4_s", "service.run_s"):
        where = layers.LAYER_MAP[metric][1]
        assert (metrics[metric] > 0) == (name in where), metric
    assert metrics["tokens.build_s"] > 0 and metrics["crawl_s"] > 0


def test_a_run_makes_a_fixed_number_of_studies_with_setup_between(
        monkeypatch):
    samples = []
    monkeypatch.setattr(run, "time_setup",
                        lambda name: samples.append(name) or 0.5)
    nominal = workloads.make_workload("study-serial", 404, TOY, "").nominal_s
    plain, traced, metrics, errors = run.execute(
        "study-serial", 404, 2 * nominal, False, TOY)
    assert errors == [] and traced == []
    assert [rep.index for rep in plain] == [0, 1]
    assert samples == ["study-serial"] * 3 and metrics["setup_s"] == 0.5


@pytest.mark.parametrize("name", NAMES)
def test_trace_parts_add_up_to_the_study(traced_run, name):
    (_, traced, metrics, _), path = traced_run(name)
    assert 0 <= metrics["trace.residual_ratio"] <= 0.05
    records = read_trace(path)
    reps = {span["rep"] for span in records["span"]
            if span["rep"] is not None}
    assert reps == {rep.index for rep in traced}
    stacks = folded_stacks(records)
    assert any(stack.startswith("probe;") for stack in stacks)
    gauges = {gauge["name"] for gauge in records["gauge"]}
    assert gauges == {metric["name"] for metric in BENCHMARK["per_layer"]}


@pytest.mark.parametrize("name", NAMES)
def test_traced_and_untraced_studies_agree(traced_run, name):
    (plain, traced, _, _), _ = traced_run(name)
    untraced = {rep.index: rep.fingerprint for rep in plain}
    assert traced and all(rep.fingerprint for rep in traced)
    for rep in traced:
        assert rep.fingerprint == untraced[rep.index]


def test_wrong_pinned_fingerprint_fails_every_study(monkeypatch):
    monkeypatch.setitem(workloads.PINNED_STUDY, (404, TOY.sites), "0" * 64)
    plain, _, metrics, errors = run.execute("study-serial", 404, 0, False,
                                            TOY)
    line = run.result_line(BENCHMARK["end_to_end"], metrics, plain, errors)
    assert not line["correct"]
    assert line["failed"] / line["attempted"] == 1.0
    assert "pinned" in plain[0].errors[0]


def test_missing_program_exits_without_a_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", "/nonexistent")
    assert run.main(["--workload", "study-serial"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "no program source" in err


def test_benchmark_definition_follows_its_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["benchmarks/suite"]
    assert set(NAMES) == set(workloads.WORKLOADS)
    names = NAMES + [m["name"] for kind in ("end_to_end", "per_layer")
                     for m in BENCHMARK[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    # The benchmark format allows bounds up to a quarter of the parent's
    # median, and gives set-up time the widest one.
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_every_layer_metric_names_an_end_to_end_metric_and_workload():
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(layers.LAYER_MAP) == {m["name"]
                                     for m in BENCHMARK["per_layer"]}
    for metric, (moves, where) in layers.LAYER_MAP.items():
        assert moves in end_to_end, metric
        assert where and set(where) <= set(NAMES), metric


def _record(workload, study_s, failed=0, cpus=2):
    return {"workload": workload, "trace": 0, "attempted": 4,
            "failed": failed,
            "host": {"cpu_count": cpus, "python": "3", "platform": "p"},
            "metrics": {m["name"]: {"value": study_s, "unit": m["unit"]}
                        for m in BENCHMARK["end_to_end"]}}


def _verdicts(parent, change):
    lines, status = compare.compare(parent, change, BENCHMARK)
    row = next(line for line in lines if line.startswith("study-serial"))
    return row, status


def _runs(*values):
    return [_record("study-serial", value) for value in values]


def test_compare_applies_the_bounds():
    steady = _runs(*(1.0 + 0.001 * i for i in range(10)))
    faster = _runs(*(0.5 + 0.001 * i for i in range(10)))
    slower = _runs(*(2.0 + 0.001 * i for i in range(10)))
    noisy = _runs(1.0, 2.0, 1.0, 2.0, 1.0, 2.0)
    row, status = _verdicts(steady, faster)
    assert "improved 10/10" in row and status == compare.PASSED
    assert "within bound 5/5" in _verdicts(steady[:5], faster[:5])[0]
    row, status = _verdicts(steady, slower)
    assert "REGRESSED" in row and status == compare.REGRESSED
    row, status = _verdicts(noisy, noisy)
    assert "unresolved" in row and status == compare.UNRESOLVED
    row, status = _verdicts(noisy, _runs(3.0, 3.0, 3.0, 3.0, 3.0, 3.0))
    assert "REGRESSED" in row and status == compare.REGRESSED
    row, status = _verdicts(steady, steady[:9] + [
        _record("study-serial", 1.0, failed=1)])
    assert "FAILED RATIO ROSE" in row and status == compare.REGRESSED


def test_compare_refuses_results_from_different_hosts():
    with pytest.raises(compare.InputError):
        compare.compare([_record("study-serial", 1.0)],
                        [_record("study-serial", 1.0, cpus=4)], BENCHMARK)
