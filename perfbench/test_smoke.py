"""Smoke test of the benchmark harness on tiny configs.

    python3 -m pytest perfbench

Runs the real harness (fresh child interpreters, output checks, tracing,
pool probe) on configs small enough to finish in seconds, and checks the
output checks against the repository's golden CSVs and corruptions of them.
"""

import csv
import dataclasses
import io
import json
import types
from pathlib import Path

import pytest

import checks
import run
import tracing

GOLDEN = run.ROOT / "tests" / "golden"


def tiny(name: str) -> run.Workload:
    return dataclasses.replace(run.WORKLOADS[name], name=f"smoke_{name}", runs=2,
                               accounts=2000, draws=200)


@pytest.mark.parametrize("name", ["bracketing_parallel", "caps_parallel"])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_passes_and_reports_every_metric(name, trace):
    record = run.measure(tiny(name), seed=3, seconds=0.5, trace=trace)
    assert record["failed"] == 0, record["repetitions"]
    assert record["missing_layers"] == []
    line = run.result_line(record)
    assert line["correct"] is True and line["attempted"] >= 3
    want = run.PER_LAYER if trace else list(run.END_TO_END_UNITS)
    assert list(line["metrics"]) == want
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())
    m = record["manifest"]
    assert m["seed"] == 3 and m["nproc"] >= 1 and m["numpy"] and m["python"]
    assert all(rep["canary_s"] > 0 for rep in record["repetitions"])
    assert len(record["labels"]["csv_sha256"]) == 1


def test_benchmark_json_matches_harness():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, run.per_layer_unit(name)) for name in run.PER_LAYER]


def golden(stem: str) -> tuple[str, dict]:
    return ((GOLDEN / f"{stem}_small.csv").read_text(),
            json.loads((GOLDEN / f"golden_{stem}.json").read_text()))


def edit(text: str, row: int, column: str, value: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    rows[row][rows[0].index(column)] = value
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def test_checks_pass_golden_outputs():
    for stem in ("bracketing", "caps"):
        text, config = golden(stem)
        assert checks.check_csv(text, stem, config) == []


@pytest.mark.parametrize("corrupt", [
    lambda t: t.replace("random_avg", "random_mean"),  # header
    lambda t: "".join(t.splitlines(keepends=True)[:-1]),  # a row short
    lambda t: edit(t, 2, "random_avg", "0.5"),  # VaR falls with confidence
    lambda t: edit(t, 3, "bracket_avg", "999"),  # bracket worst above random
    lambda t: edit(t, 1, "pct_bracket_higher", "100.5"),
    lambda t: edit(t, 1, "random_std", "nan"),
    lambda t: edit(t, 1, "rel_diff_pct", "1.00"),
])
def test_checks_catch_corrupted_bracketing_csv(corrupt):
    text, config = golden("bracketing")
    assert checks.check_csv(corrupt(text), "bracketing", config)


def test_checks_catch_corrupted_caps_csv():
    text, config = golden("caps")
    assert checks.check_csv(edit(text, 1, "cap_800_pct_higher", "-1"), "caps", config)
    assert checks.check_csv(edit(text, 2, "cap_5000_avg", "-3"), "caps", config)


def test_missing_layer_is_reported_not_fatal(tmp_path):
    tracer = tracing.Tracer(str(tmp_path / "spans"))
    namespace = types.SimpleNamespace(kept=lambda: 1)
    tracer.patch(namespace, "random_payouts", "drawing.random_payouts")
    tracer.patch(namespace, "kept", "drawing.kept")
    assert tracer.missing == ["drawing.random_payouts"]
    assert namespace.kept() == 1
    values = run.layer_values(run.Rep("trace", 1, [], 0.0, {}, spans=[]), runs=1)
    assert values["drawing.random_payouts.k1000_s"] == 0.0


def test_self_time_excludes_child_spans(tmp_path):
    tracer = tracing.Tracer(str(tmp_path / "spans"))
    ns = types.SimpleNamespace()
    ns.inner = lambda: sum(range(10_000))
    ns.outer = lambda: ns.inner() + sum(range(10_000))
    tracer.patch(ns, "inner", "inner")
    tracer.patch(ns, "outer", "outer")
    ns.outer()
    tracer.flush()
    inner, outer = tracing.load_spans(Path(tmp_path), "spans")
    assert inner["parent"] == outer["id"]
    assert inner["self"] + outer["self"] == pytest.approx(outer["end"] - outer["start"])
