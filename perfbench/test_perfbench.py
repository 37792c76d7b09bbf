"""Self-checks of the benchmark: its spec, its oracles and its tracer.

Run with the rest of the suite: PYTHONPATH=src python -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracles
from child import Runner
from run import end_to_end
from tracing import TARGETS, Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
BASELINE = json.loads((BENCH / "baseline.json").read_text())

#: A short op set that still crosses every layer the tracer wraps in cli,
#: reproduce, constructions, operators, kreiss, cesaro, reports and numpy.
SHORT_OPS = (
    ("reproduce", "thm1.5"),
    ("reproduce", "lemma2.1"),
    ("kreiss", "--operator", "tzblock", "--trunc", "4", "--angles", "4", "--n-max", "8",
     "--k-max", "4", "--radii", "1.5,1.1"),
    ("construct", "--operator", "tn", "--trunc", "8"),
)


def test_spec_lists_every_metric_workload_and_baseline():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(w["why"] for w in SPEC["workloads"])

    fake_pass = {"wall_s": 1.0, "cpu_s": 1.0, "ops": [{"failed": False}], "traced": False}
    produced = end_to_end({"passes": [fake_pass], "peak_rss_kib": 1024}, [0.5])
    assert [m["name"] for m in SPEC["end_to_end"]] and all(
        m["unit"] and m["better"] in ("lower", "higher") for m in SPEC["end_to_end"])
    assert {m["name"] for m in SPEC["end_to_end"]} == set(produced)

    layer_names = set(Tracer().metrics()) | {"trace_overhead_s"}
    for metric in SPEC["per_layer"]:
        assert metric["name"] in layer_names, metric["name"]
        assert metric["unit"]

    for workload in WORKLOADS:
        assert set(BASELINE["end_to_end"][workload]) == {m["name"] for m in SPEC["end_to_end"]}
        assert set(BASELINE["per_layer"][workload]) == {m["name"] for m in SPEC["per_layer"]}
    mapped = {layer for effect in BASELINE["layer_effects"] for layer in effect["layers"]}
    assert {m["name"].split(".")[0] for m in SPEC["per_layer"]} <= mapped | {"trace_overhead_s"}


def test_traced_counters_repeat_and_reports_match(tmp_path):
    import kreisslab.operators

    original_apply = kreisslab.operators.apply
    runner = Runner(SHORT_OPS, 3, tmp_path, {})
    runner.run_pass()
    traced = []
    for _ in range(2):
        with Tracer() as tracer:
            result = runner.run_pass(tracer)
        assert not any(op["failed"] for op in result["ops"]), result["ops"]
        traced.append(result["counters"])
    assert kreisslab.operators.apply is original_apply

    assert traced[0] == traced[1]
    counters = traced[0]
    assert counters["cli.main.calls"] == len(SHORT_OPS)
    assert counters["reproduce.reproduce.calls"] == 2
    assert counters["cli.construct.calls"] == counters["cli.kreiss.calls"] == 1
    for span in ("operators.apply", "operators.spectral_norm", "operators.power_iteration",
                 "kreiss.kreiss_constant", "kreiss.resolvent_norm", "cesaro.rotated_mean_tables",
                 "cesaro.dense_norm", "constructions.make_operator", "reports.emit_report",
                 "linalg.svd", "linalg.inv"):
        assert counters[f"{span}.calls"] > 0, span
    assert counters["linalg.svd.flops_computed"] > 0


def test_every_trace_target_exists():
    import kreisslab  # noqa: F401  (loads every submodule)

    for module, attr, _name, _reader in TARGETS:
        assert callable(getattr(sys.modules[module], attr)), (module, attr)


def test_oracles_count_statuses_and_gate_constants(tmp_path):
    from kreisslab.reports import RunConfig, emit_report

    # summarize() would miss a numpy.bool_ failure; the status count does not.
    records = [{"check_id": "c", "passed": np.False_, "status": "fail"},
               {"check_id": "d", "passed": True, "status": "pass"}]
    emit_report(RunConfig(command="reproduce"), records, None, tmp_path)
    assert oracles.record_statuses(tmp_path)["fail"] == 1

    reference = {"ratio": [2.0, 3.0]}
    assert oracles.gated_mismatches({"ratio": [2.0, 3.0 * (1 + 1e-12)]}, reference) == []
    assert oracles.gated_mismatches({"ratio": [2.0, 3.0 * (1 + 1e-9)]}, reference) == ["ratio"]
    assert oracles.gated_mismatches({}, reference) == ["ratio"]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tz-norms", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
