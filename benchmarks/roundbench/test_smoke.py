"""roundbench at smoke sizes, end to end, under pytest.

Outside tier-1 ``testpaths``; run it from the repository root with
``PYTHONPATH=src python -m pytest benchmarks/roundbench/test_smoke.py``.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys

import pytest

from benchmarks.roundbench import compare, metrics

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="module")
def smoke_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("roundbench") / "smoke.json"
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.roundbench", "--smoke", "--trace",
         "--seed", "5", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out) as handle:
        return json.load(handle), done.stdout


def test_every_metric_is_reported_and_every_check_passes(smoke_result):
    result, stdout = smoke_result
    for workload in metrics.WORKLOADS:
        (run,) = result["runs"][workload]
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        assert run["end_to_end"]["failed_ops_ratio"] == 0
        for definition in metrics.END_TO_END:
            if workload in definition.workloads and definition.name != "submit_ms_p95":
                assert run["end_to_end"][definition.name] is not None
        traced = result["traced"][workload]
        assert traced["correct"]
        assert set(traced["per_layer"]) == {m.name for m in metrics.PER_LAYER}
        accounting = traced["accounting"]
        total = sum(accounting["layer_self_ms_per_client"].values())
        assert total + accounting["unattributed_ms_per_client"] == pytest.approx(
            accounting["wall_ms_per_client"]
        )
    for definition in metrics.END_TO_END + metrics.PER_LAYER:
        if definition.name != "submit_ms_p95":  # needs >= 200 submissions
            assert f" {definition.name} " in stdout


def test_routes_were_taken(smoke_result):
    traced = smoke_result[0]["traced"]
    assert traced["narrow_pool"]["per_layer"]["scale.pool.map_wait_ms_per_client"] > 0
    assert traced["narrow_serial"]["per_layer"]["scale.pool.map_wait_ms_per_client"] == 0
    assert traced["wide_streamed"]["per_layer"]["scale.subgroup.repairs_per_round"] >= 1
    assert traced["svc_disk"]["per_layer"]["service.storage.ops_per_client"] > 0
    assert traced["narrow_serial"]["per_layer"]["service.storage.ops_per_client"] == 0


def test_compare_accepts_a_result_against_itself(smoke_result):
    runs = smoke_result[0]["runs"]
    report = io.StringIO()
    assert compare.compare(runs, runs, out=report) == 0
    # One run a side: counts are comparable, timings are not.
    assert " unresolved " in report.getvalue() and " 0 worse" in report.getvalue()


def test_compare_flags_a_larger_exact_count(smoke_result):
    runs = smoke_result[0]["runs"]
    grown = json.loads(json.dumps(runs))
    grown["svc_disk"][0]["end_to_end"]["wire_bytes_per_client"] += 1
    assert compare.compare(runs, grown, out=io.StringIO()) == 1


def test_benchmark_json_and_the_metric_tables_agree():
    listed = {m["name"]: m for m in metrics.SPEC["end_to_end"]}
    assert "setup_s" in listed and set(listed) <= {m.name for m in metrics.END_TO_END}
    for definition in metrics.END_TO_END:
        if definition.name in listed:
            entry = listed[definition.name]
            assert (entry["unit"], entry["better"]) == (definition.unit, definition.better)
    assert metrics.SPEC["paths"] == ["benchmarks/roundbench"]
