"""Tests of the benchmark itself: python3 -m pytest -q perfbench

Smoke runs of every workload with one operation (lambda_sweep at a small N),
validity of the recorded spans, and proof that failed checks and corrupted
golden text count as failed operations.
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL_TRUNC = {"battery": 64, "pdo_cli": None, "lambda_sweep": 48}
END_TO_END = ("setup_s", "op_p50_s", "ops_per_s", "peak_rss_mb", "error_rate")
BENCHMARK_JSON = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def smoke(workload: str, trace: int, seed: int = 3, **kw) -> dict:
    kw.setdefault("trunc", SMALL_TRUNC[workload])
    return run.run_workload(workload, seed, 0.01, trace, max_ops=1, setup_runs=1, **kw)


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def traced(request):
    return request.param, smoke(request.param, trace=1)


def load_spans(workload: str, seed: int = 3) -> list[list]:
    path = run.TRACE_DIR / f"spans-{workload}-seed{seed}.jsonl.gz"
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    # file rows are [op, index, parent, name, start, end]; back to recorder order
    return [[name, start, end, parent, op] for op, _, parent, name, start, end in rows]


def test_inputs_are_seeded():
    for workload in workloads.WORKLOADS:
        assert workloads.make_inputs(workload, 5) == workloads.make_inputs(workload, 5)
        assert workloads.make_inputs(workload, 5) != workloads.make_inputs(workload, 6)
    battery = workloads.make_inputs("battery", 5)
    assert sorted(battery[:6]) == sorted(workloads.BATTERY_LAMBDAS)
    sweep = workloads.make_inputs("lambda_sweep", 5)
    assert all(0.9 <= abs(lam) <= 50.0 for lam in sweep)
    assert min(sweep) < 0 < max(sweep)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_smoke(workload):
    result = smoke(workload, trace=0)
    assert (result["attempted"], result["failed"]) == (1, 0), result["failures"]
    metrics = result["metrics"]
    assert tuple(metrics) == END_TO_END
    assert metrics["error_rate"]["value"] == 0.0
    assert all(metrics[name]["value"] > 0 for name in END_TO_END if name != "error_rate")
    meta = result["meta"]
    assert meta["raw_op_p50_s"] > 0 and meta["host_slowness_p50"] > 0
    assert meta["blas_threads"] is None or meta["blas_threads"] <= meta["nproc"]
    assert meta["largest_table_bytes"] == meta["trunc"] * meta["grid_nodes"] * 8


def test_traced_smoke_reports_every_layer_metric(traced):
    workload, result = traced
    assert (result["attempted"], result["failed"]) == (2, 0), result["failures"]
    names = [m["name"] for m in BENCHMARK_JSON["per_layer"]]
    assert set(result["metrics"]) == set(names)
    layers = result["metrics"]
    if workload == "lambda_sweep":
        assert layers["pdo.series_multiply.calls"]["value"] == 0
        assert layers["numerics.erf.calls"]["value"] > 0
    else:
        assert layers["cli.self_s"]["value"] > 0
        assert layers["pdo.series_multiply.calls"]["value"] > 0
    if workload == "battery":
        assert layers["report.c07.pdo_share"]["value"] > 0.9


def test_spans_nest_and_self_times_fit_the_operation(traced):
    workload, _ = traced
    spans = load_spans(workload)
    assert spans
    for i, (name, start, end, parent, op) in enumerate(spans):
        assert start <= end
        if parent < 0:
            assert name == tracing.ROOT
            continue
        assert 0 <= parent < i
        p_name, p_start, p_end, _, p_op = spans[parent]
        assert p_op == op and p_start <= start and end <= p_end
    for summary in tracing.op_summaries(spans):
        layer_self = sum(summary["layer_self"].values())
        assert layer_self <= summary["wall"] + 1e-9
        assert summary["unattributed"] >= -1e-9


def test_closed_loop_scales_each_operation_by_the_probes_around_it():
    readings = iter([9.0, 1.0, 3.0, 5.0])  # the first call is the untimed warm-up
    results = workloads.closed_loop(lambda i: None, 60.0, max_ops=2, probe=lambda: next(readings))
    assert [slowness for _, _, slowness in results] == [2.0, 4.0]
    wall = results[0][0]
    assert hostspeed.scaled(wall, 2.0) == pytest.approx(wall / 2)


def test_recorder_self_time_excludes_children():
    recorder = tracing.SpanRecorder()
    inner = recorder.wrap("numerics.inner", lambda: sum(range(20000)))

    def outer_fn():
        inner()
        inner()
        return sum(range(20000))

    outer = recorder.wrap("fock.outer", outer_fn)
    outer()  # outside an operation: no span
    assert recorder.spans == []
    with recorder.operation(0):
        outer()
    names = [s[tracing.NAME] for s in recorder.spans]
    assert names == [tracing.ROOT, "fock.outer", "numerics.inner", "numerics.inner"]
    (summary,) = tracing.op_summaries(recorder.spans)
    assert summary["calls"] == {"fock.outer": 1, "numerics.inner": 2}
    outer_span = recorder.spans[1]
    children = sum(s[tracing.END] - s[tracing.START] for s in recorder.spans[2:])
    want = outer_span[tracing.END] - outer_span[tracing.START] - children
    assert summary["self"]["fock.outer"] == pytest.approx(want)
    total_self = sum(summary["self"].values()) + summary["unattributed"]
    assert total_self == pytest.approx(summary["wall"])


def test_corrupted_golden_counts_as_failure(tmp_path):
    golden = workloads.load_golden()
    for entry in golden.values():
        entry["raising_series"][-2] += " + 1"
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden), encoding="utf-8")
    result = smoke("pdo_cli", trace=0, golden_path=path)
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert result["metrics"]["error_rate"]["value"] == 1.0
    assert "raising_series differs from golden text" in result["failures"][0]


def test_failing_check_counts_as_failure():
    # N = 16 has fewer than the 40 eigenvalues the sweep checks
    result = smoke("lambda_sweep", trace=0, trunc=16)
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert result["metrics"]["error_rate"]["value"] == 1.0


def test_battery_check_reads_the_report_verdict():
    doc = {"lambda": 2.0, "trunc": 64, "criteria": [{"name": "c01", "pass": False}], "all_pass": False}
    reason = workloads.check_cli_output("battery", 2.0, 64, 0, json.dumps(doc), None)
    assert reason is not None and "c01" in reason
    assert workloads.check_cli_output("battery", 2.0, 64, 1, "", None) == "exit code 1"


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK_JSON["command"][1:], "--workload", "battery", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
