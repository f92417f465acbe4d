"""isoladder benchmark: the program to run (perfbench/run.py).

    python3 perfbench/run.py --workload battery|pdo_cli|lambda_sweep|all \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures the isoladder in that
checkout's src/.  With --trace 0 it prints the end-to-end metrics
(setup_s, op_p50_s, ops_per_s, peak_rss_mb, error_rate), with --trace 1 the
per-layer metrics, one per line with its unit, then run metadata, and as the
last line one JSON object {"correct", "attempted", "failed", "metrics"}.
--workload all runs the three workloads one after another and prefixes each
metric with its workload.  See perfbench/README.md.

Every workload is a closed loop: one client, one operation at a time, each
started when the previous one ended.  Set-up and operation times are scaled
to a reference host speed by the probes in hostspeed.py.  The BLAS pool is
left at its default; the run refuses to start when that pool has more
threads than there are cores to run them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
TRACE_DIR = HERE / "out"

sys.path.insert(0, str(HERE))
import hostspeed  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 7
# a run of one workload kills whatever child is still running this long after it began
RUN_TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot measure; it prints no result."""


def _units(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_share"):
        return "ratio"
    return "s"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], deadline: float, on_first_line=None) -> tuple[int, str, float]:
    """Run one child to its end: (exit code, stdout, its peak RSS in MB).

    The peak RSS is the child's own ru_maxrss, reaped with wait4.  stderr is
    passed through.  A child still running at `deadline` (perf_counter time)
    is killed.  on_first_line, if given, is called the moment the first
    stdout line arrives.
    """
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    killer = threading.Timer(max(0.0, deadline - perf_counter()), proc.kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        if on_first_line is not None:
            on_first_line()
        out = first + proc.stdout.read()
    finally:
        killer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss / 1024.0


def measure_setup(workload: str, seed: int, trunc: int, runs: int, deadline: float) -> dict:
    """Median time from starting a fresh interpreter to its ready line, over `runs` starts.

    One extra untimed start first compiles the bytecode and warms the file
    cache.  Each timed start is scaled by the mean of the host-speed probes
    run before and after it.
    """
    argv = [sys.executable, str(WORKER), "setup", "--workload", workload,
            "--seed", str(seed), "--trunc", str(trunc)]
    samples, raw, import_s, meta = [], [], [], None
    before = hostspeed.probe()
    for i in range(runs + 1):
        ready: list[float] = []
        t0 = perf_counter()
        code, out, _ = run_child(argv, deadline, on_first_line=lambda: ready.append(perf_counter()))
        lines = out.splitlines()
        if code != 0 or len(lines) < 2 or not json.loads(lines[0]).get("ready"):
            raise BenchmarkError(f"set-up probe failed (exit {code}): {out.strip()[:500]}")
        after = hostspeed.probe()
        if i:
            raw.append(ready[0] - t0)
            samples.append(hostspeed.scaled(raw[-1], (before + after) / 2))
            import_s.append(json.loads(lines[0])["import_s"])
        before = after
        meta = json.loads(lines[1])
    return {"setup_s": statistics.median(samples), "raw_setup_s": statistics.median(raw),
            "import_s": statistics.median(import_s), "setup_samples": len(samples), "meta": meta}


def run_worker_loop(workload: str, seed: int, seconds: float, trace: int, trunc: int,
                    max_ops: int | None, golden_path: Path | None, deadline: float) -> tuple[dict, float]:
    argv = [sys.executable, str(WORKER), "loop", "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(trace), "--trunc", str(trunc)]
    if max_ops is not None:
        argv += ["--max-ops", str(max_ops)]
    if golden_path is not None:
        argv += ["--golden", str(golden_path)]
    if trace:
        argv += ["--trace-out", str(TRACE_DIR / f"spans-{workload}-seed{seed}.jsonl.gz")]
    code, out, rss = run_child(argv, deadline)
    if code != 0 or not out.strip():
        raise BenchmarkError(f"worker loop failed (exit {code})")
    return json.loads(out.strip().splitlines()[-1]), rss


def run_cli_loop(workload: str, seed: int, seconds: float, trunc: int, max_ops: int | None,
                 golden_path: Path | None, deadline: float) -> tuple[list, float]:
    """Untraced CLI workload: one fresh `python -m isoladder` process per operation."""
    inputs = workloads.make_inputs(workload, seed)
    golden = workloads.load_golden(golden_path or workloads.GOLDEN_PATH)
    peak = [0.0]

    def run_one(i: int) -> str | None:
        value = inputs[i % len(inputs)]
        argv = [sys.executable, "-m", "isoladder", *workloads.cli_args(workload, value, trunc)]
        code, out, rss = run_child(argv, deadline)
        peak[0] = max(peak[0], rss)
        return workloads.check_cli_output(workload, value, trunc, code, out, golden)

    return workloads.closed_loop(run_one, seconds, max_ops), peak[0]


def _scaled(results) -> list[float]:
    return [hostspeed.scaled(wall, slowness) for wall, _, slowness in results]


def _p50(results) -> float:
    return statistics.median(_scaled(results))


def run_workload(workload: str, seed: int, seconds: float, trace: int, *,
                 trunc: int | None = None, max_ops: int | None = None,
                 golden_path: Path | None = None, setup_runs: int = SETUP_RUNS) -> dict:
    """One benchmark run of one workload: metrics, counts and metadata."""
    deadline = perf_counter() + RUN_TIMEOUT_S
    trunc = workloads.default_trunc(workload) if trunc is None else trunc
    setup = measure_setup(workload, seed, trunc, setup_runs, deadline)
    meta = dict(setup["meta"], workload=workload, seed=seed, seconds=seconds, trace=trace,
                setup_samples=setup["setup_samples"])
    if meta["blas_threads"] is not None and meta["blas_threads"] > meta["nproc"]:
        raise BenchmarkError(f"BLAS pool of {meta['blas_threads']} threads exceeds nproc={meta['nproc']}")

    if trace:
        doc, _ = run_worker_loop(workload, seed, seconds, 1, trunc, max_ops, golden_path, deadline)
        plain, traced = doc["phases"]["untraced"]["ops"], doc["phases"]["traced"]["ops"]
        results = plain + traced
        metrics = dict(doc["layers"])
        metrics["cli.import_s"] = setup["import_s"]
        metrics["trace.untraced_op_p50_s"] = _p50(plain)
        metrics["trace.traced_op_p50_s"] = _p50(traced)
        metrics["trace.overhead_s"] = metrics["trace.traced_op_p50_s"] - metrics["trace.untraced_op_p50_s"]
        meta.update(op_samples={"untraced": len(plain), "traced": len(traced)}, spans=doc["spans"],
                    wrapped_references=doc["wrapped_references"],
                    unattributed_share_per_op=doc["unattributed_share_per_op"])
        units = {name: _units(name) for name in metrics}
    else:
        if workload == "lambda_sweep":
            doc, peak = run_worker_loop(workload, seed, seconds, 0, trunc, max_ops, None, deadline)
            results = doc["phases"]["untraced"]["ops"]
        else:
            results, peak = run_cli_loop(workload, seed, seconds, trunc, max_ops, golden_path, deadline)
        walls = [wall for wall, _, _ in results]
        metrics = {
            "setup_s": setup["setup_s"],
            "op_p50_s": _p50(results),
            "ops_per_s": len(results) / sum(_scaled(results)),
            "peak_rss_mb": peak,
            "error_rate": sum(1 for _, reason, _ in results if reason is not None) / len(results),
        }
        meta.update(op_samples=len(results), raw_setup_s=setup["raw_setup_s"],
                    raw_op_p50_s=statistics.median(walls), raw_ops_per_s=len(walls) / sum(walls),
                    host_slowness_p50=statistics.median(slowness for _, _, slowness in results))
        units = END_TO_END_UNITS
    failures = [reason for _, reason, _ in results if reason is not None]
    return {
        "workload": workload,
        "attempted": len(results),
        "failed": len(failures),
        "failures": failures,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "meta": meta,
    }


def report_lines(run: dict) -> list[str]:
    lines = [f"# {run['workload']}: {run['attempted']} operations, {run['failed']} failed"]
    lines += [f"#   failure: {reason}" for reason in run["failures"][:5]]
    lines += [f"{run['workload']} {name} {m['value']!r} {m['unit']}" for name, m in run["metrics"].items()]
    if "unattributed_share_per_op" in run["meta"]:
        shares = " ".join(f"{v:.4f}" for v in run["meta"]["unattributed_share_per_op"])
        lines.append(f"# coverage: share of each traced operation's wall time outside every layer span: {shares}")
    lines.append("# meta " + json.dumps(run["meta"], sort_keys=True))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "isoladder" / "__init__.py").is_file():
        print(f"error: no isoladder sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        runs = [run_workload(name, args.seed, args.seconds, args.trace) for name in names]
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics = {}
    for run in runs:
        print("\n".join(report_lines(run)))
        prefix = f"{run['workload']}." if len(runs) > 1 else ""
        for name, m in run["metrics"].items():
            if args.trace or name != "error_rate":  # the error rate travels as attempted/failed
                metrics[prefix + name] = m
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
