"""The three benchmark workloads: seeded inputs, the command each operation
runs, and the check every operation's output must pass.

Pure standard library, so run.py can use it without importing numpy or
isoladder (its own process then starts no BLAS pool).

Why these three (see README.md for the layer map):

- battery: one fresh `isoladder report` process per operation.  What a CLI
  user pays; the exact PDO identities (c07) dominate it.  A fresh process
  means a module-level cache cannot fake a gain.
- pdo_cli: one fresh `isoladder pdo --w w` process per operation, w a small
  rational.  Uses the PDO layer at one *rational* w, where battery also
  expands with symbolic w, so a change that helps one can slow the other.
- lambda_sweep: an in-process library loop at N=512 (20 480 grid nodes) over
  seeded lambda.  No PDO work at all; an ~84 MB working set per N x nodes
  table instead of ~2 MB at N=64.
"""

from __future__ import annotations

import json
import random
import statistics
from pathlib import Path
from time import perf_counter

import hostspeed

WORKLOADS = ("battery", "pdo_cli", "lambda_sweep")

BATTERY_LAMBDAS = (-3.0, -1.0, 0.8963, 2.0, 10.0, 50.0)
BATTERY_TRUNC = 64
PDO_WS = tuple(k / 4 for k in range(1, 21))
SWEEP_TRUNC = 512
SWEEP_ABS_LAMBDA = (0.9, 50.0)
SWEEP_Q = 1.1
# the bounds `isoladder spectrum` and `isoladder commutator` apply
SWEEP_EIGEN_COUNT = 40
SWEEP_EIGEN_TOL = 1e-6
SWEEP_THETA_DIAG_TOL = 1e-6

# more inputs than any run can use; runs cycle through them in order
_INPUT_COUNT = 1200

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "pdo_series.json"


def default_trunc(workload: str) -> int:
    return SWEEP_TRUNC if workload == "lambda_sweep" else BATTERY_TRUNC


def make_inputs(workload: str, seed: int) -> list[float]:
    """The parameter of each operation, in order; the same seed gives the same list.

    The CLI workloads draw whole shuffled copies of their value set, so any
    run of at least one set's length sees every value equally often.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "lambda_sweep":
        lo, hi = SWEEP_ABS_LAMBDA
        return [rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi) for _ in range(_INPUT_COUNT)]
    values = {"battery": BATTERY_LAMBDAS, "pdo_cli": PDO_WS}[workload]
    out: list[float] = []
    while len(out) < _INPUT_COUNT:
        block = list(values)
        rng.shuffle(block)
        out += block
    return out


def cli_args(workload: str, value: float, trunc: int) -> list[str]:
    """Arguments after `isoladder` for one operation of a CLI workload."""
    if workload == "battery":
        return ["report", f"--lambda={value!r}", f"--trunc={trunc}"]
    if workload == "pdo_cli":
        return ["pdo", f"--w={value!r}"]
    raise ValueError(f"{workload} is not a CLI workload")


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    """{repr(w): {"lowering_series": [...], "raising_series": [...]}} for every w in PDO_WS."""
    return json.loads(path.read_text(encoding="utf-8"))


def check_cli_output(workload: str, value: float, trunc: int, exit_code: int,
                     stdout: str, golden: dict | None) -> str | None:
    """None when the operation succeeded, else the reason it failed."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    if workload == "battery":
        if doc.get("lambda") != value or doc.get("trunc") != trunc:
            return "report echoes another configuration"
        if not doc.get("criteria"):
            return "report lists no criteria"
        if doc.get("all_pass") is not True:
            failed = [c.get("name") for c in doc["criteria"] if c.get("pass") is not True]
            return f"all_pass is not true (failed: {failed})"
        return None
    if doc.get("w") != value:
        return "pdo echoes another w"
    checks = doc.get("checks") or []
    if not checks or any(c.get("verdict") != "PASS" for c in checks):
        return f"check verdicts {[(c.get('name'), c.get('verdict')) for c in checks]}"
    if doc.get("pass") is not True:
        return "pass is not true"
    want = (golden or {}).get(repr(value))
    if want is None:
        return f"no golden series for w={value!r}"
    for key in ("lowering_series", "raising_series"):
        if doc.get(key) != want[key]:
            return f"{key} differs from golden text"
    return None


def closed_loop(run_one, seconds: float, max_ops: int | None = None, probe=hostspeed.probe):
    """One operation at a time, each started after the previous one ended.

    run_one(i) runs operation i and returns None or a failure reason.
    probe(), a host-speed probe, runs before the first operation and after
    each one; an operation's host slowness is the mean of the probes on
    either side of it.  No operation starts that would end after `seconds`
    at the median pace so far, so a run lasts about `seconds` whatever the
    operation length.  Returns [(wall_s, reason, slowness), ...].
    """
    results: list[tuple[float, str | None, float]] = []
    probe_s: list[float] = []
    probe()  # untimed: the first call pays one-time library set-up
    before = probe()
    start = perf_counter()
    while True:
        if results:
            if max_ops is not None and len(results) >= max_ops:
                break
            pace = statistics.median(wall for wall, _, _ in results) + statistics.median(probe_s)
            if perf_counter() - start + pace > seconds:
                break
        t0 = perf_counter()
        reason = run_one(len(results))
        t1 = perf_counter()
        after = probe()
        probe_s.append(perf_counter() - t1)
        results.append((t1 - t0, reason, (before + after) / 2))
        before = after
    return results
