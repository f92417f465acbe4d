"""Benchmark worker: the set-up probe and the in-process operation loops.

    python3 perfbench/worker.py setup --workload W --seed N
    python3 perfbench/worker.py loop --workload W --seed N --seconds S --trace 0|1

`setup` imports isoladder from the checkout's src/, generates the workload's
inputs, prints one "ready" line (run.py times the interpreter start to
that line) and then a line of run metadata.

`loop` runs operations in this process for S seconds and prints one JSON
line with each operation's wall time, failure reason and host slowness (see
hostspeed.py).  lambda_sweep runs here untraced; every workload runs here
traced, the CLI workloads through `cli.main` with the same arguments the CLI
process would get.  A traced loop spends the first half of S untraced and the
second half traced, both over the same inputs, so the difference of their
medians is the tracing overhead.

perfbench/run.py is the program to run; this file is its helper.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import hostspeed  # noqa: E402
import tracing  # noqa: E402  (perfbench/ is sys.path[0] when run as a script)
import workloads  # noqa: E402

MODULES = ("numerics", "fock", "isospectral", "ladder", "coherent", "pdo", "report", "cli")
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def import_isoladder() -> dict:
    """{layer name: module}, imported from this checkout's src/ and nowhere else."""
    import isoladder
    import isoladder.cli  # noqa: F401

    if SRC.resolve() not in Path(isoladder.__file__).resolve().parents:
        raise SystemExit(f"error: isoladder imported from {isoladder.__file__}, not from {SRC}")
    return {name: importlib.import_module(f"isoladder.{name}") for name in MODULES}


def blas_pool() -> tuple[int | None, str | None]:
    """(threads in the loaded OpenBLAS pool, library file), read through its own API."""
    import ctypes

    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in Path(path).name.lower():
                libs.add(path)
    for path in sorted(libs):
        handle = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn()), Path(path).name
    return None, None


def metadata(trunc: int, modules: dict) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads, lib = blas_pool()
    env = {k: os.environ[k] for k in _BLAS_ENV if k in os.environ}
    nodes = modules["numerics"].build_grid(trunc).node_count
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_library": lib,
        "blas_threads": threads,
        "blas_threads_set_by": (", ".join(f"{k}={v}" for k, v in env.items())
                                or "library default: one thread per visible core"),
        "nproc": len(os.sched_getaffinity(0)),
        "trunc": trunc,
        "grid_nodes": nodes,
        # psi, theta and the weighted theta are each one N x nodes float64 table
        "largest_table_bytes": trunc * nodes * 8,
    }


def cmd_setup(args) -> int:
    t0 = perf_counter()
    modules = import_isoladder()
    import_s = perf_counter() - t0
    workloads.make_inputs(args.workload, args.seed)
    if args.workload == "pdo_cli":
        workloads.load_golden()
    print(json.dumps({"ready": True, "import_s": import_s}), flush=True)
    print(json.dumps(metadata(args.trunc, modules)), flush=True)
    return 0


def sweep_op(modules: dict, trunc: int):
    """One lambda_sweep operation: the `spectrum` and theta-route `commutator` pipeline."""
    numerics, fock, isospectral, ladder = (modules[k] for k in ("numerics", "fock", "isospectral", "ladder"))
    import numpy as np

    def run(lam: float) -> str | None:
        params = isospectral.IsospectralParams(lam)
        grid = numerics.build_grid(trunc)
        basis = isospectral.ThetaBasis(params, grid, trunc)
        u = isospectral.u_matrix(basis)
        evals, _ = fock.hermitian_eigensystem(isospectral.h_tilde_matrix(basis))
        count = workloads.SWEEP_EIGEN_COUNT
        if evals.shape[0] < count:
            return f"only {evals.shape[0]} eigenvalues, {count} checked"
        eig_dev = float(np.max(np.abs(evals[:count] - np.arange(float(count)))))
        if not eig_dev < workloads.SWEEP_EIGEN_TOL:
            return f"eigenvalue deviation {eig_dev:.3e}"

        weights = ladder.geometric_weights(workloads.SWEEP_Q)
        low, high = ladder.ladder_matrices(weights, trunc, fock.FOCK)
        low_t = ladder.transport_to_theta(low, u, basis.tag)
        high_t = ladder.transport_to_theta(high, u, basis.tag)
        comm = ladder.represent_in_theta(fock.commutator(low_t, high_t), u, basis.tag)
        inner = fock.interior_block(comm.mat)
        target = np.zeros(trunc)
        target[1:] = weights.weight_array(trunc - 1)
        target = target[: inner.shape[0]]
        diag = np.real(np.diag(inner))
        resid = float(np.max(np.abs(diag - target) / np.maximum(1.0, np.abs(target))))
        if not resid < workloads.SWEEP_THETA_DIAG_TOL:
            return f"theta-route diagonal residual {resid:.3e}"
        return None

    return run


def cli_op(modules: dict, workload: str, trunc: int, golden: dict | None):
    """One CLI operation run in this process through cli.main."""
    cli = modules["cli"]

    def run(value: float) -> str | None:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(workloads.cli_args(workload, value, trunc))
        return workloads.check_cli_output(workload, value, trunc, code, out.getvalue(), golden)

    return run


def cmd_loop(args) -> int:
    modules = import_isoladder()
    inputs = workloads.make_inputs(args.workload, args.seed)
    probe = hostspeed.probe
    if args.workload == "lambda_sweep":
        op = sweep_op(modules, args.trunc)
        probe = hostspeed.numeric_probe
    else:
        golden = workloads.load_golden(Path(args.golden or workloads.GOLDEN_PATH))
        op = cli_op(modules, args.workload, args.trunc, golden)

    def run_one(i: int) -> str | None:
        try:
            return op(inputs[i % len(inputs)])
        except Exception as exc:  # a raising operation is a failed operation; keep measuring
            return f"{type(exc).__name__}: {exc}"

    recorder = tracing.SpanRecorder()

    def run_traced(i: int) -> str | None:
        with recorder.operation(i):
            return run_one(i)

    phases = [("untraced", run_one, args.seconds / (2 if args.trace else 1))]
    if args.trace:
        phases.append(("traced", run_traced, args.seconds / 2))
    doc = {"phases": {}}
    for name, fn, seconds in phases:
        if name == "traced":
            doc["wrapped_references"] = tracing.instrument(recorder, modules)
        doc["phases"][name] = {"ops": workloads.closed_loop(fn, seconds, args.max_ops, probe)}
    if args.trace:
        ops = tracing.op_summaries(recorder.spans)
        doc["layers"] = tracing.layer_metrics(ops)
        doc["unattributed_share_per_op"] = [o["unattributed"] / o["wall"] for o in ops]
        doc["spans"] = len(recorder.spans)
        if args.trace_out:
            recorder.write(Path(args.trace_out))
    print(json.dumps(doc), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/worker.py")
    parser.add_argument("mode", choices=("setup", "loop"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trunc", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", dest="max_ops", type=int, default=None)
    parser.add_argument("--golden", default=None, help="golden series file (default: the committed one)")
    parser.add_argument("--trace-out", dest="trace_out", default=None, help="gzipped JSON-lines span file")
    args = parser.parse_args(argv)
    if args.trunc is None:
        args.trunc = workloads.default_trunc(args.workload)
    return cmd_setup(args) if args.mode == "setup" else cmd_loop(args)


if __name__ == "__main__":
    sys.exit(main())
