"""Span recorder for traced benchmark runs.

The benchmark wraps each isoladder module's public functions (and a few
layer-boundary methods) from the outside: the package itself is not edited.
Every wrapped call records one span (name, start, end, parent span,
operation id); spans stay in memory and are written once at the end.

Self time of a span is its duration minus the durations of its direct
children.  Calls are strictly nested (one thread), so the self times of all
spans of an operation, including its root span, add up to the operation's
wall time; the root's self time is the time no layer span covers.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import re
import statistics
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

LAYERS = ("numerics", "fock", "isospectral", "ladder", "coherent", "pdo", "report", "cli")
ROOT = "op"

# public names whose span carries a shorter or shared name
_ALIASES = {
    "fock.hermitian_eigensystem": "fock.eigh",
    "ladder.transport_to_theta": "ladder.transport",
    "ladder.represent_in_theta": "ladder.transport",
}

# name -> index into a span record
NAME, START, END, PARENT, OP = range(5)

# Per-layer metrics, in the order BENCHMARK.json lists them.  `.self_s` is a
# median per-operation self time, `.s` the median per-operation time inside
# the outermost spans of that name, `.calls` the median per-operation count.
SELF_METRICS = (
    "pdo.series_multiply", "pdo.series_invert", "pdo.series_sqrt", "pdo.product_identities",
    "numerics.hermite_table", "numerics.erf",
    "isospectral.theta_basis", "isospectral.overlaps", "isospectral.u_matrix",
    "fock.eigh", "fock.matmul",
    "ladder.c_coefficients_closed", "ladder.transport", "ladder.closed_form_case",
    "ladder.resolvent_inv_sqrt",
    "coherent.cs_vector", "coherent.order_estimate", "coherent.displacement_operator",
)
CALL_METRICS = ("pdo.series_multiply", "numerics.erf", "fock.matmul")
TOTAL_METRICS = ("pdo.expand_ladder_case_ii", "report.context") + tuple(
    f"report.c{k:02d}" for k in range(1, 13)
)
_TOTAL_SET = frozenset(TOTAL_METRICS)


class SpanRecorder:
    """In-memory spans of the operations run inside `operation()` blocks."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op: int | None = None

    @contextmanager
    def operation(self, op_id: int):
        """Root span of one operation; wrapped calls inside it become its descendants."""
        if self._op is not None:
            raise RuntimeError("operations do not nest")
        index = len(self.spans)
        span = [ROOT, 0.0, 0.0, -1, op_id]
        self.spans.append(span)
        self._stack.append(index)
        self._op = op_id
        span[START] = perf_counter()
        try:
            yield
        finally:
            span[END] = perf_counter()
            self._stack.clear()
            self._op = None

    def wrap(self, name: str, fn):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if recorder._op is None:
                return fn(*args, **kwargs)
            stack = recorder._stack
            span = [name, 0.0, 0.0, stack[-1], recorder._op]
            stack.append(len(recorder.spans))
            recorder.spans.append(span)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()

        return traced

    def write(self, path: Path):
        """All spans as gzipped JSON lines: [op, index, parent, name, start, end]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps([s[OP], i, s[PARENT], s[NAME], s[START], s[END]]) + "\n")


def _targets(modules: dict) -> dict:
    """{original callable: span name} for every layer boundary that gets a span."""
    out = {}
    for layer, mod in modules.items():
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                full = f"{layer}.{name}"
                out[obj] = _ALIASES.get(full, full)
    report, cli, isospectral, fock = (modules[k] for k in ("report", "cli", "isospectral", "fock"))
    for fn in report.ALL_CRITERIA:
        number = re.match(r"criterion_(\d+)_", fn.__name__).group(1)
        out[fn] = f"report.c{number}"
    for command, fn in cli.COMMANDS.items():
        out[fn] = f"cli.cmd_{command}"
    out[report._Context.__init__] = "report.context"
    out[isospectral.ThetaBasis.__init__] = "isospectral.theta_basis"
    out[isospectral.ThetaBasis._overlaps] = "isospectral.overlaps"
    out[fock.TruncatedOperator.__matmul__] = "fock.matmul"
    return out


def instrument(recorder: SpanRecorder, modules: dict) -> int:
    """Replace every reference to a target callable inside the isoladder package.

    References live in module namespaces (including names a module imported
    from another), in module-level lists and dicts (report.ALL_CRITERIA,
    cli.COMMANDS) and in class dicts (methods).  Returns how many were replaced.
    """
    targets = _targets(modules)
    wrapped = {fn: recorder.wrap(name, fn) for fn, name in targets.items()}
    replaced = 0
    packages = [m for n, m in sorted(sys.modules.items()) if n == "isoladder" or n.startswith("isoladder.")]
    for mod in packages:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(mod, attr, wrapped[value])
                replaced += 1
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    if inspect.isfunction(item) and item in wrapped:
                        value[i] = wrapped[item]
                        replaced += 1
            elif isinstance(value, dict) and not attr.startswith("__"):
                for key, item in list(value.items()):
                    if inspect.isfunction(item) and item in wrapped:
                        value[key] = wrapped[item]
                        replaced += 1
            elif inspect.isclass(value) and value.__module__ == mod.__name__:
                for name, item in list(vars(value).items()):
                    if inspect.isfunction(item) and item in wrapped:
                        setattr(value, name, wrapped[item])
                        replaced += 1
    return replaced


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def op_summaries(spans: list[list]) -> list[dict]:
    """Per operation: wall time, unattributed time, and self/total/call sums by name and layer."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    by_root: dict[int, dict] = {}
    for i, s in enumerate(spans):
        duration = s[END] - s[START]
        self_time = duration - child_time[i]
        if s[PARENT] < 0:
            summary = {"op": s[OP], "wall": duration, "unattributed": self_time,
                       "self": {}, "total": {}, "calls": {}, "layer_self": {}, "c07_pdo_self": 0.0}
            by_root[s[OP]] = summary
            continue
        summary = by_root[s[OP]]
        name = s[NAME]
        summary["self"][name] = summary["self"].get(name, 0.0) + self_time
        summary["calls"][name] = summary["calls"].get(name, 0) + 1
        layer = name.split(".", 1)[0]
        summary["layer_self"][layer] = summary["layer_self"].get(layer, 0.0) + self_time
        if name not in _TOTAL_SET and layer != "pdo":
            continue
        outermost, in_c07 = True, False
        p = s[PARENT]
        while p >= 0:
            outermost = outermost and spans[p][NAME] != name
            in_c07 = in_c07 or spans[p][NAME] == "report.c07"
            p = spans[p][PARENT]
        if outermost and name in _TOTAL_SET:
            summary["total"][name] = summary["total"].get(name, 0.0) + duration
        if in_c07 and layer == "pdo":
            summary["c07_pdo_self"] += self_time
    return list(by_root.values())


def layer_metrics(ops: list[dict]) -> dict[str, float]:
    """Median over traced operations (see op_summaries) of each per-layer metric."""
    out: dict[str, float] = {}
    for name in SELF_METRICS:
        out[f"{name}.self_s"] = _median([o["self"].get(name, 0.0) for o in ops])
    for name in CALL_METRICS:
        out[f"{name}.calls"] = _median([o["calls"].get(name, 0) for o in ops])
    for name in TOTAL_METRICS:
        out[f"{name}.s"] = _median([o["total"].get(name, 0.0) for o in ops])
    for layer in LAYERS:
        out[f"{layer}.self_s"] = _median([o["layer_self"].get(layer, 0.0) for o in ops])
    out["report.c07.pdo_share"] = _median(
        [o["c07_pdo_self"] / o["total"]["report.c07"] for o in ops if o["total"].get("report.c07")]
    )
    out["trace.unattributed_share"] = _median([o["unattributed"] / o["wall"] for o in ops])
    return out
