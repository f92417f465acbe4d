"""The battery's plumbing: criterion names on the error path, and the names
the benchmark's tracer reads from the package."""

import importlib.util
import sys
from pathlib import Path

import pytest

from isoladder import cli, coherent, fock, isospectral, ladder, numerics, pdo, report

NAMES = {
    "criterion_01_isospectrality": "c01_isospectrality",
    "criterion_02_riccati": "c02_riccati_residual",
    "criterion_03_c_coefficients": "c03_c_closed_form",
    "criterion_04_commutator_diag": "c04_commutator_diagonal",
    "criterion_05_closed_forms": "c05_closed_form_equivalence",
    "criterion_06_resolvent": "c06_resolvent_inv_sqrt",
    "criterion_07_pdo_golden": "c07_pdo_identities",
    "criterion_08_cs_eigenresidual": "c08_cs_eigen_residual",
    "criterion_09_perelomov": "c09_perelomov_equivalence",
    "criterion_10_orders": "c10_order_estimates",
    "criterion_11_lambda_limit": "c11_lambda_to_infinity",
    "criterion_12_composite_lowering": "c12_composite_lowering",
}

# one dependency per criterion that, made to raise, breaks only that criterion
DEPENDENCY = {
    "criterion_01_isospectrality": (report, "hermitian_eigensystem"),
    "criterion_02_riccati": (isospectral, "riccati_residual"),
    "criterion_03_c_coefficients": (ladder, "c_coefficients_closed"),
    "criterion_04_commutator_diag": (ladder, "represent_in_theta"),
    "criterion_05_closed_forms": (ladder, "closed_form_case"),
    "criterion_06_resolvent": (ladder, "resolvent_inv_sqrt"),
    "criterion_07_pdo_golden": (pdo, "series_invert"),
    "criterion_08_cs_eigenresidual": (report, "apply_operator"),
    "criterion_09_perelomov": (coherent, "generalized_cs"),
    "criterion_10_orders": (coherent, "order_estimate"),
    "criterion_11_lambda_limit": (report, "grid_norm"),
    "criterion_12_composite_lowering": (isospectral, "b_dagger_a_b_cs"),
}


def _raise(*args, **kwargs):
    raise RuntimeError("injected failure")


@pytest.fixture(scope="module")
def context():
    return report._Context(lam=2.0, trunc=64)


def test_every_criterion_is_named_and_has_a_dependency():
    assert [fn.__name__ for fn in report.ALL_CRITERIA] == list(NAMES)
    assert set(DEPENDENCY) == set(NAMES)


@pytest.mark.parametrize("criterion", report.ALL_CRITERIA, ids=lambda fn: fn.__name__)
def test_raising_dependency_keeps_the_criterion_name(criterion, context, monkeypatch):
    module, attr = DEPENDENCY[criterion.__name__]
    monkeypatch.setattr(module, attr, _raise)
    result = criterion(context)
    assert result.name == NAMES[criterion.__name__]
    assert not result.passed
    assert result.parts == [("construction_error: injected failure", float("inf"), 1.0, False)]


def test_run_all_reports_the_normal_name_for_a_raising_criterion(monkeypatch):
    monkeypatch.setattr(report, "ALL_CRITERIA", [report.criterion_02_riccati])
    monkeypatch.setattr(isospectral, "riccati_residual", _raise)
    (result,) = report.run_all(lam=2.0, trunc=64)
    assert result.name == "c02_riccati_residual"
    assert result.measured == float("inf") and not result.passed


def _load_tracing(monkeypatch):
    # read the benchmark's tracer from its file without importing perfbench/
    # as a package or writing bytecode next to it
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_layer_metric_has_a_traced_target(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    modules = {"numerics": numerics, "fock": fock, "isospectral": isospectral, "ladder": ladder,
               "coherent": coherent, "pdo": pdo, "report": report, "cli": cli}
    assert tuple(modules) == tracing.LAYERS
    spans = set(tracing._targets(modules).values())
    wanted = set(tracing.SELF_METRICS) | set(tracing.CALL_METRICS) | set(tracing.TOTAL_METRICS)
    assert sorted(wanted - spans) == []
