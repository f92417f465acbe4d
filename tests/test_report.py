"""The battery's plumbing: criterion names on the error path, and the names
the benchmark's tracer reads from the package."""

import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
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

# one dependency per criterion that, made to raise, breaks only that criterion; c12's, the band residual, breaks
# c08 too, which applies its ladder band through it
DEPENDENCY = {
    "criterion_01_isospectrality": (report, "h_tilde_eigenvalues"),
    "criterion_02_riccati": (isospectral, "riccati_residual"),
    "criterion_03_c_coefficients": (ladder, "c_coefficients_closed"),
    "criterion_04_commutator_diag": (ladder, "commutator_diagonal"),
    "criterion_05_closed_forms": (ladder, "closed_form_case"),
    "criterion_06_resolvent": (ladder, "resolvent_inv_sqrt"),
    "criterion_07_pdo_golden": (pdo, "series_invert"),
    "criterion_08_cs_eigenresidual": (coherent, "cs_residual"),
    "criterion_09_perelomov": (coherent, "d_theta1_deviation"),
    "criterion_10_orders": (coherent, "order_estimate"),
    "criterion_11_lambda_limit": (report, "grid_norm"),
    "criterion_12_composite_lowering": (coherent, "band_residual"),
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


def test_c06_bites_when_the_midpoint_rule_takes_too_few_nodes(context, monkeypatch):
    # the rule's 23 nodes at N = 32 reach rounding, below the 1.97e-15 c06 read with 200 Gauss-Legendre nodes;
    # 6 nodes leave 2 e^{-24a} = 4.3e-5, a = artanh(32^(-1/4)), and c06 fails against its 1e-6
    (label, value, bound, ok), = report.criterion_06_resolvent(context).parts
    assert (label, bound, ok) == ("resolvent_vs_spectral_N32", 1e-6, True) and value < 1.97e-15
    monkeypatch.setattr(ladder, "_resolvent_nodes", lambda kappa: 6)
    result = report.criterion_06_resolvent(context)
    (label, value, bound, ok), = result.parts
    assert not result.passed and not ok
    assert value == pytest.approx(4.26e-5, rel=1e-2)


def test_no_two_c10_order_parts_read_the_same_weights(context, monkeypatch):
    # the order fit reads log W_n for n = 1 .. 10^4 and nothing else, so two rules equal there repeat one part
    read = {}
    order_estimate = coherent.order_estimate

    def recording(weights):
        read[weights.label()] = weights.log_partial_sum_array(coherent._FIT_HI)
        return order_estimate(weights)

    monkeypatch.setattr(coherent, "order_estimate", recording)
    labels = [label[4:-1] for label, _, _, _ in report.criterion_10_orders(context).parts if label.startswith("rho[")]
    for k, first in enumerate(labels):
        for second in labels[k + 1:]:
            assert not np.array_equal(read[first], read[second]), f"rho[{first}] and rho[{second}] read one log W_n"
    assert len(labels) == 5


def test_a_failing_d_theta1_check_fails_c09_alone(monkeypatch):
    # c09 records the check; no other criterion reads it
    monkeypatch.setattr(coherent, "d_theta1_deviation", _raise)
    assert [r.name for r in report.run_all(lam=2.0, trunc=64) if not r.passed] == ["c09_perelomov_equivalence"]


def test_run_all_reports_the_normal_name_for_a_raising_criterion(monkeypatch):
    monkeypatch.setattr(report, "ALL_CRITERIA", [report.criterion_02_riccati])
    monkeypatch.setattr(isospectral, "riccati_residual", _raise)
    (result,) = report.run_all(lam=2.0, trunc=64)
    assert result.name == "c02_riccati_residual"
    assert result.measured == float("inf") and not result.passed


def test_run_all_builds_one_hermite_table_and_one_b_dagger_per_basis(monkeypatch):
    # one grid, so one table; two theta bases (lambda and c11's lambda = 1e6), so two b^dagger.
    # An empty grid memo, so the table is built here and not by an earlier test.
    numerics._build_grid.cache_clear()
    tables, b_daggers = [], []
    hermite_table, b_dagger_matrix = numerics.hermite_table, isospectral.b_dagger_matrix

    def counted_table(points, max_index):
        tables.append(max_index)
        return hermite_table(points, max_index)

    def counted_b_dagger(basis):
        b_daggers.append((basis, b_dagger_matrix(basis)))
        return b_daggers[-1][1]

    monkeypatch.setattr(numerics, "hermite_table", counted_table)
    monkeypatch.setattr(isospectral, "b_dagger_matrix", counted_b_dagger)
    report.run_all(2.0, 64)
    assert tables == [63]
    assert len({id(basis) for basis, _ in b_daggers}) == 2
    assert len({id(op) for _, op in b_daggers}) == 2


def test_run_all_builds_one_displacement(monkeypatch):
    # c09 builds one D and checks its theta_1 column
    built, displacement_operator = [], coherent.displacement_operator

    def counted(*args):
        built.append(args)
        return displacement_operator(*args)

    monkeypatch.setattr(coherent, "displacement_operator", counted)
    report.run_all(2.0, 64)
    assert len(built) == 1


def test_run_all_leaves_numpy_random_unloaded():
    # a fresh interpreter: c03 draws its custom weights from the standard library's random module
    script = ("import sys\nfrom isoladder import report\nresults = report.run_all(2, 64)\n"
              "print(all(r.passed for r in results), 'numpy.random' in sys.modules)")
    path = os.pathsep.join(filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                                         os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert run.stdout == "True False\n"


def test_part_names_are_unique_within_each_criterion():
    # a consumer that keys parts by name sees every part: c03 tells its three random lists apart
    parts = {r.name: [label for label, *_ in r.parts] for r in report.run_all(2, 64)}
    for name, labels in parts.items():
        assert len(labels) == len(set(labels)), name
    assert [label for label in parts["c03_c_closed_form"] if "custom" in label] == [
        f"{check}[custom[501]#{k}]" for k in (1, 2, 3) for check in ("closed_vs_recursive", "telescoped_identity")]
    assert parts["c07_pdo_identities"][3:5] == ["b_phi0_equals_a", "bdag_b_equals_h_minus_phiprime"]


READ_U = ["c01_isospectrality", "c11_lambda_to_infinity"]


def test_c05_reads_no_u(context, monkeypatch):
    # the closed forms and the ladder meet on the Fock band, where U cancels: with no U, b or overlaps to
    # build, c05 passes with the same parts, bit for bit
    parts = report.criterion_05_closed_forms(context).parts
    for owner, name in ((isospectral, "u_matrix"), (isospectral, "b_matrix"), (isospectral.ThetaBasis, "_overlaps")):
        monkeypatch.setattr(owner, name, _raise)
    result = report.criterion_05_closed_forms(context)
    assert result.passed and result.parts == parts


@pytest.mark.parametrize("trunc", [16, 64, 512])
def test_c12_band_is_the_dense_b_dagger_a_b(trunc):
    # c12 applies b+ a b as its band; the dense (n-1) sqrt(n) at (n-1, n), built here, is the reference
    ctx = report._Context(2.0, trunc)
    n = np.arange(1.0, trunc + 1)
    cs = coherent.shift_eigenstate(np.log(n * n * (n + 1.0)), 0.8 + 0.3j, 1, ctx.tag)
    dense = np.diag((n[:-1] - 1.0) * np.sqrt(n[:-1]), 1) @ cs.coeffs
    (label, value, bound, ok), = report.criterion_12_composite_lowering(ctx).parts
    assert (label, bound, ok) == ("cs_eigen_residual", 1e-7, True)
    assert value == float(np.linalg.norm(dense - (0.8 + 0.3j) * cs.coeffs))


def _failed_parts(capsys):
    assert cli.main(["report"]) == 1
    doc = json.loads(capsys.readouterr().out)
    return {c["name"]: c["parts"] for c in doc["criteria"] if not c["pass"]}


def test_a_grid_that_cannot_carry_psi_fails_the_criteria_that_read_u(monkeypatch, capsys):
    # on 32 nodes psi W psi^T is far from I, so the overlaps refuse the grid by name
    monkeypatch.setattr(report, "build_grid", lambda N: numerics.build_grid(N, nodes=32))
    failed = _failed_parts(capsys)
    assert sorted(failed) == READ_U
    for (part,) in failed.values():
        assert part["name"].startswith("construction_error: grid of 32 nodes cannot carry psi_0 .. psi_63: "
                                       "max_n |sum_i w_i psi_n(x_i)^2 - 1| = ")


def test_non_unitary_overlaps_fail_the_criteria_that_read_u(monkeypatch, capsys):
    # overlaps whose last column repeats the first are singular, so u_matrix refuses them
    overlaps = isospectral.ThetaBasis._overlaps
    monkeypatch.setattr(isospectral.ThetaBasis, "_overlaps",
                        lambda basis: np.column_stack((overlaps(basis)[:, :-1], overlaps(basis)[:, 0])))
    failed = _failed_parts(capsys)
    assert sorted(failed) == READ_U
    for (part,) in failed.values():
        assert part["name"].startswith("construction_error: polar factor: ||X^T X - I||_inf = ")


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


class TestOneExpansionPerCheck:
    """c07 and `isoladder pdo` each expand the case-ii ladder pair once."""

    @pytest.fixture
    def expansions(self, monkeypatch):
        calls = []
        expand = pdo.expand_ladder_case_ii

        def counted(w=None):
            calls.append(w)
            return expand(w=w)

        monkeypatch.setattr(pdo, "expand_ladder_case_ii", counted)
        return calls

    def test_c07(self, expansions, context):
        assert report.criterion_07_pdo_golden(context).passed
        assert expansions == [None]

    def test_pdo_command(self, expansions, capsys):
        assert cli.main(["pdo", "--w", "3"]) == 0
        assert expansions == [Fraction(3)]
