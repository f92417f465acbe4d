"""Acceptance battery: the twelve top-level checks the toolkit promises.

Each criterion returns its worst deviation normalized by the stated
tolerance (so pass means measured < 1.0) together with the raw per-part
numbers.  cmd_report and the test suite both run exactly this code, and the
other CLI commands are views over the checks defined here.
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import coherent, isospectral, ladder, pdo
from .fock import (
    FOCK,
    INTERIOR_MARGIN,
    adjoint,
    apply_operator,
    apply_spectral_function,
    hermitian_eigensystem,
    identity_matrix,
    interior_block,
    interior_max_abs,
    number_matrix,
    op_norm_inf,
)
from .numerics import build_grid, grid_norm

__all__ = ["CriterionResult", "run_all", "ALL_CRITERIA", "h_tilde_eigenvalues", "SPECTRUM_BOUND"]

RESIDUAL_FLOOR = 1e-12  # rounding allowance for monotone-decrease checks
SPECTRUM_BOUND = 1e-6  # |eigenvalue n of b+ b - n|, held by c01 and `isoladder spectrum`


@dataclass
class CriterionResult:
    name: str
    passed: bool
    measured: float  # worst deviation / tolerance; < 1 passes
    threshold: float
    seconds: float
    parts: list = field(default_factory=list)  # (label, raw_value, raw_tolerance, ok)

    def add(self, label: str, value: float, tol: float):
        ok = bool(value < tol)
        self.parts.append((label, float(value), float(tol), ok))
        return ok


def _finish(res: CriterionResult, t0: float) -> CriterionResult:
    res.seconds = time.perf_counter() - t0
    ratios = [v / t for _, v, t, _ in res.parts if t > 0]
    res.measured = max(ratios) if ratios else 0.0
    res.passed = all(ok for _, _, _, ok in res.parts) and bool(res.parts)
    return res


def _criterion(name: str):
    """Turn check(ctx, res), which adds parts to res, into a named, timed criterion.

    A refused construction (e.g. a truncation guard at small N) fails the
    criterion with a single construction_error part under the same name.
    """

    def decorate(check):
        @functools.wraps(check)
        def run(ctx) -> CriterionResult:
            res = CriterionResult(name, False, math.inf, 1.0, 0.0)
            t0 = time.perf_counter()
            try:
                check(ctx, res)
            except (ValueError, RuntimeError, ArithmeticError) as exc:
                res.parts = [(f"construction_error: {exc}", math.inf, 1.0, False)]
            return _finish(res, t0)

        return run

    return decorate


class _Context(isospectral.ThetaBasis):
    """The theta basis the criteria read: lambda on a grid built for the truncation."""

    def __init__(self, lam: float, trunc: int):
        super().__init__(isospectral.IsospectralParams(lam), build_grid(trunc), trunc)


def _case_list() -> list[ladder.WeightSequence]:
    """One weight rule per closed form (the paper's cases i-v), geometric below and above q = 1."""
    return [
        ladder.constant_weights(2.0),
        ladder.distorted_weights(0.5),
        ladder.linear_weights(),
        ladder.single_weight(2.0),
        ladder.geometric_weights(0.7),
        ladder.geometric_weights(1.3),
    ]


def h_tilde_eigenvalues(basis: isospectral.ThetaBasis) -> np.ndarray:
    """H~ = b+ b's eigenvalues on the basis, ascending; c01 and `isoladder spectrum` hold the nth to n."""
    return hermitian_eigensystem(isospectral.h_tilde_matrix(basis))[0]


@_criterion("c01_isospectrality")
def criterion_01_isospectrality(ctx: _Context, res: CriterionResult):
    if ctx.N < 44:
        res.add("lowest_40_eigenvalues", math.inf, SPECTRUM_BOUND)
        return
    dev = float(np.max(np.abs(h_tilde_eigenvalues(ctx)[:40] - np.arange(40.0))))
    res.add("lowest_40_eigenvalues_vs_0..39", dev, SPECTRUM_BOUND)


@_criterion("c02_riccati_residual")
def criterion_02_riccati(ctx: _Context, res: CriterionResult):
    for lam in (1.0, 2.0, 10.0):
        p = isospectral.IsospectralParams(lam)
        r = isospectral.riccati_residual(p, ctx.grid)
        res.add(f"lambda={lam:g}", r, 1e-8)


@_criterion("c03_c_closed_form")
def criterion_03_c_coefficients(_: _Context, res: CriterionResult):
    rng = random.Random(20240811)
    sequences = _case_list()[:5] + [ladder.custom_weights([rng.uniform(0.1, 3.0) for _ in range(501)])
                                    for _ in range(3)]
    # the three random lists share the label custom[501]; their draw order tells them apart
    labels = [seq.label() for seq in sequences[:5]] + [f"custom[501]#{k}" for k in (1, 2, 3)]
    n_max = 501
    for seq, label in zip(sequences, labels):
        rec = ladder.c_coefficients_recursive(seq, n_max)
        clo = ladder.c_coefficients_closed(seq, n_max)
        rel = float(np.max(np.abs(clo - rec) / np.abs(rec)))
        res.add(f"closed_vs_recursive[{label}]", rel, 1e-12)
        n = np.arange(0, n_max - 1)
        telescoped = (n + 1) * rec[:-1] * rec[1:]
        W = seq.partial_sum_array(n_max - 1)
        rel_t = float(np.max(np.abs(telescoped - W) / np.abs(W)))
        res.add(f"telescoped_identity[{label}]", rel_t, 1e-12)


@_criterion("c04_commutator_diagonal")
def criterion_04_commutator_diag(ctx: _Context, res: CriterionResult):
    for weights in _case_list():
        for label, _, deviation, bound in ladder.commutator_parts(weights, ctx.N):
            res.add(label, deviation, bound)


@_criterion("c05_closed_form_equivalence")
def criterion_05_closed_forms(ctx: _Context, res: CriterionResult):
    u, b = isospectral.u_matrix(ctx), isospectral.b_matrix(ctx)
    for weights in _case_list():
        closed = ladder.closed_form_case(weights, b)
        fill = ladder.ladder_fill(weights, ctx.N, FOCK)
        general = ladder.transport_to_theta(fill, u, ctx.tag)
        dev = interior_max_abs(closed.mat - general.mat)
        res.add(f"closed_vs_general[{weights.label()}]", dev, 1e-7)
    q_to_1 = ladder.closed_form_case(ladder.geometric_weights(1.0 + 1e-8), b)
    case_i_w1 = ladder.closed_form_case(ladder.constant_weights(1.0), b)
    res.add("q_to_1_limit_vs_case_i_w1", interior_max_abs(q_to_1.mat - case_i_w1.mat), 1e-5)


@_criterion("c06_resolvent_inv_sqrt")
def criterion_06_resolvent(_: _Context, res: CriterionResult):
    N = 32
    x = number_matrix(N) + identity_matrix(N)
    via_resolvent = ladder.resolvent_inv_sqrt(x)
    via_spectral = apply_spectral_function(x, lambda t: t**-0.5)
    dev = float(np.max(np.abs(via_resolvent.mat - via_spectral.mat)))
    res.add("resolvent_vs_spectral_N32", dev, 1e-6)


@_criterion("c07_pdo_identities")
def criterion_07_pdo_golden(_: _Context, res: CriterionResult):
    # inverse-sqrt bracket, its expected coefficients, and its square; b -> a at phi = 0,
    # and b+ b = H - phi', the factorization the ladders are built from
    _, bracket, inverse = pdo.inv_sqrt_one_plus_h()
    for label, ok in pdo.inv_sqrt_bracket_checks(bracket, inverse) + pdo.classical_limit_check():
        res.add(label, 0.0 if ok else 1.0, 0.5)
    # the symbolic-w ladder pair, bound at sampled w, against the hand-derived reference
    rep = pdo.product_identities(w=None)
    for w in (Fraction(1), Fraction(2), Fraction(7, 2)):
        checks = pdo.ladder_reference_checks(rep["lowering"], rep["raising"], w)
        res.add(f"ladder_reference_w={w}", 0.0 if all(ok for _, ok in checks) else 1.0, 0.5)
    # both product identities identically zero (symbolic w)
    res.add("lowering_raising_product_residual", 0.0 if rep["a1_a1dag_ok"] else 1.0, 0.5)
    res.add("raising_lowering_product_residual", 0.0 if rep["a1dag_a1_ok"] else 1.0, 0.5)


@_criterion("c08_cs_eigen_residual")
def criterion_08_cs_eigenresidual(ctx: _Context, res: CriterionResult):
    zeta = 1.0 + 0.5j
    tag = ctx.tag
    for weights in _case_list()[:3]:
        r64 = coherent.cs_residual(weights, zeta, max(ctx.N, 16), tag)
        res.add(f"residual[{weights.label()}]", r64, coherent.CS_RESIDUAL_BOUND)
        if math.isfinite(r64):
            r48 = coherent.cs_residual(weights, zeta, 48, tag)
            r96 = coherent.cs_residual(weights, zeta, 96, tag)
            decreasing = r96 < max(r48, RESIDUAL_FLOOR)
            res.add(f"decrease_48_to_96[{weights.label()}]", 0.0 if decreasing else 1.0, 0.5)


@_criterion("c09_perelomov_equivalence")
def criterion_09_perelomov(ctx: _Context, res: CriterionResult):
    N = max(ctx.N, 64)
    zeta = 0.7 - 0.2j
    d = coherent.displacement_operator(zeta, N, ctx.tag)
    deviation, bound, routes = coherent.generalized_cs(zeta, 3, d)
    res.add("D_theta1_vs_cs", deviation, bound)
    unit_dev = interior_max_abs((adjoint(d) @ d).mat - np.eye(N))
    res.add("DdagD_interior_unitarity", unit_dev, 1e-7)
    for n, (ladder_route, displaced_route) in enumerate(routes, 2):
        dev = float(np.linalg.norm(ladder_route.coeffs - displaced_route.normalized().coeffs))
        res.add(f"generalized_cs_two_path_n={n}", dev, 1e-5)


@_criterion("c10_order_estimates")
def criterion_10_orders(_: _Context, res: CriterionResult):
    entire_cases = [
        (ladder.constant_weights(2.0), 2.0, 0.02),
        (ladder.distorted_weights(0.5), 2.0, 0.02),
        (ladder.linear_weights(), 1.0, 0.02),
        (ladder.power_law_weights(0.5), 2.0 / 1.5, 0.05),
        (ladder.power_law_weights(2.0), 2.0 / 3.0, 0.05),
    ]
    for weights, target, tol in entire_cases:
        est = coherent.order_estimate(weights)
        dev = abs(est.rho - target) if est.entire and est.rho is not None else math.inf
        res.add(f"rho[{weights.label()}]", dev, tol)
    est = coherent.order_estimate(ladder.geometric_weights(1.2))
    res.add("rho_zero[geometric(q=1.2)]",
            0.0 if (est.entire and est.rho == 0.0) else 1.0, 0.5)
    for weights, independent_limit in (
        (ladder.single_weight(2.0), math.sqrt(2.0)),
        (ladder.geometric_weights(0.5), math.sqrt(0.5 / (1 - 0.5))),
    ):
        est = coherent.order_estimate(weights)
        dev = abs(est.radius - independent_limit) if not est.entire else math.inf
        res.add(f"radius[{weights.label()}]", dev, 1e-3)


@_criterion("c11_lambda_to_infinity")
def criterion_11_lambda_limit(ctx: _Context, res: CriterionResult):
    N = ctx.N
    params = isospectral.IsospectralParams(1e6)
    basis = isospectral.ThetaBasis(params, ctx.grid, N)
    u = isospectral.u_matrix(basis)
    m = interior_block(u.mat - np.eye(N))
    res.add("u_minus_identity_interior_inf_norm", op_norm_inf(m), 1e-5)
    h_t = isospectral.h_tilde_matrix(basis)
    m = interior_block(h_t.mat - number_matrix(N).mat)
    res.add("h_tilde_minus_h_interior_inf_norm", op_norm_inf(m), 1e-4)
    psi = basis.psi
    dev = max(
        grid_norm(basis.theta[n] - psi[n], ctx.grid) for n in range(N - INTERIOR_MARGIN)
    )
    res.add("theta_vs_psi_interior", dev, 1e-5)


@_criterion("c12_composite_lowering")
def criterion_12_composite_lowering(ctx: _Context, res: CriterionResult):
    fill = isospectral.b_dagger_a_b_fill(ctx.N, ctx.tag)
    z = 0.8 + 0.3j
    # b+ a b maps theta_{n+1} to n sqrt(n+1) theta_n: the weighted shift W_n = n^2 (n+1), from theta_1
    n = np.arange(1.0, ctx.N + 1)
    cs = coherent.shift_eigenstate(np.log(n * n * (n + 1.0)), z, 1, ctx.tag)
    moved = apply_operator(fill, cs)
    res.add("cs_eigen_residual", float(np.linalg.norm(moved.coeffs - z * cs.coeffs)), 1e-7)


ALL_CRITERIA = [
    criterion_01_isospectrality,
    criterion_02_riccati,
    criterion_03_c_coefficients,
    criterion_04_commutator_diag,
    criterion_05_closed_forms,
    criterion_06_resolvent,
    criterion_07_pdo_golden,
    criterion_08_cs_eigenresidual,
    criterion_09_perelomov,
    criterion_10_orders,
    criterion_11_lambda_limit,
    criterion_12_composite_lowering,
]


def run_all(lam: float = 2.0, trunc: int = 64) -> list[CriterionResult]:
    ctx = _Context(lam, trunc)
    return [fn(ctx) for fn in ALL_CRITERIA]
