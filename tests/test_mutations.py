"""Mutation harness: each catalogued change to one src function must fail named parts of the battery.

A catalogue entry is a name, one monkeypatch of one function, and the parts expected to fail, by criterion, at
report.run_all(lam, 64) for every battery lambda (DeMillo, Lipton & Sayward's mutation analysis).  A kill is a
named part failing, never a construction_error; the unmutated tree passes, and every patch is undone after its
test.  No entry records a mutation that survives: a check the battery cannot make fail belongs to the part
that will kill it.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from isoladder import isospectral, ladder, pdo, report
from isoladder.fock import FOCK, TruncatedOperator

BATTERY_LAMBDAS = (-3.0, -1.0, 0.8963, 2.0, 10.0, 50.0)

# every (owner, attribute) a catalogue entry patches, with what it holds unpatched
ORIGINALS = {
    (isospectral, "u_matrix"): isospectral.u_matrix,
    (isospectral.PhiFunction, "value"): isospectral.PhiFunction.value,
    (ladder, "c_coefficients_closed"): ladder.c_coefficients_closed,
    (pdo, "_diff"): pdo._diff,
}


@dataclass(frozen=True)
class Mutation:
    name: str
    patch: Callable[[pytest.MonkeyPatch], None]
    kills: dict  # criterion name -> the part labels that must fail


def dense_orthogonal_u(seed: int):
    """u_matrix returning the Q of a seeded normal matrix's QR: orthogonal, dense, built for no lambda."""
    def u_matrix(basis):
        return TruncatedOperator(np.linalg.qr(np.random.default_rng(seed).normal(size=(basis.N, basis.N)))[0], FOCK)
    return lambda mp: mp.setattr(isospectral, "u_matrix", u_matrix)


def riccati_sign_flipped(blocks: dict) -> dict:
    """pdo._diff with the Riccati reduction phi' = +2 x phi - phi^2: the sign of its -2 x phi term flipped."""
    out = {}
    for ir, blk in blocks.items():
        o = out[ir] = {}
        for k, n in blk.items():
            a, b = k & pdo._MASK, k >> pdo._F & pdo._MASK
            if a:
                o[k - 1] = o.get(k - 1, 0) + n * a
            if b:
                o[k + 1] = o.get(k + 1, 0) + 2 * b * n
                k += 1 << pdo._F
                o[k] = o.get(k, 0) - b * n
    return pdo._checked(pdo._nonzero(out))


C03_CLOSED = [f"closed_vs_recursive[{label}]" for label in (
    "constant(w=2)", "distorted(w=0.5)", "linear", "single(w=2)", "geometric(q=0.7)",
    "custom[501]#1", "custom[501]#2", "custom[501]#3")]

CATALOGUE = [
    # a dense Q carries no lambda, but the lambda = 1e6 basis of c11 needs U = I and H~ = H; c05 and c12 pass
    *(Mutation(f"u_matrix_dense_orthogonal_q[seed={seed}]", dense_orthogonal_u(seed),
               {"c11_lambda_to_infinity": ["u_minus_identity_interior_inf_norm",
                                           "h_tilde_minus_h_interior_inf_norm"]})
      for seed in range(4)),
    Mutation("phi_value_times_1.01",
             lambda mp: mp.setattr(isospectral.PhiFunction, "value",
                                   lambda self, x: 1.01 * ORIGINALS[isospectral.PhiFunction, "value"](self, x)),
             {"c02_riccati_residual": ["lambda=1", "lambda=2", "lambda=10"]}),
    Mutation("c_coefficients_closed_one_index_ahead",
             lambda mp: mp.setattr(ladder, "c_coefficients_closed",
                                   lambda w, N: ORIGINALS[ladder, "c_coefficients_closed"](w, N + 1)[1:]),
             {"c03_c_closed_form": C03_CLOSED}),
    Mutation("pdo_diff_riccati_sign_flipped", lambda mp: mp.setattr(pdo, "_diff", riccati_sign_flipped),
             {"c07_pdo_identities": ["bdag_b_equals_h_minus_phiprime", "ladder_reference_w=1",
                                     "ladder_reference_w=2", "ladder_reference_w=7/2",
                                     "lowering_raising_product_residual", "raising_lowering_product_residual"]}),
]


def failing_parts(lam: float) -> dict:
    """criterion name -> labels of its failing parts, for each criterion of run_all(lam, 64) that fails."""
    return {r.name: [label for label, _, _, ok in r.parts if not ok] for r in report.run_all(lam, 64) if not r.passed}


@pytest.mark.parametrize("lam", BATTERY_LAMBDAS)
def test_unmutated_tree_passes(lam):
    assert failing_parts(lam) == {}


@pytest.mark.parametrize("lam", BATTERY_LAMBDAS)
@pytest.mark.parametrize("mutation", CATALOGUE, ids=lambda m: m.name)
def test_mutation_fails_named_parts(mutation, lam):
    with pytest.MonkeyPatch.context() as mp:
        mutation.patch(mp)
        failed = failing_parts(lam)
    assert all(getattr(owner, attr) is original for (owner, attr), original in ORIGINALS.items())
    assert not [label for labels in failed.values() for label in labels if label.startswith("construction_error")]
    for criterion, parts in mutation.kills.items():
        assert set(parts) <= set(failed.get(criterion, [])), (criterion, failed)
