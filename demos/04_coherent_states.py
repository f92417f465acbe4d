"""Coherent states of the generalized algebra and their analytic growth.

Eigenstates of the new lowering operators, the Fock-Bargmann picture, the
order/radius classification of the induced entire-function families, and
(for unit weights) the unitary displacement operator, whose columns D theta_k
are the Perelomov-type generalized coherent states.  The eigen-residuals and
D theta_1 print the acceptance battery's own parts (c08 and c09).

Run:  python demos/04_coherent_states.py
"""

import math

import numpy as np

from isoladder import coherent, fock, ladder, report

TAG = fock.theta_tag(2.0)
N = 64


def below(value, bound):
    # a rounding-level quantity against the bound its check holds it to, so these
    # lines change with a verdict and not with the last bit of an eigensolve
    return f"< {bound:g}" if value < bound else f"{value:.3e}, NOT below {bound:g}"


# the acceptance battery at lambda = 2, N: {criterion number: {part label: (value, bound)}}
BATTERY = {r.name[:3]: {label: (value, bound) for label, value, bound, _ in r.parts} for r in report.run_all(2.0, N)}


# --- eigenstates of the lowering operator -------------------------------------

zeta = 1.0 + 0.5j
print(f"eigen-residual of |zeta> at zeta = {zeta}:")
for weights in (ladder.constant_weights(2.0), ladder.distorted_weights(0.5), ladder.linear_weights()):
    cs = coherent.cs_vector(zeta, weights, N, TAG)
    print(f"  {weights.label():18s} |norm - 1| {below(abs(cs.norm() - 1.0), 1e-10)}   "
          f"residual {below(*BATTERY['c08'][f'residual[{weights.label()}]'])}")

# the construction refuses rather than silently truncating:
try:
    coherent.cs_vector(zeta, ladder.constant_weights(1.0), 12, TAG)
except coherent.TruncationError as exc:
    print(f"tiny truncation refused: {exc}")

# --- normalization function and radius of convergence ---------------------------

print(f"\nh(t) for unit weights is e^t: h(2) = {coherent.normalization_h(2.0, ladder.constant_weights(1.0)):.12f}")
w = 2.0
print(f"h(t) for the single-weight case is w/(w-t): h(1.5) = "
      f"{coherent.normalization_h(1.5, ladder.single_weight(w)):.12f} vs {w / (w - 1.5):.12f}")
try:
    coherent.normalization_h(2.5, ladder.single_weight(w))
except coherent.DivergenceError as exc:
    print(f"beyond the radius it refuses: {exc}")

# --- order of the entire-function family -----------------------------------------

print("\ngrowth classification (rho = entire-function order):")
cases = [
    ("constant w=2", ladder.constant_weights(2.0)),
    ("distorted w=1/2", ladder.distorted_weights(0.5)),
    ("linear", ladder.linear_weights()),
    ("power nu=3", ladder.power_law_weights(3.0)),
    ("geometric q=1.2", ladder.geometric_weights(1.2)),
    ("geometric q=0.5", ladder.geometric_weights(0.5)),
    ("single w=2", ladder.single_weight(2.0)),
]
for label, weights in cases:
    est = coherent.order_estimate(weights)
    if est.entire:
        print(f"  {label:18s} entire, rho = {est.rho:.4f}")
    else:
        print(f"  {label:18s} NOT entire, |zeta| radius = {est.radius:.4f}")

# --- Bargmann transform -------------------------------------------------------------

weights = ladder.constant_weights(1.0)
psi = fock.StateVector(np.eye(N)[1], TAG)  # theta_1 itself
vals = coherent.bargmann_transform(psi, weights, [0.3, 1.0 + 1.0j, -2.0])
print(f"theta_1 maps to the constant function 1: {np.round(vals, 12)}")

cs = coherent.cs_vector(0.9 + 0.3j, weights, N, TAG)
for z in (0.5, 1.2j):
    val = coherent.bargmann_transform(cs, weights, [z])[0]
    bound = math.sqrt(coherent.normalization_h(abs(z) ** 2, weights))
    print(f"|Psi({z})| = {abs(val):.6f} <= h^(1/2) bound {bound:.6f}")

# --- displacement operator ----------------------------------------------------------

zeta = 0.7 - 0.2j
d = coherent.displacement_operator(zeta, N, TAG)
cs = coherent.cs_vector(zeta, ladder.constant_weights(1.0), N, TAG)
print(f"\nD(zeta) theta_1 vs the eigenstate construction: {below(*BATTERY['c09']['D_theta1_vs_cs'])}")

low, high = ladder.ladder_matrices(ladder.constant_weights(1.0), N, TAG)
h1 = high @ low  # a1+ a1 for unit weights
print(f"a1+ a1 diagonal starts {np.round(np.real(np.diag(h1.mat))[:6], 12)} (0, 0, then 1, 2, ...)")
print(f"|zeta> is the displaced ground state: "
      f"{below(np.linalg.norm((d.mat @ h1.mat @ d.mat.conj().T) @ cs.coeffs), 1e-6)}")
