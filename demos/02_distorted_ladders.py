"""Shift operators for any prescribed diagonal commutator.

Given weights {w_n}, the shift operator S = sum sqrt(c_n)|n><n+1| solves the
generalized partial-isometry condition and conjugates the oscillator ladder
into a pair with [a1, a1+] = diag(0, w_1, w_2, ...).  This script walks the
coefficient recursion, its closed form, the five special cases with known
closed forms, and the resolvent-integral square root.

Run:  python demos/02_distorted_ladders.py
"""

import numpy as np

from isoladder import fock, isospectral as iso, ladder, numerics

N = 64


def below(value, bound):
    # a rounding-level quantity against the bound its check holds it to, so these
    # lines change with a verdict and not with the last bit of U or an eigensolve
    return f"< {bound:g}" if value < bound else f"{value:.3e}, NOT below {bound:g}"


# --- the c_n coefficients ------------------------------------------------------

weights = ladder.distorted_weights(2.0)  # w_1 = 2, the rest 1
rec = ladder.c_coefficients_recursive(weights, 8)
clo = ladder.c_coefficients_closed(weights, 8)
print("distorted w = 2 coefficient table")
print("  recursion :", np.round(rec, 10))
print("  closed    :", np.round(clo, 10))
print("  (c_1 = 2, c_2 = 3/4, c_3 = 16/9, ... and the two must agree)")

n = np.arange(7)
telescoped = (n + 1) * rec[:-1] * rec[1:]
print("  telescoped (n+1) c_n c_{n+1} = W_{n+1}:", np.round(telescoped, 10))

# --- shift operator and ladder pair --------------------------------------------

s = ladder.shift_matrix(ladder.constant_weights(1.0), N)
closed_shift = fock.apply_spectral_function(fock.number_matrix(N), lambda t: (1 + t) ** -0.5) @ fock.annihilation_matrix(N)
print(f"\nunit weights: S equals (1+H)^(-1/2) a, max |difference| {below(np.max(np.abs(s.mat - closed_shift.mat)), 1e-12)}")

for weights in (ladder.constant_weights(2.0), ladder.distorted_weights(0.5),
                ladder.linear_weights(), ladder.single_weight(2.0), ladder.geometric_weights(0.7)):
    low, high = ladder.ladder_matrices(weights, N)
    comm = (low.mat @ high.mat - high.mat @ low.mat)
    diag = np.real(np.diag(comm))[:6]
    print(f"{weights.label():20s} commutator diagonal starts {np.round(diag, 6)}")

# --- the five closed forms vs the general construction --------------------------

params = iso.IsospectralParams(2.0)
grid = numerics.build_grid(N)
basis = iso.ThetaBasis(params, grid, N)
b = iso.b_matrix(basis)
u = iso.u_matrix(basis)

print("\nclosed form vs general (transported fill), interior max |difference| against c05's bound:")
for weights in (ladder.constant_weights(2.0), ladder.distorted_weights(0.5), ladder.linear_weights(),
                ladder.single_weight(2.0), ladder.geometric_weights(0.7), ladder.geometric_weights(1.3)):
    closed = ladder.closed_form_case(weights, b)
    general = ladder.transport_to_theta(ladder.ladder_fill(weights, N), u, basis.tag)
    dev = np.max(np.abs((closed.mat - general.mat)[:59, :59]))
    print(f"  {weights.label():20s} -> {below(dev, 1e-7)}")

lim = ladder.closed_form_case(ladder.geometric_weights(1.0 + 1e-8), b)
ref = ladder.closed_form_case(ladder.constant_weights(1.0), b)
print(f"q -> 1 limit of the q-deformed form matches case i at w = 1: "
      f"{np.max(np.abs((lim.mat - ref.mat)[:59, :59])):.3e}")

# --- resolvent-integral square root ---------------------------------------------

x = fock.number_matrix(32) + fock.identity_matrix(32)
via_resolvent = ladder.resolvent_inv_sqrt(x)
via_spectral = fock.apply_spectral_function(x, lambda t: t**-0.5)
print(f"\n(1+H)^(-1/2) by the resolvent integral vs spectral calculus: "
      f"{below(np.max(np.abs(via_resolvent.mat - via_spectral.mat)), 1e-6)}")
