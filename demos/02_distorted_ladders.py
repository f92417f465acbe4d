"""Shift operators for any prescribed diagonal commutator.

Given weights {w_n}, the shift operator S = sum sqrt(c_n)|n><n+1| solves the
generalized partial-isometry condition and conjugates the oscillator ladder
into a pair with [a1, a1+] = diag(0, w_1, w_2, ...).  This script walks the
coefficient recursion, its closed form, the five special cases with known
closed forms, and the resolvent-integral square root; the last two print the
acceptance battery's own parts (c05 and c06).

Run:  python demos/02_distorted_ladders.py
"""

import numpy as np

from isoladder import fock, ladder, report

N = 64


def below(value, bound):
    # a rounding-level quantity against the bound its check holds it to, so these
    # lines change with a verdict and not with the last bit of U or an eigensolve
    return f"< {bound:g}" if value < bound else f"{value:.3e}, NOT below {bound:g}"


# the acceptance battery at lambda = 2, N: {criterion number: {part label: (value, bound)}}
BATTERY = {r.name[:3]: {label: (value, bound) for label, value, bound, _ in r.parts} for r in report.run_all(2.0, N)}


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

print("\nclosed form vs general (transported fill), interior max |difference| against c05's bound:")
for label, part in BATTERY["c05"].items():
    if label.startswith("closed_vs_general["):
        print(f"  {label.removeprefix('closed_vs_general[')[:-1]:20s} -> {below(*part)}")

q_to_1, _ = BATTERY["c05"]["q_to_1_limit_vs_case_i_w1"]
print(f"q -> 1 limit of the q-deformed form matches case i at w = 1: {q_to_1:.3e}")

# --- resolvent-integral square root ---------------------------------------------

print(f"\n(1+H)^(-1/2) by the resolvent integral vs spectral calculus: "
      f"{below(*BATTERY['c06']['resolvent_vs_spectral_N32'])}")
