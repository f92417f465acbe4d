"""Tour of the isospectral oscillator family.

Builds the deformation function phi for one lambda, checks it really solves
the Riccati equation, constructs the theta eigenbasis and the unitary U that
maps Fock states onto it, and verifies the deformed Hamiltonian b+ b has the
oscillator spectrum; then the two historical coherent-state families.  Ends
with the lambda -> infinity sweep back onto the plain oscillator.  The lines
the acceptance battery checks (the Riccati residual, c02; the spectrum, c01;
the b+ a b eigenstate residual, c12) print the battery's own parts.

Run:  python demos/01_isospectral_family.py
"""

import math

import numpy as np

from isoladder import coherent, fock, isospectral as iso, ladder, numerics, report

LAM = 2.0
N = 64


def below(value, bound):
    # a rounding-level quantity against the bound its check holds it to, so these
    # lines change with a verdict and not with the last bit of U, theta or phi
    return f"< {bound:g}" if value < bound else f"{value:.3e}, NOT below {bound:g}"


# the acceptance battery at this lambda and N: {criterion number: {part label: (value, bound)}}
BATTERY = {r.name[:3]: {label: (value, bound) for label, value, bound, _ in r.parts} for r in report.run_all(LAM, N)}


# --- the deformation function ------------------------------------------------

params = iso.IsospectralParams(LAM)
grid = numerics.build_grid(N)
phi = iso.PhiFunction(params)

print(f"phi at the origin equals 1/lambda: {phi(0.0):.6f} vs {1 / LAM:.6f}")
print(f"Gaussian decay: phi(8) = {phi(8.0):.3e}")

# phi' is finite-differenced independently, so this is a genuine check that
# phi' + 2 x phi + phi^2 = 0:
print(f"Riccati residual over the grid: {below(*BATTERY['c02'][f'lambda={LAM:g}'])}")

# --- the theta basis and the unitary intertwiner ------------------------------

basis = iso.ThetaBasis(params, grid, N)
gram = basis.theta @ (grid.weights[None, :] * basis.theta).T
print(f"\ntheta orthonormality residual: {below(fock.interior_max_abs(gram - np.eye(N)), 1e-8)}")
closed = math.sqrt((LAM**2 - math.pi / 4) / math.sqrt(math.pi))
print(f"theta_0 normalization constant {basis.theta0_norm:.12f} (closed form {closed:.12f})")

u = iso.u_matrix(basis)
print(f"unitarity of U: {below(np.max(np.abs(u.mat.conj().T @ u.mat - np.eye(N))), 1e-12)}")
print(f"raw overlap-matrix defect (the psi-tail beyond truncation): {iso.unitarity_defect(basis):.3e}")

# --- the deformed ladder pair and Hamiltonian ---------------------------------

b = iso.b_matrix(basis)
a = fock.annihilation_matrix(N)
bb_dev = np.max(np.abs(b.mat @ b.mat.conj().T - a.mat @ a.mat.conj().T))
print(f"\nbb+ - aa+ (should vanish): {below(bb_dev, 1e-7)}")
print(f"b+ b - a+ a (should NOT vanish): {np.max(np.abs(iso.h_tilde_matrix(basis).mat - np.diag(np.arange(float(N))))):.3f}")

print(f"lowest 10 eigenvalues of b+ b: {np.round(report.h_tilde_eigenvalues(basis)[:10], 9)}")
print(f"largest deviation from 0..39:  {below(*BATTERY['c01']['lowest_40_eigenvalues_vs_0..39'])}")

# --- the earlier lowering operator and its coherent states --------------------

a_theta = ladder.represent_in_theta(iso.b_dagger_matrix(basis) @ a @ b, u, basis.tag)
print(f"\nb+ a b in the theta basis kills theta_0 and theta_1: "
      f"{below(np.linalg.norm(a_theta.mat[:, 0]), 1e-10)}, {below(np.linalg.norm(a_theta.mat[:, 1]), 1e-7)}")
print(f"its superdiagonal starts (n-1) sqrt(n): {np.round(np.real(np.diag(a_theta.mat, 1))[:5], 6)}")

# b+ a b maps theta_{n+1} to n sqrt(n+1) theta_n: its coherent states are the eigenstates of the
# weighted shift with W_n = n^2 (n+1), started at theta_1; c12 checks one at z = 0.8 + 0.3i
print(f"annihilation-eigenstate residual at z = (0.8+0.3j): {below(*BATTERY['c12']['cs_eigen_residual'])}")

# the unitary image U|alpha> = exp(-|alpha|^2/2) sum_n alpha^n / sqrt(n!) theta_n: on the theta
# indices U a U+ is the weighted shift with W_n = n, started at theta_0
alpha = 1.0 + 0.5j
img_cs = coherent.shift_eigenstate(np.log(np.arange(1.0, N + 1)), alpha, 0, basis.tag)
a_tilde = u.mat @ a.mat @ u.mat.conj().T
in_fock = u.mat @ img_cs.coeffs
print(f"unitary-image CS residual at alpha = {alpha}: "
      f"{below(np.linalg.norm(a_tilde @ in_fock - alpha * in_fock), 1e-7)}")

# --- the lambda -> infinity degeneration ---------------------------------------

for lam in (1e2, 1e4, 1e6):
    big = iso.ThetaBasis(iso.IsospectralParams(lam), grid, N)
    dev = fock.interior_max_abs(iso.u_matrix(big).mat - np.eye(N))
    print(f"lambda = {lam:8.0e}:  max |U - I| interior = {dev:.3e}")
print("everything collapses onto the plain oscillator, linearly in 1/lambda.")
