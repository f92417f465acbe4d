"""Formal pseudo-differential expansions of the non-local ladder operators.

The calculus works with exact scalars (rationals extended by i, sqrt2 and
half-powers of the symbol w), polynomial coefficients in x and phi, and the
antiderivative d^{-1}.  phi' never appears: the Riccati relation rewrites it
as -2 x phi - phi^2 on the fly.

Run:  python demos/03_pdo_expansions.py
"""

from fractions import Fraction

from isoladder import pdo

# --- the bracket series for (1+H)^{-1/2} -----------------------------------------

prefactor, bracket, _ = pdo.inv_sqrt_one_plus_h()
print("(1+H)^(-1/2) =", prefactor.render(), "* [")
print(bracket.render())
print("]")
print("note the low-order terms 1/2*(1+x^2) d^-3 and -3/2*x d^-4.\n")

# --- the distorted-algebra ladder pair, symbolic w --------------------------------

# product_identities expands the pair once and returns it with the residuals
rep = pdo.product_identities(w=None)
low, high = rep["lowering"], rep["raising"]
s2 = pdo.CoeffPoly.sqrt2()
print("sqrt2 * lowering operator (w symbolic), top orders:")
for line in low.scale(s2).render().splitlines()[:4]:
    print(" ", line)
print("sqrt2 * raising operator, top orders:")
for line in high.scale(s2).render().splitlines()[:4]:
    print(" ", line)

ref_low, ref_high = pdo.case_ii_reference(w=None)
print("\nmatches the reduced reference through d^-2:",
      pdo.series_agree_through(low, ref_low, -2) and pdo.series_agree_through(high, ref_high, -2))

# --- product identities ------------------------------------------------------------

print("\nlowering * raising - [ (1/2)(-d^2+x^2+2w-3) - phi' ]  == 0:", rep["a1_a1dag_ok"])
print("raising * lowering - [ (1/2)(-d^2+x^2+2w-5) - phi' ]  == 0:", rep["a1dag_a1_ok"])
print(f"(both residuals vanish identically through order d^{rep['valid_floor']})")

# --- binding w to numbers stays exact ----------------------------------------------

for w in (Fraction(1), Fraction(2), Fraction(7, 2)):
    low_w, high_w = pdo.expand_ladder_case_ii(w=w)
    if w == 1:
        low_w1 = low_w  # the oscillator limit below reads it at phi = 0
    ref_low_w, ref_high_w = pdo.case_ii_reference(w=w)
    ok = pdo.series_agree_through(low_w, ref_low_w, -2) and pdo.series_agree_through(high_w, ref_high_w, -2)
    print(f"w = {w}: reference coefficients reproduced exactly -> {ok}")

# --- the oscillator limit -----------------------------------------------------------

checks = dict(pdo.classical_limit_check())
print("\nphi -> 0 degenerations:")
print("  b becomes a:", checks["b_phi0_equals_a"])
print("  b+ b becomes H + 2x*phi + phi^2 (i.e. H - phi'):", checks["bdag_b_equals_h_minus_phiprime"])
print("  w = 1 lowering operator at phi = 0:")
for line in low_w1.substitute_phi_zero().render().splitlines()[:5]:
    print("   ", line)
