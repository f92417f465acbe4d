"""isoladder: ladder operators for the isospectral oscillator family.

Numerical (truncated-matrix) and symbolic (pseudo-differential series)
constructions of shift operators, distorted Heisenberg algebras and the
coherent states they generate, verified against each other throughout.
"""

from . import numerics, fock, isospectral, ladder, coherent, pdo, report

__version__ = "0.1.0"
