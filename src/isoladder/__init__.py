"""isoladder: ladder operators for the isospectral oscillator family.

Numerical (truncated-matrix) and symbolic (pseudo-differential series)
constructions of shift operators, distorted Heisenberg algebras and the
coherent states they generate, verified against each other throughout.

Importing the package imports none of its modules; import the one you use,
`from isoladder import report`, so the exact `pdo` layer runs without numpy.
"""

__version__ = "0.1.0"
