"""Subspace tables in the reflection representation of finite Weyl groups,
cross-checked against first-order coefficients of R-polynomials."""

__version__ = "0.1.0"
