"""Exact-arithmetic lab for the twisted inhomogeneous nineteen-vertex model.

No floating point anywhere.  The closed forms, the determinants and the
R-matrix weights are rationals (the weights evaluated from integer
Laurent polynomials in q and z as ints over one denominator); only the
model's vectors carry a unit of the extension ring Q(s, i),
s**2 = [q][q^2], i**2 = -1.  Submodules:

- field:     rationals (RAT, which is fractions.Fraction), the
             quadratic+Gaussian extension, half-power and Laurent
             polynomials, exact interpolation
- rmatrix:   the R-matrices of the six-, mixed and nineteen-vertex models
             at a rational q, and their structural identities
- aba:       the parameters and their ring (ModelParams), monodromy
             matrix, Bethe vectors, transfer matrices and the
             exchange/cyclic/recurrence relations of the eigenvector
- detform:   Slavnov and Izergin-Korepin determinants, partition-function
             sum rules, closed-form simple components
- asm:       alternating-sign-matrix generation and the six-vertex
             domain-wall partition function oracle
- spinchain: the twisted spin-one XXZ Hamiltonian, twisted translation,
             and the homogeneous-limit singlet state
- cli:       batch verification front end
"""

from bethelab.field import RAT, Scalar, HalfPowerPoly, LaurentPoly, brk

__all__ = ["RAT", "Scalar", "HalfPowerPoly", "LaurentPoly", "brk"]
__version__ = "0.1.0"
