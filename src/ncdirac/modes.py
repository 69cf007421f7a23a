"""Momentum-space extended Dirac operator, its two dispersion branches, and
reference-frame spinor solutions.

The operator is D(k) = g^mu k_mu - eps5 * g^4 * (l/2) k^2 in the Majorana
representation, i.e. g.k - g5 (l/2) k^2 for eps5 = +1 and g.k + i g5 (l/2)
k^2 for eps5 = -1.  Squaring gives the dispersion polynomial
k^2 + eps5 (l^2/4)(k^2)^2, written once in ``dispersion_polynomial``; its
roots, the branches, are k^2 = 0 and k^2 = -eps5 4/l^2.

Momenta are stored upper-index; ``dirac_coefficients``, the one place D(k)
is written, lowers them with ``lie_algebra.lower``.  Everything is exact:
momenta and l are rationals, and a float raises TypeError.
``ncdirac.lorentz`` proves that D(k) is Lorentz covariant from the six
generators, with k and l symbolic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .clifford import VerificationError, gamma_sum, reality_class
from .lie_algebra import lower, minkowski_square
from .matrices import ExactMatrix
from .scalars import MOMENTUM_SYMBOLS, as_fraction, exact_sqrt, rounded, sym

BRANCHES = ("massless", "heavy")


class ModeProblem:
    """eps5 sign, deformation length l > 0, and a real four-vector k
    (upper-index components k0..k3), held as Fractions."""

    __slots__ = ("eps5", "ell", "k")

    def __init__(self, eps5: int, ell: Fraction, k: tuple):
        if eps5 not in (1, -1):
            raise ValueError("eps5 must be +1 or -1")
        self.eps5 = eps5
        self.ell = as_fraction(ell)
        if not self.ell > 0:
            raise ValueError("ell must be positive")
        if len(k) != 4:
            raise ValueError("k must have four components")
        self.k = tuple(as_fraction(c) for c in k)

    def k_squared(self) -> Fraction:
        return minkowski_square(self.k)


def dirac_coefficients(k, ell, eps5: int) -> list:
    """The gamma^0..gamma^4 coefficients of D(k) = g^mu k_mu - eps5 g^4
    (l/2) k^2: lower(k) and -eps5 (l/2) k^2, for exact numbers or ParamPoly."""
    return [*lower(k), Fraction(-eps5, 2) * ell * minkowski_square(k)]


def dirac_matrix(p: ModeProblem) -> ExactMatrix:
    """D(k) at the problem's momentum."""
    return gamma_sum(p.eps5, dirac_coefficients(p.k, p.ell, p.eps5))


def dirac_matrix_symbolic(eps5: int) -> ExactMatrix:
    """The operator with symbols k0..k3 and l, for identity checks."""
    return gamma_sum(eps5, dirac_coefficients(MOMENTUM_SYMBOLS, sym("l"), eps5))


def dispersion_polynomial(ell, eps5: int) -> tuple:
    """(a, b) of the dispersion polynomial a k^2 + b (k^2)^2 =
    k^2 + eps5 (l^2/4)(k^2)^2, which D(k)^2 equals times Id; l is an exact
    number or a ParamPoly."""
    return 1, ell * ell * Fraction(eps5, 4)


def squared_identity_residual(eps5: int) -> ExactMatrix:
    """D(k)^2 - (dispersion polynomial) * Id with symbolic k and l."""
    D = dirac_matrix_symbolic(eps5)
    ksq = minkowski_square(MOMENTUM_SYMBOLS)
    a, b = dispersion_polynomial(sym("l"), eps5)
    return D @ D - ExactMatrix.identity(4).scale(ksq * a + ksq * ksq * b)


def dispersion_roots(ell, eps5: int) -> set:
    """Exact root set in k^2 of the dispersion polynomial
    k^2 (a + b k^2): {0, -a/b}."""
    if eps5 not in (1, -1):
        raise ValueError("eps5 must be +1 or -1")
    ellf = as_fraction(ell)
    if ellf <= 0:
        raise ValueError("ell must be positive")
    a, b = dispersion_polynomial(ellf, eps5)
    return {Fraction(0), -a / b}


class SpinorSolution(NamedTuple):
    """Nullspace data of the operator at a fixed momentum."""

    k: tuple
    basis: tuple
    branch: str
    k2: object
    spinor_class: str
    eps5: int
    ell: object


def _kernel_exact(matrix: ExactMatrix):
    return [tuple(entry for entry in vec) for vec in matrix.kernel()]


def reference_solutions(ell, eps5: int, branch: str, energy_sign: int = 1,
                        kappa=1) -> SpinorSolution:
    """Reference-frame solutions with exact nullspaces.

    Heavy branch: rest frame k = (2/l, 0, 0, 0) for eps5 = -1 (timelike
    branch), z-frame k = (0, 0, 0, 2/l) for eps5 = +1 (spacelike branch).
    Massless branch: k = (kappa, 0, 0, kappa), or -(kappa, 0, 0, kappa)
    for energy_sign = -1.  The nullspace must come out two-dimensional;
    anything else signals a convention error.
    """
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}")
    if energy_sign not in (1, -1):
        raise ValueError("energy_sign must be +1 or -1")
    ellf = as_fraction(ell)
    if ellf <= 0:
        raise ValueError("ell must be positive")
    if branch == "heavy":
        edge = Fraction(2 * energy_sign) / ellf
        k = (edge, 0, 0, 0) if eps5 == -1 else (0, 0, 0, edge)
    else:
        kap = as_fraction(kappa)
        if kap <= 0:
            raise ValueError("kappa must be positive")
        kap *= energy_sign
        k = (kap, 0, 0, kap)
    problem = ModeProblem(eps5=eps5, ell=ellf, k=k)
    basis = _kernel_exact(dirac_matrix(problem))
    if len(basis) != 2:
        raise VerificationError(
            f"nullspace dimension {len(basis)} != 2 at k={k} (eps5={eps5})"
        )
    cls = reality_class(basis)
    return SpinorSolution(
        k=k,
        basis=tuple(basis),
        branch=branch,
        k2=problem.k_squared(),
        spinor_class=cls,
        eps5=eps5,
        ell=ellf,
    )


def residual(k, u, ell, eps5: int) -> float:
    """||D(k) u|| / ||u||, formed exactly and rounded once to a float: 0.0
    exactly when D(k) u = 0.  The entries of u are exact numbers or Python
    complex numbers with integer parts."""
    op = dirac_matrix(ModeProblem(eps5=eps5, ell=ell, k=tuple(k)))
    uvec = ExactMatrix.from_complex_entries([[c] for c in u])
    if uvec.is_zero():
        raise ValueError("zero vector has no residual")
    return rounded(exact_sqrt(_norm_squared(op @ uvec) / _norm_squared(uvec)))[0]


def _norm_squared(column: ExactMatrix) -> Fraction:
    return sum((x * x.conjugate()).to_fraction() for [x] in column.scalar_entries())

