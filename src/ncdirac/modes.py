"""Momentum-space extended Dirac operator, its Lorentz covariance, its two
dispersion branches, and reference-frame spinor solutions.

The operator is D(k) = g^mu k_mu - eps5 * g^4 * (l/2) k^2 in the Majorana
representation, i.e. g.k - g5 (l/2) k^2 for eps5 = +1 and g.k + i g5 (l/2)
k^2 for eps5 = -1.  Squaring gives the dispersion polynomial
k^2 + eps5 (l^2/4)(k^2)^2, written once in ``dispersion_polynomial``; its
roots, the branches, are k^2 = 0 and k^2 = -eps5 4/l^2.  D is homogeneous,
s D(k; s l) = D(s k; l) (``scaling_residual``), so what holds at one l
holds, rescaled, at every l > 0.

The heavy branch is written here once: its mass scale M = 2/l
(``heavy_mass``), its k^2 = -eps5 M^2 (``heavy_k2``), the frame a massive
mode rests in (``frame``), that mode's reality class (``massive_class``)
and the one guarded kernel of a mode, two-dimensional or an error
(``spinor_kernel``).  ``seesaw`` reads them for its light and heavy modes.

Momenta are stored upper-index; ``dirac_coefficients``, the one place D(k)
is written, lowers them with ``lie_algebra.lower``.  Everything is exact:
momenta and l are rationals, and a float raises TypeError.

``lorentz_covariance`` proves D(k) Lorentz covariant from the six
generators S_munu = (1/4)[g^mu, g^nu], mu < nu < 4, with k and l symbolic:
their gamma identities against the vector generators L_munu read from the
flat table (``clifford.spinor_generator_identities``), then [S_munu, D(k)]
= (L_munu k).grad D(k).  That gives D(Lambda k) S = S D(k) for every k
and l on the whole identity component of SO(1,3).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .clifford import VerificationError, gamma_sum, reality_class, spinor_generator_identities
from .lie_algebra import flat_deformed_algebra, lower, minkowski_square
from .matrices import ExactMatrix
from .scalars import (MOMENTUM_SYMBOLS, ZERO, _make, _packed_poly, _poly_sum_of_products,
                      as_fraction, exact_sqrt, poly, rounded, sym)

BRANCHES = ("massless", "heavy")


def dirac_coefficients(k, ell, eps5: int) -> list:
    """The gamma^0..gamma^4 coefficients of D(k) = g^mu k_mu - eps5 g^4
    (l/2) k^2: lower(k) and -eps5 (l/2) k^2, for exact numbers or ParamPoly."""
    return [*lower(k), Fraction(-eps5, 2) * ell * minkowski_square(k)]


def lorentz_generator(table, mu: int, nu: int) -> tuple:
    """(L_munu)^rho_sigma as rows rho of columns sigma of ParamPoly: the
    P_rho coefficient of [M_munu, P_sigma] in ``table`` divided by i, read
    off the table's integer terms as (a + b i)/(i d) = (b - a i)/d."""
    momenta, row = [table.index[f"P{r}"] for r in range(4)], table.rows[table.index[f"M{mu}{nu}"]]
    return tuple(tuple(_packed_poly({m: _make(b, -a, d) for q, m, a, b, d in row.get(p, ())
                                     if q == r}) for p in momenta) for r in momenta)


def lorentz_covariance(eps5: int) -> dict:
    """How many generators, gamma identities and D identities were checked,
    in generator order and stopping at the first failure, and that failure
    or None.  The D identity is [S_munu, D(k)] = (X k).grad D(k), where X k
    is the upper-index vector with lower(X k) = L_munu lower(k); its g^4
    component is k.(L_munu k) = 0 on D's coefficients."""
    counts = dict.fromkeys(("generators", "gamma_identities", "dirac_identities"), 0)
    table = flat_deformed_algebra(eps5)
    coeffs = [poly(c) for c in dirac_coefficients(MOMENTUM_SYMBOLS, sym("l"), eps5)]
    gradients = [[c.derivative(f"k{i}") for i in range(4)] for c in coeffs]
    minus_coeffs = [-c for c in coeffs]
    low_k = lower(MOMENTUM_SYMBOLS)
    for mu, nu in combinations(range(4), 2):
        counts["generators"] += 1
        vector = lorentz_generator(table, mu, nu)
        checked, failure = spinor_generator_identities(eps5, mu, nu, vector)
        counts["gamma_identities"] += checked
        if failure:
            return {**counts, "failure": failure}
        counts["dirac_identities"] += 1
        moved = lower([_poly_sum_of_products(zip(row, low_k)) for row in vector])
        for a, (grad, row) in enumerate(zip(gradients, [*vector, ()])):  # L: no g^4 row
            if _poly_sum_of_products([*zip(grad, moved), *zip(row, minus_coeffs)]):
                return {**counts, "failure": f"[S_{mu}{nu}, D(k)] != (L_{mu}{nu} k).grad D(k)"
                                             f" on g^{a}"}
    return {**counts, "failure": None}


def dirac_matrix(eps5: int, k=MOMENTUM_SYMBOLS, ell=sym("l")) -> ExactMatrix:
    """D(k) at exact numbers or ParamPoly k and l, by default the symbols
    k0..k3 and l.  A float raises TypeError and a bad eps5 ValueError."""
    return gamma_sum(eps5, dirac_coefficients(k, ell, eps5))


def dispersion_polynomial(ell, eps5: int) -> tuple:
    """(a, b) of the dispersion polynomial a k^2 + b (k^2)^2 =
    k^2 + eps5 (l^2/4)(k^2)^2, which D(k)^2 equals times Id; l is an exact
    number or a ParamPoly."""
    return 1, ell * ell * Fraction(eps5, 4)


def squared_identity_residual(eps5: int) -> ExactMatrix:
    """D(k)^2 - (dispersion polynomial) * Id, k and l symbolic: one sum per entry."""
    rows, ksq = dirac_matrix(eps5).rows, minkowski_square(MOMENTUM_SYMBOLS)
    a, b = dispersion_polynomial(sym("l"), eps5)
    minus = -(ksq * a + ksq * ksq * b)
    return ExactMatrix([[_poly_sum_of_products([*zip(row, column), (one, minus)])
                         for one, column in zip(eye, zip(*rows))]
                        for row, eye in zip(rows, ExactMatrix.identity(4).rows)])


def scaling_residual(eps5: int) -> ExactMatrix:
    """s D(k; s l) - D(s k; l), one gamma sum of coefficient differences, k, l
    and s (the symbol r) symbolic: zero carries a kernel or root at one l > 0 to every l."""
    s = sym("r")
    return gamma_sum(eps5, [s * a - b for a, b in zip(
        dirac_coefficients(MOMENTUM_SYMBOLS, s * sym("l"), eps5),
        dirac_coefficients([s * c for c in MOMENTUM_SYMBOLS], sym("l"), eps5))])


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
    k2: object
    spinor_class: str
    eps5: int
    ell: object
    operator: ExactMatrix  # D(k), whose kernel ``basis`` spans


def heavy_mass(ell) -> Fraction:
    """M = 2/l, the mass scale of the heavy branch."""
    return 2 / as_fraction(ell)


def heavy_k2(ell, eps5: int) -> Fraction:
    """The heavy branch k^2 = -eps5 M^2."""
    return -eps5 * heavy_mass(ell) ** 2


def frame(eps5: int, x) -> tuple:
    """The four-vector with x on the axis of the massive frame: a massive
    mode with k^2 = -eps5 x^2 rests on the time axis for eps5 = -1
    (timelike) and on the z-axis for eps5 = +1 (spacelike)."""
    return (x, 0, 0, 0) if eps5 == -1 else (0, 0, 0, x)


def massive_class(eps5: int) -> str:
    """The reality class of a massive mode at rest in its ``frame``."""
    return "Dirac" if eps5 == -1 else "Majorana"


MASSLESS_CLASS = "Majorana"  # of a massless mode, for either eps5


def spinor_kernel(operator: ExactMatrix, k, eps5: int) -> tuple:
    """(basis, reality class) of the kernel of ``operator``, the Dirac-type
    operator at momentum k.  A mode's kernel must be two-dimensional:
    anything else signals a convention error and raises VerificationError."""
    basis = tuple(tuple(vec) for vec in operator.kernel())
    if len(basis) != 2:
        raise VerificationError(f"nullspace dimension {len(basis)} != 2 at "
                                f"k=({', '.join(map(str, k))}) (eps5={eps5})")
    return basis, reality_class(basis)


def reference_solutions(ell, eps5: int, branch: str, energy_sign: int = 1) -> SpinorSolution:
    """Reference-frame solutions with exact nullspaces.

    Heavy branch: k = frame(eps5, +-M), M = 2/l, the rest frame for
    eps5 = -1 (timelike branch) and the z-frame for eps5 = +1 (spacelike
    branch).  Massless branch: k = energy_sign (1, 0, 0, 1).  The nullspace
    must come out two-dimensional (``spinor_kernel``).
    """
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}")
    if energy_sign not in (1, -1):
        raise ValueError("energy_sign must be +1 or -1")
    ellf = as_fraction(ell)
    if ellf <= 0:
        raise ValueError("ell must be positive")
    if branch == "heavy":
        k = frame(eps5, energy_sign * heavy_mass(ellf))
    else:
        k = (energy_sign, 0, 0, energy_sign)
    op = dirac_matrix(eps5, k, ellf)
    basis, cls = spinor_kernel(op, k, eps5)
    return SpinorSolution(k=k, basis=basis, k2=minkowski_square(k),
                          spinor_class=cls, eps5=eps5, ell=ellf, operator=op)


def residual(k, u, ell, eps5: int) -> float:
    """||D(k) u|| / ||u||, formed exactly and rounded once to a float: 0.0
    exactly when D(k) u = 0.  k and l > 0 are exact rationals (strings like
    "1/10" too); the entries of u are exact numbers or Python complex
    numbers with integer parts."""
    ellf = as_fraction(ell)
    if ellf <= 0:
        raise ValueError("ell must be positive")
    return operator_residual(dirac_matrix(eps5, tuple(as_fraction(c) for c in k), ellf), u)


def operator_residual(op: ExactMatrix, u) -> float:
    """||op u|| / ||u|| for u as ``residual`` takes it, rounded once: the
    residual of a ``SpinorSolution`` basis vector against its ``operator``."""
    uvec = ExactMatrix.from_complex_entries([[c] for c in u])
    if uvec.is_zero():
        raise ValueError("zero vector has no residual")
    return rounded(exact_sqrt(_norm_squared(op @ uvec) / _norm_squared(uvec)))[0]


def _norm_squared(column: ExactMatrix) -> Fraction:
    return sum((x * x.conjugate() for [x] in column.scalar_entries()), ZERO).to_fraction()

