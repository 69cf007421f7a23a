"""Momentum-space extended Dirac operator, its Lorentz covariance, its two
dispersion branches, and reference-frame spinor solutions.

The operator is D(k) = g^mu k_mu - eps5 * g^4 * (l/2) k^2 in the Majorana
representation.  It is written once, at eps5 = +1, as g.k - g5 (l/2) k^2
on the gammas of that signature, g5 = g^4 there; at eps5 = -1 it is the
twist l -> -i l of that, g.k + i g5 (l/2) k^2, as g^4 = i g5 there.  The
same twist carries the dispersion polynomial k^2 + (l^2/4)(k^2)^2, which
D(k)^2 equals, to k^2 + eps5 (l^2/4)(k^2)^2 (``dispersion_polynomial``);
its roots, the branches, are k^2 = 0 and k^2 = -eps5 4/l^2.  D is
homogeneous, s D(k; s l) = D(s k; l) (``scaling_residual``), so what holds
at one l holds, rescaled, at every l > 0.

The heavy branch is written here once: its mass scale M = 2/l
(``heavy_mass``), its k^2 = -eps5 M^2 (``heavy_k2``), the frame a massive
mode rests in (``frame``), that mode's reality class (``massive_class``)
and the one guarded kernel of a mode, two-dimensional or an error, with
the class read off its canonical basis (``spinor_kernel``).  ``seesaw``
reads them for its light and heavy modes.
These are facts of each real form, written per sign.  Every function here
refuses an eps5 other than +1 or -1, and a length l <= 0.

Momenta are stored upper-index; ``dirac_coefficients``, the one place D(k)
is written, lowers them with ``lie_algebra.lower``.  Everything is exact:
momenta and l are rationals, and a float raises TypeError.

``lorentz_covariance`` proves D(k) Lorentz covariant from the six
generators S_munu = (1/4)[g^mu, g^nu], mu < nu < 4, with k and l symbolic:
their gamma identities against the vector generators L_munu read from the
flat table (``clifford.spinor_generator_identities``), then [S_munu, D(k)]
= (L_munu k).grad D(k).  That gives D(Lambda k) S = S D(k) for every k
and l on the whole identity component of SO(1,3).

``exact_sqrt`` writes sqrt(q) exactly, a ``QuadraticScalar`` when q is no
rational square, and ``rounded`` rounds its values once, for ``seesaw`` too.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from math import isqrt
from numbers import Integral

from .clifford import VerificationError, gamma_sum, spinor_generator_identities
from .lie_algebra import flat_deformed_algebra, lower, minkowski_square, quarter
from .matrices import ExactMatrix
from .scalars import (I, MOMENTUM_SYMBOLS, ONE, ZERO, ExactScalar, _coerce_scalar, _make,
                      _packed_poly, _poly_sum_of_products, as_fraction, poly, sym)

BRANCHES = ("massless", "heavy")


def _turned_length(ell, eps5: int):
    """l at eps5 = +1 and -i l at eps5 = -1: the twist that carries D(k)
    and its dispersion polynomial from +1 to -1, on a number or a ParamPoly."""
    return ell * (-I) ** quarter(eps5)


def dirac_coefficients(k, ell, eps5: int) -> list:
    """The coefficients of D(k) on the eps5 = +1 gammas g^0..g^4: lower(k)
    and -(l/2) k^2, with l turned (``_turned_length``), for exact numbers or
    ParamPoly."""
    ell = _turned_length(ell, eps5)
    return [*lower(k), Fraction(-1, 2) * ell * minkowski_square(k)]


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
    return gamma_sum(1, dirac_coefficients(k, ell, eps5))


def dispersion_polynomial(ell, eps5: int) -> tuple:
    """(a, b) of the dispersion polynomial a k^2 + b (k^2)^2 =
    k^2 + eps5 (l^2/4)(k^2)^2, which D(k)^2 equals times Id: (1, l^2/4)
    with l turned (``_turned_length``); l is an exact number or a ParamPoly."""
    ell = _turned_length(ell, eps5)
    return 1, ell * ell * Fraction(1, 4)


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
    return gamma_sum(1, [s * a - b for a, b in zip(
        dirac_coefficients(MOMENTUM_SYMBOLS, s * sym("l"), eps5),
        dirac_coefficients([s * c for c in MOMENTUM_SYMBOLS], sym("l"), eps5))])


def dispersion_roots(ell, eps5: int) -> set:
    """Exact root set in k^2 of the dispersion polynomial
    k^2 (a + b k^2): {0, -a/b}, as Fractions."""
    a, b = dispersion_polynomial(_length(ell), eps5)
    return {Fraction(0), as_fraction(-a / b)}


class SpinorSolution(namedtuple("SpinorSolution",
                                "k basis k2 spinor_class eps5 ell operator")):
    """Nullspace data of the operator at a fixed momentum k: the kernel
    basis (a tuple), k2, the spinor class, eps5, l and the operator D(k),
    an ExactMatrix whose kernel ``basis`` spans."""

    __slots__ = ()


def _length(ell) -> Fraction:
    """l as an exact rational; l <= 0 raises ValueError."""
    ellf = as_fraction(ell)
    if ellf <= 0:
        raise ValueError("ell must be positive")
    return ellf


def heavy_mass(ell) -> Fraction:
    """M = 2/l, the mass scale of the heavy branch."""
    return 2 / _length(ell)


def heavy_k2(ell, eps5: int) -> Fraction:
    """The heavy branch k^2 = -eps5 M^2."""
    quarter(eps5)  # a bad eps5 raises
    return -eps5 * heavy_mass(ell) ** 2


def frame(eps5: int, x) -> tuple:
    """The four-vector with x on the axis of the massive frame: a massive
    mode with k^2 = -eps5 x^2 rests on the z-axis for eps5 = +1
    (spacelike) and on the time axis for eps5 = -1 (timelike)."""
    return ((0, 0, 0, x), (x, 0, 0, 0))[quarter(eps5)]


def massive_class(eps5: int) -> str:
    """The reality class of a massive mode at rest in its ``frame``:
    Majorana for eps5 = +1, Dirac for eps5 = -1."""
    return ("Majorana", "Dirac")[quarter(eps5)]


MASSLESS_CLASS = "Majorana"  # of a massless mode, for either eps5


def spinor_kernel(operator: ExactMatrix, k, eps5: int) -> tuple:
    """(basis, reality class) of the kernel of ``operator``, the Dirac-type
    operator at momentum k: the canonical basis ``ExactMatrix.kernel``
    gives, and "Majorana" if its span is closed under conjugation, "Dirac"
    otherwise.  A mode's kernel must be two-dimensional: anything else
    signals a convention error and raises VerificationError."""
    quarter(eps5)  # a bad eps5 raises before the kernel is formed
    basis = tuple(tuple(vec) for vec in operator.kernel())
    if len(basis) != 2:
        raise VerificationError(f"nullspace dimension {len(basis)} != 2 at "
                                f"k=({', '.join(map(str, k))}) (eps5={eps5})")
    # a kernel vector is fixed by its free coordinates, real (1 and 0) on
    # this basis: the span is closed under conjugation exactly when it is real
    real = all(x == x.conjugate() for vec in basis for x in vec)
    return basis, "Majorana" if real else "Dirac"


def reference_solutions(ell, eps5: int, branch: str) -> SpinorSolution:
    """Reference-frame solutions with exact nullspaces.

    Heavy branch: k = frame(eps5, M), M = 2/l, the rest frame for
    eps5 = -1 (timelike branch) and the z-frame for eps5 = +1 (spacelike
    branch).  Massless branch: k = (1, 0, 0, 1).  The nullspace must come
    out two-dimensional (``spinor_kernel``).
    """
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}")
    ellf = _length(ell)
    k = frame(eps5, heavy_mass(ellf)) if branch == "heavy" else (1, 0, 0, 1)
    op = dirac_matrix(eps5, k, ellf)
    basis, cls = spinor_kernel(op, k, eps5)
    return SpinorSolution(k=k, basis=basis, k2=minkowski_square(k),
                          spinor_class=cls, eps5=eps5, ell=ellf, operator=op)


def operator_residual(op: ExactMatrix, u) -> float:
    """||op u|| / ||u||, formed exactly and rounded once to a float: 0.0
    exactly when op u = 0, as for a ``SpinorSolution`` basis vector against
    its ``operator``.  The entries of u are exact numbers; a float or a
    complex raises TypeError."""
    uvec = ExactMatrix([[c] for c in u])
    if uvec.is_zero():
        raise ValueError("zero vector has no residual")
    return rounded(exact_sqrt(_norm_squared(op @ uvec) / _norm_squared(uvec)))[0]


def _norm_squared(column: ExactMatrix) -> Fraction:
    return sum((x * x.conjugate() for [x] in column.scalar_entries()), ZERO).to_fraction()


class QuadraticScalar:
    """a + b*sqrt(delta): ExactScalar parts a, b and a positive rational
    delta that is not a square (``exact_sqrt`` makes the first one).

    sqrt(delta) is then real and outside Q(i), so the element is zero
    exactly when a = b = 0, and the inverse goes through the conjugate
    a - b*sqrt(delta) with the nonzero norm a^2 - b^2 delta.  Exact numbers
    combine as b = 0; both operands of a binary operation share delta."""

    __slots__ = ("a", "b", "delta")

    def __init__(self, a, b, delta: Fraction):
        self.a, self.b, self.delta = _coerce_scalar(a), _coerce_scalar(b), delta

    def _parts(self, other) -> tuple:
        if type(other) is not QuadraticScalar:
            return _coerce_scalar(other), ZERO
        if other.delta is not self.delta and other.delta != self.delta:
            raise ValueError("operands lie in different quadratic fields")
        return other.a, other.b

    def __add__(self, other) -> "QuadraticScalar":
        a, b = self._parts(other)
        return QuadraticScalar(self.a + a, self.b + b, self.delta)

    __radd__ = __add__

    def __neg__(self) -> "QuadraticScalar":
        return QuadraticScalar(-self.a, -self.b, self.delta)

    def __sub__(self, other) -> "QuadraticScalar":
        return self + -other

    def __rsub__(self, other) -> "QuadraticScalar":
        return -self + other

    def __mul__(self, other) -> "QuadraticScalar":
        a, b = self._parts(other)
        if not b:
            return QuadraticScalar(self.a * a, self.b * a, self.delta)
        return QuadraticScalar(self.a * a + self.b * b * self.delta,
                               self.a * b + self.b * a, self.delta)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QuadraticScalar":
        a, b = self._parts(other)
        norm = a * a - b * b * self.delta
        return self * QuadraticScalar(a / norm, -b / norm, self.delta)

    def __rtruediv__(self, other) -> "QuadraticScalar":
        return QuadraticScalar(other, ZERO, self.delta) / self

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def __eq__(self, other) -> bool:
        """Equal by value; an exact number is the element with b = 0."""
        if not isinstance(other, (QuadraticScalar, ExactScalar, Integral, Fraction)):
            return NotImplemented
        return (self.a, self.b) == self._parts(other)

    def __hash__(self):
        # an element with b = 0 hashes like the exact number it equals
        return hash((self.a, self.b, self.delta)) if self.b else hash(self.a)


def exact_sqrt(q: Fraction):
    """sqrt(q) of a rational q >= 0: an ExactScalar when q is a rational
    square, the QuadraticScalar sqrt(q) otherwise."""
    n, d = isqrt(q.numerator), isqrt(q.denominator)
    if n * n == q.numerator and d * d == q.denominator:
        return _make(n, 0, d)
    return QuadraticScalar(ZERO, ONE, q)


def rounded(root, values=lambda r: (r,)) -> tuple:
    """The floats nearest values(root), each rounded once, for root =
    ``exact_sqrt(q)`` and values a map from a rational r >= 0 to a tuple of
    rationals, each monotone in r and irrational when r is.

    An irrational root is bracketed as isqrt(q 4^s) 2^-s <= sqrt(q) <
    (isqrt(q 4^s) + 1) 2^-s, first to about 70 bits, and s grows until both
    ends of every value round alike; they do once the bracket is narrow
    enough, since no float or midpoint of two floats is irrational."""
    if type(root) is not QuadraticScalar:
        return tuple(map(float, values(root.to_fraction())))
    p, q = root.delta.numerator, root.delta.denominator
    shift = max(0, (140 - p.bit_length() + q.bit_length()) // 2)
    while True:
        r = isqrt((p << 2 * shift) // q)
        ends = [tuple(map(float, values(Fraction(n, 1 << shift)))) for n in (r, r + 1)]
        if ends[0] == ends[1]:
            return ends[0]
        shift += 32
