"""Exact Lorentz covariance by Cayley boosts: the tests' finite-group
oracle for the generator proof of ``modes.lorentz_covariance``.

A real antisymmetric generator omega of exact rationals gives the spinor
boost S = (I + A/2)(I - A/2)^-1 with A = (1/4) omega_ab g^a g^b, and the
vector boost Lambda with S^-1 g^mu S = Lambda^mu_nu g^nu, read from S by
trace.  In the Majorana representation A is real, so S, S^-1 and Lambda
are integer matrices over one denominator each, and a large boost is only
larger integers.  ``cayley_boost`` builds S, S^-1 and Lambda on dense
integer matrices, read from the exact gammas of ``exact_gammas`` and
multiplied by one product (``_product``), and checks their pairing;
``boost_defect`` checks with ``modes.dirac_matrix`` that a boost carries an
exact solution of the extended Dirac equation to one at Lambda k.  Nothing
here uses floats.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import chain
from operator import mul
from typing import NamedTuple

from exact_gammas import exact_gammas

from ncdirac.clifford import VerificationError
from ncdirac.lie_algebra import ETA4_DIAG, minkowski_square
from ncdirac.matrices import ExactMatrix
from ncdirac.modes import SpinorSolution, dirac_matrix
from ncdirac.scalars import ExactScalar, as_fraction

# the integer matrices below are lists of rows

_MINUS_I = ExactScalar(0, -1)


def _product(*factors) -> list:
    """The product of one or more matrices given as rows."""
    out, *rest = factors
    for y in rest:
        cols = list(zip(*y))
        out = [[sum(map(mul, row, col)) for col in cols] for row in out]
    return out


def _affine(a: int, b: int, x) -> list:
    """a I + b X."""
    return [[a * (i == j) + b * v for j, v in enumerate(row)] for i, row in enumerate(x)]


def _diag(values) -> list:
    return [[v * (i == j) for j in range(4)] for i, v in enumerate(values)]


def _real(gamma: ExactMatrix) -> list:
    """-i gamma as integer rows; an entry it leaves complex raises."""
    return [[int((_MINUS_I * x).to_fraction()) for x in row] for row in gamma.scalar_entries()]


@cache
def _tables() -> tuple:
    """R_mu with g^mu = i R_mu, then R_a R_b for a < b, then
    G = R_0 R_1 R_2 R_3, as integer matrices read from the exact gammas.
    So every g^a g^b = -R_a R_b, g0 g1 g2 g3 = G and G^2 = -I.  The R_mu
    are orthogonal under <X, Y> = sum of X * Y entrywise, with
    <R_a, R_b> = 4 delta_ab, and R_mu^T = -eta_mu R_mu, so
    <X, R_mu> = -eta_mu tr(X R_mu)."""
    r = [_real(g) for g in exact_gammas(1)[:4]]
    pairs = {(a, b): _product(r[a], r[b]) for a in range(4) for b in range(a + 1, 4)}
    return r, pairs, _product(*r)


class CayleyBoost(NamedTuple):
    """S = (I + A/2)(I - A/2)^-1 for A = (1/4) omega_ab g^a g^b, and the
    Lambda with S^-1 g^mu S = Lambda^mu_nu g^nu, over integers: A is real,
    so S = numer / denom and S^-1 = inverse / denom with no common factor,
    and Lambda = lam_numer / (4 denom^2)."""

    numer: list
    inverse: list
    denom: int
    lam_numer: list

    @property
    def height_bits(self) -> int:
        """Bit size of the largest integer of S over its denominator."""
        return max(self.denom, *(abs(x) for row in self.numer for x in row)).bit_length()


def cayley_boost(omega) -> CayleyBoost:
    """The Cayley boost of an antisymmetric 4x4 generator of exact
    rationals, with its identities checked exactly.

    With q the common denominator of omega and n = 4q, A/2 = M/n for the
    integer M = -sum_{a<b} q omega_ab R_a R_b (``_tables``).  The Clifford
    relations give M^2 = alpha I + beta G, so with c = n^2 - alpha and
    den = c^2 + beta^2, S = (I + A/2)^2 (I - A^2/4)^-1 =
    (nI + M)^2 (cI + beta G) / den and S^-1 = (nI - M)^2 (cI + beta G) / den;
    den = 0 exactly when I - A/2 is singular.  Lambda^mu_nu = tr(S^-1 g^mu S g^nu) / (4 eta_nunu).
    Checked on the integer matrices: S^-1 S = I, S^-1 g^mu S =
    Lambda^mu_nu g^nu, Lambda^T eta Lambda = eta and [S, g^4] = 0, the
    last against the gamma5 = i G of ``exact_gammas`` read on every
    call, which gives it for both signatures (g^4 = i G or -G).  A
    singular I - A/2 or a failed identity raises VerificationError."""
    omega = [[as_fraction(x) for x in row] for row in omega]
    if len(omega) != 4 or any(len(row) != 4 for row in omega):
        raise ValueError("omega must be a 4x4 array")
    q = math.lcm(*(x.denominator for row in omega for x in row))
    w = [[x.numerator * (q // x.denominator) for x in row] for row in omega]
    if any(w[a][b] != -w[b][a] for a in range(4) for b in range(a, 4)):
        raise ValueError("omega must be antisymmetric")
    r, pairs, g = _tables()
    n = 4 * q
    m = [[-sum(w[a][b] * pair[i][j] for (a, b), pair in pairs.items()) for j in range(4)]
         for i in range(4)]
    m2 = _product(m, m)
    c = n * n - sum(row[i] for i, row in enumerate(m2)) // 4
    beta = -sum(map(mul, chain(*m2), chain(*zip(*g)))) // 4  # tr(M^2 G) = -4 beta
    den = c * c + beta * beta
    if not den:
        raise VerificationError("I - A/2 is singular")
    numer, inverse = (_product(root, root, _affine(c, beta, g))  # (nI +- M)^2 (cI + beta G)
                      for root in (_affine(n, sign, m) for sign in (1, -1)))
    common = math.gcd(den, *chain(*numer), *chain(*inverse))
    numer, inverse = ([[x // common for x in row] for row in mat] for mat in (numer, inverse))
    den //= common
    d2 = den * den
    if _product(inverse, numer) != _diag([d2] * 4):
        raise VerificationError("S^-1 S != I")
    # with X_mu = den^2 S^-1 R_mu S, t[mu][nu] = <X_mu, R_nu> is
    # -eta_nu tr(X_mu R_nu) = 4 den^2 Lambda^mu_nu; the R_nu being
    # orthogonal of norm 4, the pairing 4 X_mu = sum_nu t[mu][nu] R_nu holds
    # exactly when 4 <X_mu, X_mu> = sum_nu t[mu][nu]^2
    t = []
    for r_mu in r:
        x = list(chain(*_product(inverse, r_mu, numer)))
        row = [sum(map(mul, x, chain(*r_nu))) for r_nu in r]
        if 4 * sum(map(mul, x, x)) != sum(v * v for v in row):
            raise VerificationError("S^-1 g^mu S != Lambda^mu_nu g^nu")
        t.append(row)
    eta_t = [[e * v for v in row] for e, row in zip(ETA4_DIAG, t)]
    if _product(list(zip(*t)), eta_t) != _diag([16 * d2 * d2 * e for e in ETA4_DIAG]):
        raise VerificationError("Lambda^T eta Lambda != eta")
    g5 = _real(exact_gammas(1)[4])  # -i gamma5 = G
    if _product(numer, g5) != _product(g5, numer):
        raise VerificationError("[S, g^4] != 0")
    return CayleyBoost(numer=numer, inverse=inverse, denom=den, lam_numer=t)


def boost_defect(s: SpinorSolution, boosts) -> tuple[int, str] | None:
    """(index, relation) of the first Cayley boost that moves the exact
    solution s, k' = Lambda k and u' = S u, off k'^2 = k^2 or off
    D(k') u' = 0; None when every boost keeps both.  D(k') is
    ``modes.dirac_matrix``, applied to denom S u: the scale keeps the
    zero."""
    k = [as_fraction(c) for c in s.k]
    k2 = minkowski_square(k)
    columns = list(zip(*s.basis))
    for index, b in enumerate(boosts):
        moved = tuple(sum(map(mul, row, k)) / (4 * b.denom ** 2) for row in b.lam_numer)
        if minkowski_square(moved) != k2:
            return index, "k^2 changed under boost"
        op = dirac_matrix(s.eps5, moved, s.ell).scalar_entries()
        if any(chain(*_product(op, _product(b.numer, columns)))):
            return index, "D(Lambda k) S u != 0"
    return None
