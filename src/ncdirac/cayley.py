"""Exact Lorentz covariance by Cayley boosts.

A real antisymmetric generator omega of exact rationals gives the spinor
boost S = (I + A/2)(I - A/2)^-1 with A = (1/4) omega_ab g^a g^b, and the
vector boost Lambda with S^-1 g^mu S = Lambda^mu_nu g^nu, read from S by
trace.  In the Majorana representation A is real, so S, S^-1 and Lambda
are integer matrices over one denominator each, and a large boost is only
larger integers.  ``cayley_boost`` builds them and checks their pairing;
``boost_defect`` checks that a boost carries an exact solution of the
extended Dirac equation to one at Lambda k.  Nothing here uses floats.
"""

from __future__ import annotations

import math
from functools import cache
from operator import mul
from typing import NamedTuple

from .clifford import VerificationError, _exact_gammas, _gamma_units
from .lie_algebra import ETA4_DIAG, lower, minkowski_square
from .modes import SpinorSolution, dirac_coefficients
from .scalars import as_fraction

# the Cayley boosts below hold 4x4 integer matrices flat, row after row

def _imul(x, y) -> list:
    """X Y, written out: it runs about ten times per boost."""
    a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3 = x
    e0, e1, e2, e3, f0, f1, f2, f3, g0, g1, g2, g3, h0, h1, h2, h3 = y
    return [a0 * e0 + a1 * f0 + a2 * g0 + a3 * h0, a0 * e1 + a1 * f1 + a2 * g1 + a3 * h1,
            a0 * e2 + a1 * f2 + a2 * g2 + a3 * h2, a0 * e3 + a1 * f3 + a2 * g3 + a3 * h3,
            b0 * e0 + b1 * f0 + b2 * g0 + b3 * h0, b0 * e1 + b1 * f1 + b2 * g1 + b3 * h1,
            b0 * e2 + b1 * f2 + b2 * g2 + b3 * h2, b0 * e3 + b1 * f3 + b2 * g3 + b3 * h3,
            c0 * e0 + c1 * f0 + c2 * g0 + c3 * h0, c0 * e1 + c1 * f1 + c2 * g1 + c3 * h1,
            c0 * e2 + c1 * f2 + c2 * g2 + c3 * h2, c0 * e3 + c1 * f3 + c2 * g3 + c3 * h3,
            d0 * e0 + d1 * f0 + d2 * g0 + d3 * h0, d0 * e1 + d1 * f1 + d2 * g1 + d3 * h1,
            d0 * e2 + d1 * f2 + d2 * g2 + d3 * h2, d0 * e3 + d1 * f3 + d2 * g3 + d3 * h3]


def _lin(*terms) -> list:
    """sum c X over the pairs c, X of ``terms``, ints and matrices in turn."""
    return [sum(map(mul, terms[0::2], vals)) for vals in zip(*terms[1::2])]


def _transpose(x) -> list:
    return [v for j in range(4) for v in x[j::4]]


def _times_perm(x, column) -> list:
    """X P for a signed permutation P given per column as (row, sign)."""
    return [x[i + k] * sign for i in (0, 4, 8, 12) for k, sign in column]


class _Tables(NamedTuple):
    """The integer forms of the Majorana gammas.  g^mu = i R_mu for real
    signed permutations R_mu, so G = g0 g1 g2 g3 = R_0 R_1 R_2 R_3 and
    every g^a g^b = -R_a R_b are real integer matrices, and G^2 = -I.  The
    R_mu are orthogonal under <X, Y> = sum of X * Y entrywise, with
    <R_a, R_b> = 4 delta_ab, and R_mu^T = -eta_mu R_mu, so
    <X, R_mu> = -eta_mu tr(X R_mu)."""

    eye: list
    eta: list
    r: list
    r_cols: list  # R_mu per column: its one nonzero as (row, sign)
    g: list
    g_t: list
    g_cols: list
    pairs: dict  # (a, b) -> R_a R_b for a < b


@cache
def _tables() -> _Tables:
    def per_column(x):
        return [(k, x[j + 4 * k]) for j in range(4) for k in range(4) if x[j + 4 * k]]

    r = [[int(x.to_scalar().im) for row in g.rows for x in row] for g in _exact_gammas()[:4]]
    if ([[sum(map(mul, a, b)) for b in r] for a in r] != [[4 * (i == j) for j in range(4)]
                                                           for i in range(4)]
            or any(_transpose(x) != [-e * v for v in x] for e, x in zip(ETA4_DIAG, r))):
        raise VerificationError("the real gammas are not orthogonal with R^T = -eta R")
    pairs = {(a, b): _imul(r[a], r[b]) for a in range(4) for b in range(a + 1, 4)}
    g = _imul(pairs[0, 1], pairs[2, 3])
    eye, eta = ([v * (i == j) for i, v in enumerate(d) for j in range(4)]
                for d in ((1,) * 4, ETA4_DIAG))
    return _Tables(eye, eta, r, [per_column(x) for x in r], g, _transpose(g),
                   per_column(g), pairs)


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
    integer M = -sum_{a<b} q omega_ab R_a R_b.  The Clifford relations give
    M^2 = alpha I + beta G, so with c = n^2 - alpha and den = c^2 + beta^2,
    S = (I + A/2)^2 (I - A^2/4)^-1 = (nI + M)^2 (cI + beta G) / den and
    S^-1 = (nI - M)^2 (cI + beta G) / den; den = 0 exactly when I - A/2 is
    singular.  Lambda^mu_nu = tr(S^-1 g^mu S g^nu) / (4 eta_nunu).  Checked:
    S^-1 S = I, S^-1 g^mu S = Lambda^mu_nu g^nu, Lambda^T eta Lambda = eta
    and [S, G] = 0, which is [S, g^4] = 0 for both signatures (g^4 = i G or
    -G).  A singular I - A/2 or a failed identity raises VerificationError."""
    omega = [[as_fraction(x) for x in row] for row in omega]
    if len(omega) != 4 or any(len(row) != 4 for row in omega):
        raise ValueError("omega must be a 4x4 array")
    q = math.lcm(*(x.denominator for row in omega for x in row))
    w = [[x.numerator * (q // x.denominator) for x in row] for row in omega]
    if any(w[a][b] != -w[b][a] for a in range(4) for b in range(a, 4)):
        raise ValueError("omega must be antisymmetric")
    tab = _tables()
    n = 4 * q
    m = _lin(*(x for (a, b), p in tab.pairs.items() for x in (-w[a][b], p)))
    m2 = _imul(m, m)
    c = n * n - sum(m2[0::5]) // 4
    beta = -sum(map(mul, m2, tab.g_t)) // 4  # tr(M^2 G) = -4 beta
    den = c * c + beta * beta
    if not den:
        raise VerificationError("I - A/2 is singular")
    base = _lin(n * n, tab.eye, 1, m2)
    # (nI +- M)^2 (cI + beta G)
    numer, inverse = (_lin(c, sq, beta, _times_perm(sq, tab.g_cols))
                      for sq in ([x + 2 * sign * n * y for x, y in zip(base, m)]
                                 for sign in (1, -1)))
    common = math.gcd(den, *numer, *inverse)
    numer, inverse = ([x // common for x in mat] for mat in (numer, inverse))
    den //= common
    d2 = den * den
    if _imul(inverse, numer) != [d2 * v for v in tab.eye]:
        raise VerificationError("S^-1 S != I")
    # with X_mu = den^2 S^-1 R_mu S, t[mu][nu] = <X_mu, R_nu> is
    # -eta_nu tr(X_mu R_nu) = 4 den^2 Lambda^mu_nu; the R_nu being
    # orthogonal of norm 4, the pairing 4 X_mu = sum_nu t[mu][nu] R_nu holds
    # exactly when 4 <X_mu, X_mu> = sum_nu t[mu][nu]^2
    t = []
    for column in tab.r_cols:
        x = _imul(_times_perm(inverse, column), numer)
        t.append([sum(map(mul, x, r_nu)) for r_nu in tab.r])
        if 4 * sum(map(mul, x, x)) != sum(v * v for v in t[-1]):
            raise VerificationError("S^-1 g^mu S != Lambda^mu_nu g^nu")
    t_flat = [v for row in t for v in row]
    eta_t = [ETA4_DIAG[i // 4] * v for i, v in enumerate(t_flat)]
    if _imul(_transpose(t_flat), eta_t) != [16 * d2 * d2 * v for v in tab.eta]:
        raise VerificationError("Lambda^T eta Lambda != eta")
    if _times_perm(numer, tab.g_cols) != _imul(tab.g, numer):
        raise VerificationError("[S, g^4] != 0")
    numer, inverse = ([mat[i:i + 4] for i in (0, 4, 8, 12)] for mat in (numer, inverse))
    return CayleyBoost(numer=numer, inverse=inverse, denom=den, lam_numer=t)


def cayley_boosts(omegas) -> list[CayleyBoost]:
    """cayley_boost of each generator in order; the first one that fails
    raises VerificationError naming its draw (``index``)."""
    out = []
    for i, omega in enumerate(omegas):
        try:
            out.append(cayley_boost(omega))
        except VerificationError as exc:
            raise VerificationError(f"draw {i}: {exc}", index=i) from None
    return out


def boost_defect(s: SpinorSolution, boosts) -> tuple[int, str] | None:
    """(index, relation) of the first Cayley boost that moves the exact
    solution s, k' = Lambda k and u' = S u, off k'^2 = k^2 or off
    D(k') u' = 0; None when every boost keeps both.

    Integers throughout: with k = K/L, -eps5 (l/2) k^2 = Z/L and each basis
    vector scaled to Gaussian integers, 4 denom^2 L D(k') S u is
    (sum_mu (Lambda_num K)_mu g_mu + 4 denom^2 Z g^4) numer u, once
    k'^2 = k^2 holds."""
    k = [as_fraction(c) for c in s.k]
    z = dirac_coefficients(k, as_fraction(s.ell), s.eps5)[4]
    big_l = math.lcm(z.denominator, *(c.denominator for c in k))
    big_k, big_z = [int(c * big_l) for c in k], int(z * big_l)
    k2 = minkowski_square(big_k)  # L^2 k^2
    vectors = []
    for u in s.basis:
        d = math.lcm(*(part.denominator for x in u for part in (x.re, x.im)))
        vectors.append(([int(x.re * d) for x in u], [int(x.im * d) for x in u]))
    units = [[(r, c, int(x.re), int(x.im)) for r, c, x in gs] for gs in _gamma_units(s.eps5)]
    for index, b in enumerate(boosts):
        scale = 4 * b.denom ** 2
        tk = [sum(map(mul, row, big_k)) for row in b.lam_numer]
        if minkowski_square(tk) != scale * scale * k2:
            return index, "k^2 changed under boost"
        coeffs = [*lower(tk), scale * big_z]
        for re_u, im_u in vectors:
            re_w = [sum(map(mul, row, re_u)) for row in b.numer]
            im_w = [sum(map(mul, row, im_u)) for row in b.numer]
            re_out, im_out = [0] * 4, [0] * 4
            for coeff, gs in zip(coeffs, units):
                for r, c, xr, xi in gs:
                    re_c, im_c = re_w[c], im_w[c]
                    re_out[r] += coeff * (xr * re_c - xi * im_c)
                    im_out[r] += coeff * (xr * im_c + xi * re_c)
            if any(re_out) or any(im_out):
                return index, "D(Lambda k) S u != 0"
    return None
