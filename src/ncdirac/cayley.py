"""Exact Lorentz covariance by Cayley boosts.

A real antisymmetric generator omega of exact rationals gives the spinor
boost S = (I + A/2)(I - A/2)^-1 with A = (1/4) omega_ab g^a g^b, and the
vector boost Lambda with S^-1 g^mu S = Lambda^mu_nu g^nu, read from S by
trace.  In the Majorana representation A is real, so S, S^-1 and Lambda
are integer matrices over one denominator each, and a large boost is only
larger integers.  Both read the gammas from ``clifford``'s store of
phased permutations: ``cayley_boost`` builds S, S^-1 and Lambda and checks
their pairing; ``boost_defect`` checks that a boost carries an exact
solution of the extended Dirac equation to one at Lambda k.  Nothing here
uses floats.
"""

from __future__ import annotations

import math
from functools import cache
from operator import mul
from typing import NamedTuple

from . import clifford
from .clifford import VerificationError
from .lie_algebra import ETA4_DIAG, lower, minkowski_square
from .modes import SpinorSolution, dirac_coefficients
from .scalars import as_fraction

# the Cayley boosts below hold 4x4 integer matrices flat, row after row


def _imul(x, y) -> list:
    """X Y, written out: it runs seven times per boost."""
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


def _transpose(x) -> list:
    return [v for j in range(4) for v in x[j::4]]


# a signed permutation holds per row the column of its one nonzero entry
# and that entry, +1 or -1: multiplying by one moves and negates entries


def _signed(*factors, turn: int = 0) -> tuple:
    """i^turn times the product of phased permutations of ``clifford``'s
    store, when that is real, as a signed permutation."""
    return tuple((c, 1 - p) for c, p in clifford._perm_product(*factors, turn=turn))


def _times(x, perm) -> list:
    """X S for a signed permutation S: column k of X, times S's entry in
    row k, lands in S's column of row k."""
    out = [0] * 16
    for k, (c, s) in enumerate(perm):
        out[c], out[c + 4], out[c + 8], out[c + 12] = (s * x[k], s * x[k + 4], s * x[k + 8],
                                                      s * x[k + 12])
    return out


def _perm_times(perm, x) -> list:
    """S X for a signed permutation S: row r is S's entry in row r times
    the row of X at S's column."""
    return [s * v for c, s in perm for v in x[4 * c:4 * c + 4]]


def _pair(x, perm) -> int:
    """<X, S>, the sum of X * S entrywise, for a signed permutation S."""
    (c0, s0), (c1, s1), (c2, s2), (c3, s3) = perm
    return s0 * x[c0] + s1 * x[4 + c1] + s2 * x[8 + c2] + s3 * x[12 + c3]


@cache
def _tables() -> tuple:
    """R_mu with g^mu = i R_mu, then R_a R_b for a < b, then
    G = R_0 R_1 R_2 R_3, as signed permutations read from the gammas'
    store.  So every g^a g^b = -R_a R_b, g0 g1 g2 g3 = G and G^2 = -I.
    The R_mu are orthogonal under <X, Y> = sum of X * Y entrywise, with
    <R_a, R_b> = 4 delta_ab, and R_mu^T = -eta_mu R_mu, so
    <X, R_mu> = -eta_mu tr(X R_mu)."""
    g = clifford._gamma_perms(1)[:4]
    pairs = {(a, b): _signed(g[a], g[b], turn=2) for a in range(4) for b in range(a + 1, 4)}
    return [_signed(x, turn=3) for x in g], pairs, _signed(*g)


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
    integer M = -sum_{a<b} q omega_ab R_a R_b; the R_mu, R_a R_b and
    G = R_0 R_1 R_2 R_3 are signed permutations read from the gammas'
    store (``_tables``), so a product with one moves entries.  The
    Clifford relations give M^2 = alpha I + beta G, so with c = n^2 - alpha
    and den = c^2 + beta^2, S = (I + A/2)^2 (I - A^2/4)^-1 =
    (nI + M)^2 (cI + beta G) / den and S^-1 = (nI - M)^2 (cI + beta G) / den,
    both squares n^2 I +- 2nM + M^2 from the one M^2; den = 0 exactly when
    I - A/2 is singular.  Lambda^mu_nu = tr(S^-1 g^mu S g^nu) / (4 eta_nunu).
    Checked on the integer matrices: S^-1 S = I, S^-1 g^mu S =
    Lambda^mu_nu g^nu, Lambda^T eta Lambda = eta and [S, g^4] = 0, the
    last against the store's gamma5 = i G, which gives it for both
    signatures (g^4 = i G or -G).  Seven products of dense integer
    matrices remain: M^2, S^-1 S, the four S^-1 R_mu S and
    Lambda^T eta Lambda.  A singular I - A/2 or a failed identity raises
    VerificationError."""
    omega = [[as_fraction(x) for x in row] for row in omega]
    if len(omega) != 4 or any(len(row) != 4 for row in omega):
        raise ValueError("omega must be a 4x4 array")
    q = math.lcm(*(x.denominator for row in omega for x in row))
    w = [[x.numerator * (q // x.denominator) for x in row] for row in omega]
    if any(w[a][b] != -w[b][a] for a in range(4) for b in range(a, 4)):
        raise ValueError("omega must be antisymmetric")
    r, pairs, g = _tables()
    n = 4 * q
    m = [0] * 16
    for (a, b), perm in pairs.items():
        for row, (col, s) in enumerate(perm):
            m[4 * row + col] -= s * w[a][b]
    m2 = _imul(m, m)
    c = n * n - sum(m2[0::5]) // 4
    # tr(M^2 G) = -4 beta, G having the entry s at (k, col)
    beta = -sum(s * m2[4 * col + k] for k, (col, s) in enumerate(g)) // 4
    den = c * c + beta * beta
    if not den:
        raise VerificationError("I - A/2 is singular")
    base = m2  # n^2 I + M^2
    for i in (0, 5, 10, 15):
        base[i] += n * n
    # (nI +- M)^2 (cI + beta G)
    numer, inverse = ([c * x + beta * y for x, y in zip(sq, _times(sq, g))]
                      for sq in ([x + 2 * sign * n * y for x, y in zip(base, m)]
                                 for sign in (1, -1)))
    common = math.gcd(den, *numer, *inverse)
    numer, inverse = ([x // common for x in mat] for mat in (numer, inverse))
    den //= common
    d2 = den * den
    if _imul(inverse, numer) != [d2 * (i % 5 == 0) for i in range(16)]:
        raise VerificationError("S^-1 S != I")
    # with X_mu = den^2 S^-1 R_mu S, t[mu][nu] = <X_mu, R_nu> is
    # -eta_nu tr(X_mu R_nu) = 4 den^2 Lambda^mu_nu; the R_nu being
    # orthogonal of norm 4, the pairing 4 X_mu = sum_nu t[mu][nu] R_nu holds
    # exactly when 4 <X_mu, X_mu> = sum_nu t[mu][nu]^2
    t = []
    for r_mu in r:
        x = _imul(_times(inverse, r_mu), numer)
        row = [_pair(x, r_nu) for r_nu in r]
        if 4 * sum(map(mul, x, x)) != sum(v * v for v in row):
            raise VerificationError("S^-1 g^mu S != Lambda^mu_nu g^nu")
        t.append(row)
    t_flat = [v for row in t for v in row]
    eta_t = [ETA4_DIAG[i // 4] * v for i, v in enumerate(t_flat)]
    if _imul(_transpose(t_flat), eta_t) != [16 * d2 * d2 * ETA4_DIAG[i // 4] * (i % 5 == 0)
                                             for i in range(16)]:
        raise VerificationError("Lambda^T eta Lambda != eta")
    g5 = _signed(clifford._gamma_perms(1)[4], turn=3)  # -i gamma5 = G
    if _times(numer, g5) != _perm_times(g5, numer):
        raise VerificationError("[S, g^4] != 0")
    numer, inverse = ([mat[i:i + 4] for i in (0, 4, 8, 12)] for mat in (numer, inverse))
    return CayleyBoost(numer=numer, inverse=inverse, denom=den, lam_numer=t)


_POWERS_OF_I = ((1, 0), (0, 1), (-1, 0), (0, -1))  # i^p as (re, im)


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
    units = [[(r, c, *_POWERS_OF_I[p]) for r, (c, p) in enumerate(g)]
             for g in clifford._gamma_perms(s.eps5)]
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
            for coeff, g in zip(coeffs, units):
                for r, c, xr, xi in g:
                    re_c, im_c = re_w[c], im_w[c]
                    re_out[r] += coeff * (xr * re_c - xi * im_c)
                    im_out[r] += coeff * (xr * im_c + xi * re_c)
            if any(re_out) or any(im_out):
                return index, "D(Lambda k) S u != 0"
    return None
