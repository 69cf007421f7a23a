"""Gamma matrices in the Majorana imaginary representation, Clifford
relation checks, and the Dirac vs Majorana reality classifier.

The five-dimensional Clifford relations {g^a, g^b} = 2 eta^ab with
eta = diag(1,-1,-1,-1,eps5) are realized on 4x4 matrices: gamma0..gamma3
have purely imaginary entries, gamma5 = i g0 g1 g2 g3, and the fifth
element is gamma5 itself (eps5 = +1) or i*gamma5 (eps5 = -1).

Everything here is exact.  Each gamma has one unit entry per row, so the
gammas are stored once, as phased permutations: per row, the column of
its nonzero entry and the power p of i there (``_gamma_perms``, multiplied
by ``_perm_product``).  The store's format stays here: the Clifford
relations are decided on it by index arithmetic (a dense difference is
built only for a failing relation, to size its residual), and the one
other reader is the generator proof of ``ncdirac.lorentz``.  Every other
module reads the gammas as exact matrices built from it: those of
``build_majorana_rep`` and every sum_a c_a gamma^a (``gamma_sum``).
"""

from __future__ import annotations

from functools import cache
from itertools import combinations_with_replacement
from typing import NamedTuple

from .lie_algebra import ETA4_DIAG
from .matrices import ExactMatrix, echelon
from .scalars import I, ONE, P_ZERO, _poly_sum_of_products, poly


class VerificationError(RuntimeError):
    """An exact Cayley boost is singular or fails one of its identities, or
    a reference nullspace has the wrong dimension."""


# g0..g3, per row (column, p) with the entry i^p there: the Kronecker
# products g0 = s1 x s2, g1 = i 1 x s1, g2 = i s2 x s2 and g3 = i 1 x s3 of
# the Pauli matrices, all four purely imaginary
_GAMMA_PERMS = (
    ((3, 3), (2, 1), (1, 3), (0, 1)),
    ((1, 1), (0, 1), (3, 1), (2, 1)),
    ((3, 3), (2, 1), (1, 1), (0, 3)),
    ((0, 1), (1, 3), (2, 1), (3, 3)),
)
_POLY_POWERS = tuple(map(poly, (ONE, I, -ONE, -I)))  # i^p


def _perm_product(*factors, turn: int = 0) -> tuple:
    """i^turn times the product of one or more phased permutations: X Y
    sends row r to the column Y gives X's column, and adds the phases."""
    out, *rest = factors
    for y in rest:
        out = tuple((y[c][0], p + y[c][1]) for c, p in out)
    return tuple((c, (p + turn) % 4) for c, p in out)


@cache
def _gamma_perms(eps5: int) -> tuple:
    """g^0..g^4 of the eps5 signature as phased permutations: gamma5 =
    i g0 g1 g2 g3 is their phased product, and g^4 is gamma5 (eps5 = +1)
    or i gamma5 (eps5 = -1)."""
    if eps5 not in (1, -1):
        raise ValueError("eps5 must be +1 or -1")
    g5 = _perm_product(*_GAMMA_PERMS, turn=1)
    return (*_GAMMA_PERMS, g5 if eps5 == 1 else _perm_product(g5, turn=1))


def _exact(perm) -> ExactMatrix:
    rows = [[P_ZERO] * 4 for _ in range(4)]
    for r, (c, p) in enumerate(perm):
        rows[r][c] = _POLY_POWERS[p]
    return ExactMatrix(rows)


class GammaRep(NamedTuple):
    """Five gamma matrices gamma[0..4] of the eps5 signature."""

    gamma: tuple
    eps5: int


def build_majorana_rep(eps5: int) -> GammaRep:
    """The Majorana rep of the eps5 signature as exact matrices, built
    fresh from the store on every call."""
    return GammaRep(tuple(map(_exact, _gamma_perms(eps5))), eps5)


def gamma_sum(eps5: int, coeffs) -> ExactMatrix:
    """sum_a coeffs[a] gamma^a over the Majorana rep of the eps5 signature.

    ``coeffs`` lists up to five ParamPoly (or exact numbers) for gamma^0,
    gamma^1, ...; a zero coefficient adds nothing.  Each gamma has one
    nonzero entry per row, so every output entry is one exact sum of
    products per monomial (``_poly_sum_of_products``), reduced once.
    """
    pairs = {}
    for perm, coeff in zip(_gamma_perms(eps5), coeffs):
        coeff = poly(coeff)
        for r, (c, p) in enumerate(perm):
            pairs.setdefault((r, c), []).append((_POLY_POWERS[p], coeff))
    return ExactMatrix([[_poly_sum_of_products(pairs.get((r, c), ())) for c in range(4)]
                        for r in range(4)])


class RelationCheck(NamedTuple):
    name: str
    relation: str
    ok: bool
    residual: float


def _anticommute(x, y) -> bool:
    """Whether the phased permutations x and y anticommute, x y = -y x."""
    return _perm_product(x, y) == _perm_product(y, x, turn=2)


def _squares_to(x, eta: int) -> bool:
    """Whether x x = eta I: the phased permutation with phase 0 (eta = 1)
    or 2 (eta = -1) on the diagonal."""
    return _perm_product(x, x) == tuple((r, 1 - eta) for r in range(4))


def _gap(terms, target: int = 0) -> ExactMatrix:
    """The sum of the phased permutations ``terms`` minus target I, dense."""
    out = ExactMatrix.identity(4).scale(poly(-target))
    for perm in terms:
        out = out + _exact(perm)
    return out


def _check(name: str, relation: str, ok: bool, gaps) -> RelationCheck:
    """One relation's row.  ``gaps()`` gives the dense differences of its
    two sides and is called only when the relation fails: the residual is
    their largest entry modulus, as a float."""
    residual = 0.0 if ok else max(abs(complex(x)) for gap in gaps()
                                  for row in gap.scalar_entries() for x in row)
    return RelationCheck(name, relation, ok, residual)


def clifford_relations(eps5: int):
    """The 15 unordered anticommutator pairs, then the 5 squares, each
    decided on the gammas' store when it is drawn from this generator."""
    gammas = _gamma_perms(eps5)
    metric = ETA4_DIAG + (eps5,)
    for a, b in combinations_with_replacement(range(5), 2):
        x, y = gammas[a], gammas[b]
        eta = metric[a] if a == b else 0
        yield _check(
            f"anticommutator_g{a}_g{b}",
            f"{{g{a},g{b}}} = {f'2*eta{a}{a}' if a == b else '0'}",
            _squares_to(x, eta) if a == b else _anticommute(x, y),
            lambda: [_gap((_perm_product(x, y), _perm_product(y, x)), 2 * eta)],
        )
    for a, x in enumerate(gammas):
        yield _check(f"square_g{a}", f"(g{a})^2 = eta{a}{a}", _squares_to(x, metric[a]),
                     lambda: [_gap((_perm_product(x, x),), metric[a])])


def verify_clifford(eps5: int) -> list[RelationCheck]:
    """The 15 unordered anticommutator pairs plus the 5 squares, exactly."""
    return list(clifford_relations(eps5))


def gamma5_product_check(eps5: int) -> RelationCheck:
    """g0 g1 g2 g3 = -i gamma5, with gamma5 read from g^4: g^4 itself for
    eps5 = +1 and -i g^4 for eps5 = -1."""
    gammas = _gamma_perms(eps5)
    prod = _perm_product(*gammas[:4])
    i_g5 = _perm_product(gammas[4], turn=1 if eps5 == 1 else 0)
    # the gap prod - (-i gamma5) is prod + i gamma5
    return _check("gamma5_product", "g5 = i*g0*g1*g2*g3", prod == _perm_product(i_g5, turn=2),
                  lambda: [_gap((prod, i_g5))])


def majorana_imaginary_check(eps5: int) -> RelationCheck:
    """conj(g^mu) = -g^mu entrywise for mu in 0..3: every unit of g^0..g^3
    is +-i, that is, every p is odd."""
    gammas = _gamma_perms(eps5)[:4]
    return _check("majorana_imaginary", "conj(g_mu) = -g_mu for mu in 0..3",
                  all(p % 2 for g in gammas for _, p in g),
                  lambda: [_exact(g).conjugate() + _exact(g) for g in gammas])


def conjugation_closed(rows) -> bool:
    """Whether the span of ``rows``, rows of field scalars with
    ``conjugate``, is closed under entrywise conjugation.

    The reduced row echelon form (RREF) of a span is unique, and its
    entrywise conjugate is the RREF of the conjugate span; so the span is
    closed exactly when conjugation fixes every entry of its RREF.  The
    RREF comes from one ``echelon`` of a copy of ``rows``, which costs
    next to nothing when they are reduced already."""
    rows = [list(row) for row in rows]
    echelon(rows)
    return not any(x.conjugate() - x for row in rows for x in row if x)


def reality_class(basis) -> str:
    """'Majorana' if span(basis) is closed under componentwise conjugation
    (equivalently, admits an all-real basis), 'Dirac' otherwise, by exact
    Gaussian elimination over the coefficient field.

    Entries are exact numbers, or Python complex numbers with integer
    parts; a float raises TypeError.  Rank-deficient input is rejected
    because the classification is about the spanned subspace, so the basis
    must actually be one.
    """
    rows = [list(v) for v in basis]
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("basis must be a nonempty list of equal-length vectors")
    entries = ExactMatrix.from_complex_entries(rows).scalar_entries()
    if len(echelon(entries)) != len(rows):
        raise ValueError("basis is rank-deficient")
    return "Majorana" if conjugation_closed(entries) else "Dirac"
