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
relations are decided on it by index arithmetic, a failing relation's
residual is read off it the same way, and so is the gamma half of the
Lorentz generator proof (``spinor_generator_identities``, which
``modes.lorentz_covariance`` calls).  Every other module reads the gammas
through the one dense builder, ``gamma_sum``, as the exact matrix of
sum_a c_a gamma^a.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations_with_replacement
from typing import NamedTuple

from .lie_algebra import ETA4_DIAG
from .matrices import ExactMatrix, echelon
from .scalars import I, ONE, P_ZERO, _poly_sum_of_products, poly


class VerificationError(RuntimeError):
    """An exact identity fails where it must hold: a reference nullspace of
    the wrong dimension, or, in the tests' Cayley boost oracle, a singular
    boost or a failed boost identity."""


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
        out = [(y[c][0], (p + y[c][1]) % 4) for c, p in out]
    return tuple([(c, (p + turn) % 4) for c, p in out] if turn else out)


@cache
def _gamma_perms(eps5: int) -> tuple:
    """g^0..g^4 of the eps5 signature as phased permutations: gamma5 =
    i g0 g1 g2 g3 is their phased product, and g^4 is gamma5 (eps5 = +1)
    or i gamma5 (eps5 = -1)."""
    if eps5 not in (1, -1):
        raise ValueError("eps5 must be +1 or -1")
    g5 = _perm_product(*_GAMMA_PERMS, turn=1)
    return (*_GAMMA_PERMS, g5 if eps5 == 1 else _perm_product(g5, turn=1))


def gamma_sum(eps5: int, coeffs) -> ExactMatrix:
    """sum_a coeffs[a] gamma^a over the Majorana rep of the eps5 signature.

    ``coeffs`` lists up to five ParamPoly (or exact numbers) for gamma^0,
    gamma^1, ...; a zero or missing coefficient adds nothing, and a sixth
    raises ValueError.  Each gamma has one nonzero entry per row, so every
    output entry is one exact sum of products per monomial
    (``_poly_sum_of_products``), reduced once.
    """
    coeffs = tuple(coeffs)
    if len(coeffs) > 5:
        raise ValueError(f"gamma_sum takes at most five coefficients, not {len(coeffs)}")
    pairs = {}
    for perm, coeff in zip(_gamma_perms(eps5), map(poly, coeffs)):
        for r, (c, p) in enumerate(perm if coeff else ()):
            pairs.setdefault((r, c), []).append((_POLY_POWERS[p], coeff))
    return ExactMatrix([[_poly_sum_of_products(pairs[r, c]) if (r, c) in pairs else P_ZERO
                         for c in range(4)] for r in range(4)])


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


def _gap_size(terms, target: int = 0) -> float:
    """The largest entry modulus of the sum of the phased permutations
    ``terms`` minus target I, added up entry by entry."""
    gap = {(r, r): complex(-target) for r in range(4)}
    for perm in terms:
        for r, (c, p) in enumerate(perm):
            gap[r, c] = gap.get((r, c), 0) + 1j ** p
    return max(map(abs, gap.values()))


def _check(name: str, relation: str, ok: bool, gaps) -> RelationCheck:
    """One relation's row.  ``gaps()`` gives the differences of its two
    sides, each as the arguments of ``_gap_size``, and is called only when
    the relation fails: the residual is their largest entry modulus."""
    residual = 0.0 if ok else max(_gap_size(*gap) for gap in gaps())
    return RelationCheck(name, relation, ok, residual)


def clifford_relations(eps5: int):
    """{g^a, g^b} = 2 eta^ab over the 15 unordered pairs a <= b, each
    decided on the gammas' store when it is drawn from this generator: a
    pair a = b is the square g^a g^a = eta_aa I."""
    gammas = _gamma_perms(eps5)
    metric = ETA4_DIAG + (eps5,)
    for a, b in combinations_with_replacement(range(5), 2):
        x, y = gammas[a], gammas[b]
        eta = metric[a] if a == b else 0
        yield _check(
            f"anticommutator_g{a}_g{b}",
            f"{{g{a},g{b}}} = {f'2*eta{a}{a}' if a == b else '0'}",
            _squares_to(x, eta) if a == b else _anticommute(x, y),
            lambda: [((_perm_product(x, y), _perm_product(y, x)), 2 * eta)],
        )


def verify_clifford(eps5: int) -> list[RelationCheck]:
    """{g^a, g^b} = 2 eta^ab over the 15 unordered pairs a <= b, exactly."""
    return list(clifford_relations(eps5))


def spinor_generator_identities(eps5: int, mu: int, nu: int, vector) -> tuple:
    """S_munu = (1/2) g^mu g^nu, that is g^mu g^nu = -g^nu g^mu, then
    [S_munu, g^s] = g^r (L_munu)^r_s for s < 4 and [S_munu, g^4] = 0, by
    index arithmetic; ``vector`` is L_munu as rows rho of columns sigma of
    ParamPoly.  How many of the five commutators were checked, stopping at
    the first failure, and that failure or None."""
    gammas = _gamma_perms(eps5)
    twice = _perm_product(gammas[mu], gammas[nu])  # 2 S_munu
    if twice != _perm_product(gammas[nu], gammas[mu], turn=2):
        return 0, f"g^{mu} g^{nu} != -g^{nu} g^{mu}"
    for sigma, g in enumerate(gammas):
        # [S_munu, g^s] = (a - b)/2 is 0 exactly when a = b; else it is
        # the phased permutation a = -b, which equals the sum
        # g^r (L_munu)^r_s when that has one term t g^r, t = i^p, and
        # a = t g^r, and for a real L only then
        column = [(rho, row[sigma]) for rho, row in enumerate(vector)
                  if sigma < 4 and row[sigma]]
        # b is g^s 2 S_munu, negated when the column is not empty
        a, b = _perm_product(twice, g), _perm_product(g, twice, turn=2 * bool(column))
        ok = a == b
        if column:
            (rho, t), *more = column
            ok = ok and not more and t in _POLY_POWERS and a == _perm_product(
                gammas[rho], turn=_POLY_POWERS.index(t))
        if not ok:
            rhs = f"g^r (L_{mu}{nu})^r_{sigma}" if sigma < 4 else "0"
            return sigma + 1, f"[S_{mu}{nu}, g^{sigma}] != {rhs}"
    return len(gammas), None


def gamma5_product_check(eps5: int) -> RelationCheck:
    """g0 g1 g2 g3 = -i gamma5, with gamma5 read from g^4: g^4 itself for
    eps5 = +1 and -i g^4 for eps5 = -1."""
    gammas = _gamma_perms(eps5)
    prod = _perm_product(*gammas[:4])
    i_g5 = _perm_product(gammas[4], turn=1 if eps5 == 1 else 0)
    # the gap prod - (-i gamma5) is prod + i gamma5
    return _check("gamma5_product", "g5 = i*g0*g1*g2*g3", prod == _perm_product(i_g5, turn=2),
                  lambda: [((prod, i_g5),)])


def majorana_imaginary_check(eps5: int) -> RelationCheck:
    """conj(g^mu) = -g^mu entrywise for mu in 0..3: every unit of g^0..g^3
    is +-i, that is, every p is odd."""
    gammas = _gamma_perms(eps5)[:4]
    return _check("majorana_imaginary", "conj(g_mu) = -g_mu for mu in 0..3",
                  all(p % 2 for g in gammas for _, p in g),
                  lambda: [((g, tuple((c, -p % 4) for c, p in g)),) for g in gammas])


def conjugation_closed(rows) -> bool:
    """Whether the span of ``rows``, rows of ExactScalar, is closed under
    entrywise conjugation.

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
