"""Gamma matrices in the Majorana imaginary representation, Clifford
relation checks, and the Dirac vs Majorana reality classifier.

The five-dimensional Clifford relations {g^a, g^b} = 2 eta^ab with
eta = diag(1,-1,-1,-1,eps5) are realized on 4x4 matrices: gamma0..gamma3
have purely imaginary entries, gamma5 = i g0 g1 g2 g3, and the fifth
element is gamma5 itself (eps5 = +1) or i*gamma5 (eps5 = -1).

Everything here is exact.  Each gamma has one unit entry per row, so the
gammas are stored once, as phased permutations: per row, the column of
its nonzero entry and the power p of i there (``_gamma_perms``, multiplied
by ``_perm_product``).  Everything else reads that store: the exact
matrices the public builders copy, every sum_a c_a gamma^a
(``gamma_sum`` for ParamPoly coefficients, ``gamma_rows`` for field
scalars), the generator proof of ``ncdirac.lorentz`` and the integer
tables of ``ncdirac.cayley``.
"""

from __future__ import annotations

from functools import cache
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
_POWERS = (ONE, I, -ONE, -I)  # i^p
_POLY_POWERS = tuple(map(poly, _POWERS))


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


@cache
def _majorana_table(eps5: int) -> tuple:
    """The five exact gammas of the eps5 signature, shared by the builders
    below and never handed out."""
    return tuple(map(_exact, _gamma_perms(eps5)))


def gamma(mu: int) -> ExactMatrix:
    """gamma^mu for mu in 0..3, exact entries."""
    if mu not in range(4):
        raise KeyError(mu)
    return _majorana_table(1)[mu].copy()


def gamma5() -> ExactMatrix:
    """i g0 g1 g2 g3, computed from the product."""
    return _majorana_table(1)[4].copy()


class GammaRep(NamedTuple):
    """Five gamma matrices gamma[0..4] with the metric diag(1,-1,-1,-1,eps5)."""

    gamma: tuple
    eps5: int

    @property
    def metric5(self):
        return ETA4_DIAG + (self.eps5,)

    def eta(self, a: int, b: int) -> int:
        return self.metric5[a] if a == b else 0


def build_majorana_rep(eps5: int) -> GammaRep:
    """The Majorana rep of the eps5 signature; each call returns fresh
    matrices, so editing them leaves later calls untouched."""
    return GammaRep(gamma=tuple(g.copy() for g in _majorana_table(eps5)), eps5=eps5)


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


def gamma_rows(eps5: int, coeffs, zero) -> list:
    """sum_a coeffs[a] gamma^a as a 4x4 list of rows of field scalars.

    ``zero`` is the zero of the coefficients' field (ExactScalar or
    QuadraticScalar); each coefficient multiplies the gammas' ExactScalar
    entries from the left.  For ParamPoly coefficients use ``gamma_sum``.
    """
    rows = [[zero] * 4 for _ in range(4)]
    for perm, coeff in zip(_gamma_perms(eps5), coeffs):
        if coeff:
            for r, (c, p) in enumerate(perm):
                rows[r][c] = rows[r][c] + coeff * _POWERS[p]
    return rows


class RelationCheck(NamedTuple):
    name: str
    relation: str
    ok: bool
    residual: float


def _max_abs(diff: ExactMatrix) -> float:
    """The largest entry modulus of a constant matrix, as a float."""
    return max(abs(complex(x)) for row in diff.scalar_entries() for x in row)


def _pair_residual(rep: GammaRep, a: int, b: int) -> ExactMatrix:
    ga, gb = rep.gamma[a], rep.gamma[b]
    anti = ga @ gb + gb @ ga
    target = ExactMatrix.identity(4).scale(poly(2 * rep.eta(a, b)))
    return anti - target


def clifford_relations(rep: GammaRep):
    """The 15 unordered anticommutator pairs, then the 5 squares, each
    checked exactly when it is drawn from this generator."""
    for a in range(5):
        for b in range(a, 5):
            diff = _pair_residual(rep, a, b)
            ok = diff.is_zero()
            rhs = f"2*eta{a}{a}" if a == b else "0"
            yield RelationCheck(
                name=f"anticommutator_g{a}_g{b}",
                relation=f"{{g{a},g{b}}} = {rhs}",
                ok=ok,
                residual=0.0 if ok else _max_abs(diff),
            )
    for a in range(5):
        sq = rep.gamma[a] @ rep.gamma[a]
        target = ExactMatrix.identity(4).scale(poly(rep.eta(a, a)))
        diff = sq - target
        ok = diff.is_zero()
        yield RelationCheck(
            name=f"square_g{a}",
            relation=f"(g{a})^2 = eta{a}{a}",
            ok=ok,
            residual=0.0 if ok else _max_abs(diff),
        )


def verify_clifford(rep: GammaRep) -> list[RelationCheck]:
    """The 15 unordered anticommutator pairs plus the 5 squares, exactly."""
    return list(clifford_relations(rep))


def gamma5_product_check(rep: GammaRep) -> RelationCheck:
    prod = rep.gamma[0] @ rep.gamma[1] @ rep.gamma[2] @ rep.gamma[3]
    expect = _exact(_perm_product(_gamma_perms(1)[4], turn=3))  # -i gamma5
    diff = prod - expect
    ok = diff.is_zero()
    return RelationCheck(
        name="gamma5_product",
        relation="g5 = i*g0*g1*g2*g3",
        ok=ok,
        residual=0.0 if ok else _max_abs(diff),
    )


def majorana_imaginary_check(rep: GammaRep) -> RelationCheck:
    """conj(g^mu) = -g^mu entrywise for mu in 0..3."""
    worst = 0.0
    ok = True
    for mu in range(4):
        diff = rep.gamma[mu].conjugate() + rep.gamma[mu]
        if not diff.is_zero():
            ok = False
            worst = max(worst, _max_abs(diff))
    return RelationCheck(
        name="majorana_imaginary",
        relation="conj(g_mu) = -g_mu for mu in 0..3",
        ok=ok,
        residual=worst,
    )


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
