"""Gamma matrices in the Majorana imaginary representation, spinor boosts,
and the Dirac vs Majorana reality classifier.

The five-dimensional Clifford relations {g^a, g^b} = 2 eta^ab with
eta = diag(1,-1,-1,-1,eps5) are realized on 4x4 matrices: gamma0..gamma3
have purely imaginary entries, gamma5 = i g0 g1 g2 g3, and the fifth
element is gamma5 itself (eps5 = +1) or i*gamma5 (eps5 = -1).

Clifford checks run in exact arithmetic; boosts use the matrix exponential
and carry a 1e-12 float tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import expm

from .lie_algebra import ETA4_DIAG
from .matrices import ExactMatrix
from .scalars import ExactScalar, ParamPoly, poly


class VerificationError(RuntimeError):
    """A float-tolerance identity failed to hold."""


_J = 1j

_GAMMA_ENTRIES = {
    # block forms over sigma1 = [[0,1],[1,0]], sigma2 = [[0,-i],[i,0]],
    # sigma3 = [[1,0],[0,-1]]; all four entries purely imaginary
    0: [[0, 0, 0, -_J], [0, 0, _J, 0], [0, -_J, 0, 0], [_J, 0, 0, 0]],
    1: [[0, _J, 0, 0], [_J, 0, 0, 0], [0, 0, 0, _J], [0, 0, _J, 0]],
    2: [[0, 0, 0, -_J], [0, 0, _J, 0], [0, _J, 0, 0], [-_J, 0, 0, 0]],
    3: [[_J, 0, 0, 0], [0, -_J, 0, 0], [0, 0, _J, 0], [0, 0, 0, -_J]],
}


def gamma(mu: int) -> ExactMatrix:
    """gamma^mu for mu in 0..3, exact entries."""
    return ExactMatrix.from_complex_entries(_GAMMA_ENTRIES[mu])


def gamma5() -> ExactMatrix:
    """i g0 g1 g2 g3, computed from the product."""
    out = gamma(0) @ gamma(1) @ gamma(2) @ gamma(3)
    return out.scale(ParamPoly.from_scalar(ExactScalar(Fraction(0), Fraction(1))))


@dataclass(frozen=True)
class GammaRep:
    """Five gamma matrices gamma[0..4] with the metric diag(1,-1,-1,-1,eps5)."""

    gamma: tuple
    eps5: int

    @property
    def metric5(self):
        return ETA4_DIAG + (self.eps5,)

    def eta(self, a: int, b: int) -> int:
        return self.metric5[a] if a == b else 0

    def numeric(self, a: int) -> np.ndarray:
        return self.gamma[a].to_complex_array()


def build_majorana_rep(eps5: int) -> GammaRep:
    if eps5 not in (1, -1):
        raise ValueError("eps5 must be +1 or -1")
    g5 = gamma5()
    if eps5 == 1:
        g4 = g5
    else:
        g4 = g5.scale(ParamPoly.from_scalar(ExactScalar(Fraction(0), Fraction(1))))
    return GammaRep(gamma=(gamma(0), gamma(1), gamma(2), gamma(3), g4), eps5=eps5)


@dataclass(frozen=True)
class SpinorMatrix:
    """4x4 matrix tagged exact or float; float mode carries tolerance 1e-12."""

    matrix: object
    mode: str
    tolerance: float | None = None

    def __post_init__(self):
        if self.mode == "exact":
            if not isinstance(self.matrix, ExactMatrix):
                raise ValueError("exact mode requires an ExactMatrix")
            if self.tolerance is not None:
                raise ValueError("exact mode carries no tolerance")
        elif self.mode == "float":
            if not isinstance(self.matrix, np.ndarray):
                raise ValueError("float mode requires an ndarray")
            object.__setattr__(self, "tolerance", self.tolerance or 1e-12)
        else:
            raise ValueError("mode must be 'exact' or 'float'")

    def as_array(self) -> np.ndarray:
        if self.mode == "exact":
            return self.matrix.to_complex_array()
        return self.matrix


@dataclass(frozen=True)
class RelationCheck:
    name: str
    relation: str
    ok: bool
    residual: float


def _pair_residual(rep: GammaRep, a: int, b: int) -> ExactMatrix:
    ga, gb = rep.gamma[a], rep.gamma[b]
    anti = ga @ gb + gb @ ga
    target = ExactMatrix.identity(4).scale(poly(2 * rep.eta(a, b)))
    return anti - target


def verify_clifford(rep: GammaRep) -> list[RelationCheck]:
    """The 15 unordered anticommutator pairs plus the 5 squares, exactly."""
    checks = []
    for a in range(5):
        for b in range(a, 5):
            diff = _pair_residual(rep, a, b)
            ok = diff.is_zero()
            res = 0.0 if ok else float(np.abs(diff.to_complex_array()).max())
            rhs = f"2*eta{a}{a}" if a == b else "0"
            checks.append(
                RelationCheck(
                    name=f"anticommutator_g{a}_g{b}",
                    relation=f"{{g{a},g{b}}} = {rhs}",
                    ok=ok,
                    residual=res,
                )
            )
    for a in range(5):
        sq = rep.gamma[a] @ rep.gamma[a]
        target = ExactMatrix.identity(4).scale(poly(rep.eta(a, a)))
        diff = sq - target
        ok = diff.is_zero()
        checks.append(
            RelationCheck(
                name=f"square_g{a}",
                relation=f"(g{a})^2 = eta{a}{a}",
                ok=ok,
                residual=0.0 if ok else float(np.abs(diff.to_complex_array()).max()),
            )
        )
    return checks


def gamma5_product_check(rep: GammaRep) -> RelationCheck:
    g5 = gamma5()
    prod = rep.gamma[0] @ rep.gamma[1] @ rep.gamma[2] @ rep.gamma[3]
    expect = g5.scale(ParamPoly.from_scalar(ExactScalar(Fraction(0), Fraction(-1))))
    diff = prod - expect
    ok = diff.is_zero()
    return RelationCheck(
        name="gamma5_product",
        relation="g5 = i*g0*g1*g2*g3",
        ok=ok,
        residual=0.0 if ok else float(np.abs(diff.to_complex_array()).max()),
    )


def majorana_imaginary_check(rep: GammaRep) -> RelationCheck:
    """conj(g^mu) = -g^mu entrywise for mu in 0..3."""
    worst = 0.0
    ok = True
    for mu in range(4):
        diff = rep.gamma[mu].conjugate() + rep.gamma[mu]
        if not diff.is_zero():
            ok = False
            worst = max(worst, float(np.abs(diff.to_complex_array()).max()))
    return RelationCheck(
        name="majorana_imaginary",
        relation="conj(g_mu) = -g_mu for mu in 0..3",
        ok=ok,
        residual=worst,
    )


_ETA4_DIAG = np.array(ETA4_DIAG, dtype=float)


def _check_omega(omega) -> np.ndarray:
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (4, 4):
        raise ValueError("omega must be a 4x4 array")
    if not np.allclose(omega, -omega.T, atol=1e-14):
        raise ValueError("omega must be antisymmetric")
    return omega


def spinor_generator(omega) -> np.ndarray:
    """(1/4) omega_ab g^a g^b over a,b in 0..3."""
    omega = _check_omega(omega)
    gs = [gamma(mu).to_complex_array() for mu in range(4)]
    G = np.zeros((4, 4), dtype=complex)
    for a in range(4):
        for b in range(4):
            if omega[a, b] != 0.0:
                G += 0.25 * omega[a, b] * gs[a] @ gs[b]
    return G


def vector_generator(omega) -> np.ndarray:
    """Mixed-index generator: omega^mu_nu = eta^{mu alpha} omega_{alpha nu}."""
    omega = _check_omega(omega)
    return _ETA4_DIAG[:, None] * omega


def boost_matrix(omega) -> SpinorMatrix:
    """Spinor transformation S = exp((1/4) omega_ab g^a g^b)."""
    return SpinorMatrix(matrix=expm(spinor_generator(omega)), mode="float")


def vector_boost(omega) -> np.ndarray:
    """Vector transformation Lambda^mu_nu paired with boost_matrix."""
    return expm(vector_generator(omega))


def pairing_residual(omega) -> float:
    """max_mu || S^-1 g^mu S - Lambda^mu_nu g^nu ||, float mode."""
    S = boost_matrix(omega).matrix
    Sinv = np.linalg.inv(S)
    lam = vector_boost(omega)
    gs = [gamma(mu).to_complex_array() for mu in range(4)]
    worst = 0.0
    for mu in range(4):
        lhs = Sinv @ gs[mu] @ S
        rhs = sum(lam[mu, nu] * gs[nu] for nu in range(4))
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


def _is_float_entry(value) -> bool:
    if isinstance(value, complex):
        return True
    if isinstance(value, float):
        return True
    if isinstance(value, np.generic):
        return np.iscomplexobj(value) or isinstance(value, np.floating)
    return False


def reality_class(basis, mode: str | None = None, tol: float = 1e-10) -> str:
    """'Majorana' if span(basis) is closed under componentwise conjugation
    (equivalently, admits an all-real basis), 'Dirac' otherwise.

    Exact mode runs Gaussian elimination over the coefficient field; float
    mode compares numerical ranks via singular values.  Rank-deficient
    input is rejected because the classification is about the spanned
    subspace, so the basis must actually be one.
    """
    rows = [list(v) for v in basis]
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("basis must be a nonempty list of equal-length vectors")
    if mode is None:
        flat = [x for r in rows for x in r]
        mode = "float" if any(_is_float_entry(x) for x in flat) else "exact"
    if mode == "exact":
        B = ExactMatrix.from_complex_entries(rows)
        k = B.rank()
        if k != len(rows):
            raise ValueError("basis is rank-deficient")
        stacked = ExactMatrix(B.rows + B.conjugate().rows)
        return "Majorana" if stacked.rank() == k else "Dirac"
    if mode != "float":
        raise ValueError("mode must be 'exact' or 'float'")
    B = np.asarray(rows, dtype=complex)
    k = np.linalg.matrix_rank(B, tol=tol)
    if k != len(rows):
        raise ValueError("basis is rank-deficient")
    stacked = np.vstack([B, B.conj()])
    return "Majorana" if np.linalg.matrix_rank(stacked, tol=tol) == k else "Dirac"
