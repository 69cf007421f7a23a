"""Gamma matrices in the Majorana imaginary representation, spinor boosts,
and the Dirac vs Majorana reality classifier.

The five-dimensional Clifford relations {g^a, g^b} = 2 eta^ab with
eta = diag(1,-1,-1,-1,eps5) are realized on 4x4 matrices: gamma0..gamma3
have purely imaginary entries, gamma5 = i g0 g1 g2 g3, and the fifth
element is gamma5 itself (eps5 = +1) or i*gamma5 (eps5 = -1).

Clifford checks run in exact arithmetic.  The exact gammas are built once
per eps5 on first use, and the public builders hand out copies; every exact
sum_a c_a gamma^a is written by ``gamma_sum`` (ParamPoly coefficients) or
``gamma_rows`` (field scalars); the exact Cayley boosts are in
``ncdirac.cayley``.  Float code reads the gammas
from one read-only complex128 stack per eps5 (``float_gammas``), built once
from the exact rep.  Float boosts carry a 1e-12 tolerance and take one
generator omega of shape (4, 4) or a stack of N of them, (N, 4, 4); a stack
gives bit for bit the matrices its slices give one by one.  The matrix
exponential is scaling and squaring around a degree-18 Taylor polynomial
(Higham, SIAM J. Matrix Anal. Appl. 26 (2005) 1179): each generator is
halved until its 1-norm is below 1, where the truncation error is below
1e-17, and the result is squared back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from ._numpy import np
from .lie_algebra import ETA4_DIAG
from .matrices import ExactMatrix
from .scalars import P_I, _packed_poly, _packed_terms, _sum_of_products, poly


class VerificationError(RuntimeError):
    """A float-mode result failed its tolerance or finiteness check, or an
    exact Cayley boost is singular or fails one of its identities.

    ``index`` is the failing slice or draw of a stacked input, None
    otherwise."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


_J = 1j

_GAMMA_ENTRIES = {
    # block forms over sigma1 = [[0,1],[1,0]], sigma2 = [[0,-i],[i,0]],
    # sigma3 = [[1,0],[0,-1]]; all four entries purely imaginary
    0: [[0, 0, 0, -_J], [0, 0, _J, 0], [0, -_J, 0, 0], [_J, 0, 0, 0]],
    1: [[0, _J, 0, 0], [_J, 0, 0, 0], [0, 0, 0, _J], [0, 0, _J, 0]],
    2: [[0, 0, 0, -_J], [0, 0, _J, 0], [0, _J, 0, 0], [-_J, 0, 0, 0]],
    3: [[_J, 0, 0, 0], [0, -_J, 0, 0], [0, 0, _J, 0], [0, 0, 0, -_J]],
}


@cache
def _exact_gammas() -> tuple:
    """g0..g3 and gamma5 = i g0 g1 g2 g3, built once and never handed out:
    the public builders return copies."""
    g = tuple(ExactMatrix.from_complex_entries(_GAMMA_ENTRIES[mu]) for mu in range(4))
    return g + ((g[0] @ g[1] @ g[2] @ g[3]).scale(P_I),)


def gamma(mu: int) -> ExactMatrix:
    """gamma^mu for mu in 0..3, exact entries."""
    if mu not in _GAMMA_ENTRIES:
        raise KeyError(mu)
    return _exact_gammas()[mu].copy()


def gamma5() -> ExactMatrix:
    """i g0 g1 g2 g3, computed from the product."""
    return _exact_gammas()[4].copy()


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


@cache
def _majorana_table(eps5: int) -> tuple:
    """The five exact gammas of the eps5 signature, shared by the builders
    below and never handed out."""
    if eps5 not in (1, -1):
        raise ValueError("eps5 must be +1 or -1")
    g0, g1, g2, g3, g5 = _exact_gammas()
    return (g0, g1, g2, g3, g5 if eps5 == 1 else g5.scale(P_I))


def build_majorana_rep(eps5: int) -> GammaRep:
    """The Majorana rep of the eps5 signature; each call returns fresh
    matrices, so editing them leaves later calls untouched."""
    return GammaRep(gamma=tuple(g.copy() for g in _majorana_table(eps5)), eps5=eps5)


@cache
def _gamma_units(eps5: int) -> tuple:
    """Per gamma^a, its nonzero entries as (row, column, scalar)."""
    return tuple(
        tuple((r, c, x.to_scalar()) for r, row in enumerate(g.rows)
              for c, x in enumerate(row) if not x.is_zero())
        for g in _majorana_table(eps5)
    )


def gamma_sum(eps5: int, coeffs) -> ExactMatrix:
    """sum_a coeffs[a] gamma^a over the Majorana rep of the eps5 signature.

    ``coeffs`` lists up to five ParamPoly (or exact numbers) for gamma^0,
    gamma^1, ...; a zero coefficient adds nothing.  Each gamma has one
    nonzero entry per row, so every output entry is one exact sum of
    products per monomial, reduced once, with no ParamPoly product.
    """
    sums = {}
    for units, coeff in zip(_gamma_units(eps5), coeffs):
        terms = _packed_terms(poly(coeff))
        for r, c, unit in units:
            for mono, x in terms:
                pairs = sums.get((r, c, mono))
                if pairs is None:
                    sums[(r, c, mono)] = [(unit, x)]
                else:
                    pairs.append((unit, x))
    entries = [[{} for _ in range(4)] for _ in range(4)]
    for (r, c, mono), pairs in sums.items():
        total = _sum_of_products(pairs)
        if total is not None:
            entries[r][c][mono] = total
    return ExactMatrix([[_packed_poly(t) for t in row] for row in entries])


def gamma_rows(eps5: int, coeffs, zero) -> list:
    """sum_a coeffs[a] gamma^a as a 4x4 list of rows of field scalars.

    ``zero`` is the zero of the coefficients' field (ExactScalar or
    QuadraticScalar); each coefficient multiplies the gammas' ExactScalar
    entries from the left.  For ParamPoly coefficients use ``gamma_sum``.
    """
    rows = [[zero] * 4 for _ in range(4)]
    for units, coeff in zip(_gamma_units(eps5), coeffs):
        if coeff:
            for r, c, unit in units:
                rows[r][c] = rows[r][c] + coeff * unit
    return rows


@cache
def float_gammas(eps5: int) -> np.ndarray:
    """Read-only complex128 stack gamma[0..4] of build_majorana_rep(eps5)."""
    stack = np.stack([g.to_complex_array() for g in _majorana_table(eps5)])
    stack.flags.writeable = False
    return stack


@dataclass(frozen=True)
class SpinorMatrix:
    """4x4 matrix tagged exact or float; float mode carries tolerance 1e-12
    and may hold a stack of shape (N, 4, 4)."""

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
    prod = rep.gamma[0] @ rep.gamma[1] @ rep.gamma[2] @ rep.gamma[3]
    expect = _exact_gammas()[4].scale(-P_I)
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


def _stack_where(array: np.ndarray, index) -> str:
    """' (slice i)' for a stack of matrices, '' for a single one."""
    return f" (slice {index})" if array.ndim == 3 else ""


def _check_omega(omega) -> np.ndarray:
    """A real, finite, antisymmetric (4, 4) generator or (N, 4, 4) stack."""
    omega = np.asarray(omega)
    if np.iscomplexobj(omega):
        raise ValueError("omega must be real")
    omega = omega.astype(float)
    if omega.ndim not in (2, 3) or omega.shape[-2:] != (4, 4):
        raise ValueError("omega must be a 4x4 array or a stack of them")
    if not np.isfinite(omega).all():
        raise ValueError("omega must be finite")
    # relative to the entries, with no rtol slack: a 1e-5 asymmetry is a
    # metric defect of the same size in the boost, not roundoff
    defect = np.abs(omega + np.swapaxes(omega, -1, -2)).max(axis=(-2, -1))
    scale = np.maximum(1.0, np.abs(omega).max(axis=(-2, -1)))
    bad = np.flatnonzero(defect > 1e-14 * scale)
    if bad.size:
        raise ValueError(f"omega must be antisymmetric{_stack_where(omega, bad[0])}")
    return omega


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of a square matrix or of each matrix in a stack, by scaling and
    squaring a degree-18 Taylor polynomial.

    Each matrix keeps its own scaling exponent, and only the matrices whose
    squarings are not used up are squared, so a stack equals its slices
    exponentiated one by one.  Raises VerificationError, with ``index`` set
    for a stack, when a result overflows the float range."""
    stack = a.reshape((-1,) + a.shape[-2:])
    # 2^-s a has 1-norm below 1, where the dropped Taylor tail is below 1e-17
    s = np.maximum(0, np.frexp(np.abs(stack).sum(axis=-2).max(axis=-1))[1])
    stack = stack * np.ldexp(1.0, -s)[:, None, None]
    eye = out = np.eye(a.shape[-1], dtype=a.dtype)
    for n in range(18, 0, -1):  # Horner form
        out = eye + stack @ out / n
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(s.max(initial=0)):
            live = s > step
            out[live] = out[live] @ out[live]
    bad = np.flatnonzero(~np.isfinite(out).all(axis=(-2, -1)))
    if bad.size:
        i = int(bad[0])
        raise VerificationError(
            f"matrix exponential overflows after {s[i]} squarings",
            index=i if a.ndim == 3 else None,
        )
    return out.reshape(a.shape)


def spinor_generator(omega) -> np.ndarray:
    """(1/4) omega_ab g^a g^b over a,b in 0..3, for one omega or a stack."""
    omega = _check_omega(omega)
    gs = float_gammas(1)[:4]  # g^0..g^3 do not depend on eps5
    # each g^a g^b has one entry +-1 or +-i per row, so c * (g^a g^b) is
    # exact and the sum below rounds as ((c g^a) g^b) summed over a, b does
    products = gs[:, None] @ gs[None, :]
    G = np.zeros(omega.shape, dtype=complex)
    for a in range(4):
        for b in range(4):
            G += (0.25 * omega[..., a, b])[..., None, None] * products[a, b]
    return G


def vector_generator(omega) -> np.ndarray:
    """Mixed-index generator: omega^mu_nu = eta^{mu alpha} omega_{alpha nu},
    for one omega or a stack."""
    omega = _check_omega(omega)
    return np.array(ETA4_DIAG, dtype=float)[:, None] * omega


def boost_matrix(omega) -> SpinorMatrix:
    """Spinor transformation S = exp((1/4) omega_ab g^a g^b); a stack of
    generators gives a float SpinorMatrix holding the (N, 4, 4) stack."""
    return SpinorMatrix(matrix=_expm(spinor_generator(omega)), mode="float")


def vector_boost(omega) -> np.ndarray:
    """Vector transformation Lambda^mu_nu paired with boost_matrix, for one
    omega or a stack."""
    return _expm(vector_generator(omega))


def pairing_residual(omega) -> float:
    """max_mu || S^-1 g^mu S - Lambda^mu_nu g^nu ||, float mode."""
    S = boost_matrix(omega).matrix
    Sinv = np.linalg.inv(S)
    lam = vector_boost(omega)
    gs = float_gammas(1)
    worst = 0.0
    for mu in range(4):
        lhs = Sinv @ gs[mu] @ S
        rhs = sum(lam[mu, nu] * gs[nu] for nu in range(4))
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


def _is_float_entry(value) -> bool:
    if isinstance(value, (complex, float)):
        return True
    # numpy is asked only about values of its own types, so an exact basis
    # does not load it
    if type(value).__module__ == "numpy" and isinstance(value, np.generic):
        return np.iscomplexobj(value) or isinstance(value, np.floating)
    return False


def reality_class(basis, mode: str | None = None, tol: float = 1e-10) -> str:
    """'Majorana' if span(basis) is closed under componentwise conjugation
    (equivalently, admits an all-real basis), 'Dirac' otherwise.

    Exact mode runs Gaussian elimination over the coefficient field; float
    mode compares numerical ranks of the normalised vectors via singular
    values, so ``tol`` does not depend on the basis's scale.  Rank-deficient
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
    return _float_reality_classes(np.asarray(rows, dtype=complex), tol)[0]


def _float_reality_classes(bases: np.ndarray, tol: float = 1e-10) -> list[str]:
    """reality_class in float mode for one basis of shape (m, n), or for each
    basis in a stack of shape (N, m, n), by stacked singular values of the
    normalised vectors (the rank tolerance is absolute, and a basis of
    large norm carries roundoff above it).

    Raises ValueError, naming the first such basis of a stack, when a basis
    is rank-deficient."""
    norms = np.linalg.norm(bases, axis=-1, keepdims=True)
    bases = bases / np.where(norms == 0, 1.0, norms)  # a zero vector stays zero
    m = bases.shape[-2]
    short = np.flatnonzero(np.linalg.matrix_rank(bases, tol=tol) != m)
    if short.size:
        raise ValueError(f"basis is rank-deficient{_stack_where(bases, short[0])}")
    closed = np.concatenate([bases, bases.conj()], axis=-2)
    ranks = np.atleast_1d(np.linalg.matrix_rank(closed, tol=tol))
    return ["Majorana" if r == m else "Dirac" for r in ranks]
