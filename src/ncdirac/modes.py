"""Momentum-space extended Dirac operator, its two dispersion branches,
reference-frame spinor solutions, and boost covariance.

The operator is D(k) = g^mu k_mu - eps5 * g^4 * (l/2) k^2 in the Majorana
representation, i.e. g.k - g5 (l/2) k^2 for eps5 = +1 and g.k + i g5 (l/2)
k^2 for eps5 = -1.  Squaring gives the dispersion polynomial
k^2 + eps5 (l^2/4)(k^2)^2, so the branches are k^2 = 0 and k^2 = -eps5 4/l^2.

Momenta are stored upper-index and lowered with diag(1,-1,-1,-1) inside
dirac_matrix.  Exact arithmetic covers reference frames and nullspaces;
boosts run in float mode with tolerance 1e-10.  ``boost_solutions`` moves
one solution by a stack of N generators in one array pass (stacked
exponentials, Dirac matrices and ranks); ``boost_solution`` is its one-draw
case.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from ._numpy import np
from .clifford import (
    SpinorMatrix,
    VerificationError,
    _float_reality_classes,
    boost_matrix,
    float_gammas,
    gamma_sum,
    reality_class,
    vector_boost,
)
from .lie_algebra import ETA4_DIAG
from .matrices import ExactMatrix
from .scalars import (ExactScalar, ParamPoly, as_fraction, is_exact_number,
                      poly, real_value, sym)

BRANCHES = ("massless", "heavy")


@dataclass(frozen=True)
class ModeProblem:
    """eps5 sign, deformation length l > 0, and a real four-vector k
    (upper-index components k0..k3)."""

    eps5: int
    ell: object
    k: tuple

    def __post_init__(self):
        if self.eps5 not in (1, -1):
            raise ValueError("eps5 must be +1 or -1")
        if not real_value(self.ell) > 0:
            raise ValueError("ell must be positive")
        if len(self.k) != 4:
            raise ValueError("k must have four components")
        object.__setattr__(self, "k", tuple(self.k))

    @property
    def exact(self) -> bool:
        return is_exact_number(self.ell) and all(is_exact_number(c) for c in self.k)

    def k_squared(self):
        if self.exact:
            kf = [as_fraction(c) for c in self.k]
            return kf[0] ** 2 - kf[1] ** 2 - kf[2] ** 2 - kf[3] ** 2
        k = [float(c) for c in self.k]
        # products, not **: a float power raises OverflowError, a product is inf
        return k[0] * k[0] - k[1] * k[1] - k[2] * k[2] - k[3] * k[3]


def dirac_matrix(p: ModeProblem) -> SpinorMatrix:
    """g^mu k_mu - eps5 g^4 (l/2) k^2; exact when all inputs are rational."""
    if p.exact:
        kf = [as_fraction(c) for c in p.k]
        coeffs = [kf[mu] * ETA4_DIAG[mu] for mu in range(4)]
        coeffs.append(Fraction(-p.eps5) * as_fraction(p.ell) / 2 * p.k_squared())
        out = gamma_sum(p.eps5, coeffs)
        return SpinorMatrix(matrix=out, mode="exact")
    out = _float_dirac(p.eps5, float(p.ell), np.array([float(c) for c in p.k]))
    return SpinorMatrix(matrix=out, mode="float")


def _float_dirac(eps5: int, ell: float, k: np.ndarray) -> np.ndarray:
    """The float operator at momenta k of shape (..., 4): shape (..., 4, 4)."""
    gs = float_gammas(eps5)
    with np.errstate(over="ignore", invalid="ignore"):
        # products, not **, as ModeProblem.k_squared; a huge k gives inf/nan
        ksq = (k[..., 0] * k[..., 0] - k[..., 1] * k[..., 1]
               - k[..., 2] * k[..., 2] - k[..., 3] * k[..., 3])
        out = np.zeros(k.shape[:-1] + (4, 4), dtype=complex)
        for mu in range(4):
            out += gs[mu] * (k[..., mu] * ETA4_DIAG[mu])[..., None, None]
        out += gs[4] * (-eps5 * ell / 2 * ksq)[..., None, None]
    return out


def dirac_matrix_symbolic(eps5: int) -> ExactMatrix:
    """The operator with symbols k0..k3 and l, for identity checks."""
    ksq = sym("k0") ** 2 - sym("k1") ** 2 - sym("k2") ** 2 - sym("k3") ** 2
    half = ParamPoly.from_scalar(ExactScalar(Fraction(1, 2)))
    coeffs = [sym(f"k{mu}") * poly(ETA4_DIAG[mu]) for mu in range(4)]
    return gamma_sum(eps5, coeffs + [ksq * sym("l") * half * poly(-eps5)])


def squared_identity_residual(eps5: int) -> ExactMatrix:
    """D(k)^2 - (k^2 + eps5 (l^2/4)(k^2)^2) * Id with symbolic k and l."""
    D = dirac_matrix_symbolic(eps5)
    ksq = sym("k0") ** 2 - sym("k1") ** 2 - sym("k2") ** 2 - sym("k3") ** 2
    quarter = ParamPoly.from_scalar(ExactScalar(Fraction(1, 4)))
    scalar = ksq + ksq * ksq * sym("l") ** 2 * quarter * poly(eps5)
    return D @ D - ExactMatrix.identity(4).scale(scalar)


def dispersion_roots(ell, eps5: int) -> set:
    """Exact root set of the dispersion polynomial in k^2:
    {0, 4/l^2} for eps5 = -1, {0, -4/l^2} for eps5 = +1."""
    if eps5 not in (1, -1):
        raise ValueError("eps5 must be +1 or -1")
    if is_exact_number(ell):
        ellf = as_fraction(ell)
        if ellf <= 0:
            raise ValueError("ell must be positive")
        return {Fraction(0), Fraction(-4 * eps5) / ellf ** 2}
    ellf = float(ell)
    if ellf <= 0:
        raise ValueError("ell must be positive")
    return {0.0, -4.0 * eps5 / ellf ** 2}


@dataclass(frozen=True)
class SpinorSolution:
    """Nullspace data of the operator at a fixed momentum."""

    k: tuple
    basis: tuple
    branch: str
    k2: object
    spinor_class: str
    eps5: int
    ell: object
    mode: str


def _kernel_exact(matrix: ExactMatrix):
    return [tuple(entry for entry in vec) for vec in matrix.kernel()]


def reference_solutions(ell, eps5: int, branch: str, energy_sign: int = 1,
                        kappa=1) -> SpinorSolution:
    """Reference-frame solutions with exact nullspaces.

    Heavy branch: rest frame k = (2/l, 0, 0, 0) for eps5 = -1 (timelike
    branch), z-frame k = (0, 0, 0, 2/l) for eps5 = +1 (spacelike branch).
    Massless branch: k = (kappa, 0, 0, kappa).  The nullspace must come out
    two-dimensional; anything else signals a convention error.
    """
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}")
    if energy_sign not in (1, -1):
        raise ValueError("energy_sign must be +1 or -1")
    ellf = as_fraction(ell)
    if ellf <= 0:
        raise ValueError("ell must be positive")
    if branch == "heavy":
        edge = Fraction(2 * energy_sign) / ellf
        k = (edge, 0, 0, 0) if eps5 == -1 else (0, 0, 0, edge)
    else:
        kap = as_fraction(kappa)
        if kap <= 0:
            raise ValueError("kappa must be positive")
        k = (kap, 0, 0, kap)
    problem = ModeProblem(eps5=eps5, ell=ellf, k=k)
    op = dirac_matrix(problem)
    basis = _kernel_exact(op.matrix)
    if len(basis) != 2:
        raise VerificationError(
            f"nullspace dimension {len(basis)} != 2 at k={k} (eps5={eps5})"
        )
    cls = reality_class(basis, mode="exact")
    return SpinorSolution(
        k=k,
        basis=tuple(basis),
        branch=branch,
        k2=problem.k_squared(),
        spinor_class=cls,
        eps5=eps5,
        ell=ellf,
        mode="exact",
    )


def residual(k, u, ell, eps5: int) -> float:
    """||D(k) u|| / ||u||; exactly 0.0 when an exact input annihilates."""
    u = list(u)
    problem = ModeProblem(eps5=eps5, ell=ell, k=tuple(k))
    if problem.exact and all(is_exact_number(c) or isinstance(c, complex) for c in u):
        op = dirac_matrix(problem).matrix
        uvec = ExactMatrix.from_complex_entries([[c] for c in u])
        if uvec.is_zero():
            raise ValueError("zero vector has no residual")
        image = op @ uvec
        if image.is_zero():
            return 0.0
        img = image.to_complex_array().ravel()
        ufl = uvec.to_complex_array().ravel()
        return float(np.linalg.norm(img) / np.linalg.norm(ufl))
    D = dirac_matrix(
        ModeProblem(eps5=eps5, ell=float(ell), k=tuple(float(c) for c in k))
    ).matrix
    uarr = np.asarray(u, dtype=complex)
    norm = np.linalg.norm(uarr)
    if norm == 0.0:
        raise ValueError("zero vector has no residual")
    return float(np.linalg.norm(D @ uarr) / norm)


BOOST_TOL = 1e-10


@dataclass(frozen=True)
class BoostBatch:
    """One solution moved by N generators: the N moved solutions, the
    residual ||D(k') u'|| / ||u'|| of each moved basis vector, shape
    (N, dim ker), and each draw's |k'^2 - k^2| / max(|k^2|, 1), shape (N,)."""

    solutions: tuple
    residuals: np.ndarray
    k2_drift: np.ndarray


def boost_solutions(s: SpinorSolution, omegas) -> BoostBatch:
    """Transport a solution by each generator of an (N, 4, 4) stack:
    k' = Lambda k, u' = S u.

    Every draw must give k' to 1e-10 relative by the forward error bound
    2^-53 ||Lambda|| ||k|| <= 1e-10 ||k'|| (infinity norms; a large boost
    that shrinks k leaves only roundoff in k'), keep its residuals at most
    1e-10 ||D(k')|| (Frobenius norm) plus (l/2) times the bound on the
    error of the float k'^2 inside D(k'), and keep k^2 to 1e-10 relative to
    max(|k^2|, ||k'||^2, 1).  The first draw that fails a check raises
    VerificationError naming it (``index``); a draw's checks run in the
    order forward error, residual, k^2, rank of the moved basis, so the
    error is the one boosting the draws one by one meets first."""
    omegas = np.asarray(omegas)
    if omegas.ndim != 3:
        raise ValueError("omegas must be a stack of 4x4 generators")
    try:
        lam = vector_boost(omegas)
        S = boost_matrix(omegas).matrix
    except VerificationError as exc:
        # a draw before the overflowing one may fail a later check first
        boost_solutions(s, omegas[:exc.index])
        raise VerificationError(f"draw {exc.index}: {exc}", index=exc.index) from None
    ell = float(s.ell)
    k_old = np.asarray([float(c) for c in s.k])
    k_new = lam @ k_old
    u_new = np.stack([S @ np.asarray([complex(c) for c in u]) for u in s.basis], axis=1)
    ops = _float_dirac(s.eps5, ell, k_new)
    images = (ops[:, None] @ u_new[..., None])[..., 0]
    # one norm per vector, as residual() takes it, so each value is the
    # one a single draw gives
    residuals = np.array([
        [np.linalg.norm(img) / np.linalg.norm(u) for img, u in zip(draw_images, draw_u)]
        for draw_images, draw_u in zip(images, u_new)
    ]).reshape(u_new.shape[:2])
    k2_old = float(s.k2)
    # numpy scalar powers, not k * k: C pow rounds about one square in a
    # thousand the other way, and k'^2 is the drift the report prints
    k2_new = np.array([k[0] ** 2 - k[1] ** 2 - k[2] ** 2 - k[3] ** 2 for k in k_new])
    scale = max(abs(k2_old), 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        roundoff = 2.0 ** -53 * np.abs(lam).sum(axis=2).max(axis=1) * np.abs(k_old).max()
        k_size = np.abs(k_new).max(axis=1)
        k2_scale = np.maximum(scale, k_size * k_size)
        d_norm = np.linalg.norm(ops, axis=(-2, -1))
        # D(k') carries (l/2) fl(k'^2), and fl(k'^2) is off the invariant
        # k^2 by the forward error of k' (at most 2 ||k'||_1 per unit of
        # ``roundoff``) plus the rounding of four squares and three sums
        # (4 * 2^-53 ||k'||_2^2); g^4 keeps norms, so the residual of an
        # exact solution may carry (l/2) times that on top of 1e-10 ||D(k')||
        k2_error = (2.0 * roundoff * np.abs(k_new).sum(axis=1)
                    + 4.0 * 2.0 ** -53 * (k_new * k_new).sum(axis=1))
        res_bound = BOOST_TOL * d_norm + ell / 2 * k2_error
    fwd_bad = ~(roundoff <= BOOST_TOL * k_size)
    res_bad = ~(residuals <= res_bound[:, None])
    # k'^2 is a difference of squares of size ||k'||^2; its roundoff is
    # relative to that, not to k^2 (0 on the massless branch)
    k2_bad = ~(abs(k2_new - k2_old) <= BOOST_TOL * k2_scale)
    failing = np.flatnonzero(fwd_bad | res_bad.any(axis=1) | k2_bad)
    first = int(failing[0]) if failing.size else len(omegas)
    classes = _float_reality_classes(u_new[:first])
    if first < len(omegas):
        if fwd_bad[first]:
            reason = (f"boosted momentum is roundoff: 2^-53 ||Lambda|| ||k|| = "
                      f"{roundoff[first]:.3e} exceeds 1e-10 ||k'|| = "
                      f"{BOOST_TOL * k_size[first]:.3e}")
        elif res_bad[first].any():
            r = residuals[first, np.argmax(res_bad[first])]
            reason = (f"boosted solution residual {r:.3e} exceeds 1e-10 ||D(k')|| "
                      f"+ (l/2) |error of fl(k'^2)| = {res_bound[first]:.3e}")
        else:
            reason = f"k^2 changed under boost: {k2_old!r} -> {k2_new[first]!r}"
        raise VerificationError(f"draw {first}: {reason}", index=first)
    solutions = tuple(
        replace(
            s,
            k=tuple(float(c) for c in k),
            basis=tuple(tuple(u) for u in basis),
            k2=k2,
            spinor_class=cls,
            ell=ell,
            mode="float",
        )
        for k, basis, k2, cls in zip(k_new, u_new, k2_new, classes)
    )
    return BoostBatch(
        solutions=solutions,
        residuals=residuals,
        k2_drift=abs(k2_new - k2_old) / scale,
    )


def boost_solution(s: SpinorSolution, omega) -> SpinorSolution:
    """Transport a solution by one generator: boost_solutions on a stack of
    one."""
    return boost_solutions(s, np.asarray(omega)[None]).solutions[0]
