"""The coupled 8x8 operator written out entry by entry, as the tests'
oracle for the seesaw spectrum and the gamma blocks, the leading-order
reduction with its W as a matrix, and the exact spectrum as it was first
written, step by step."""

from fractions import Fraction

from conjugation import conjugate
from determinant import det

from ncdirac.clifford import gamma_sum
from ncdirac.lie_algebra import lower
from ncdirac.matrices import ExactMatrix
from ncdirac.modes import exact_sqrt, frame
from ncdirac.scalars import P_ZERO, ExactScalar, poly, sym
from ncdirac.seesaw import (CouplingConfig, ModeSpectrum, RootFindingError, _momentum,
                            _reduction, _rounded, _scales, leading_mass)


def coupled_matrix(k, c: CouplingConfig) -> ExactMatrix:
    """Exact 8x8 block matrix [[g.k, gv],[g*v, g.k + g^4 (2/l)]].

    Momentum components may be exact rationals or ParamPoly symbols.
    """
    k_low = lower(_momentum(k))
    gk = gamma_sum(c.eps5, k_low)
    v = ExactScalar(c.vev)
    gv = poly(c.g * v)
    gvc = poly(c.g.conjugate() * v)
    mh = poly(ExactScalar(Fraction(2) / c.ell))
    lower_right = gamma_sum(c.eps5, [*k_low, mh])
    eye = ExactMatrix.identity(4)
    out = ExactMatrix.zeros(8)
    for i in range(4):
        for j in range(4):
            out.rows[i][j] = gk.rows[i][j]
            out.rows[i][j + 4] = eye.rows[i][j] * gv
            out.rows[i + 4][j] = eye.rows[i][j] * gvc
            out.rows[i + 4][j + 4] = lower_right.rows[i][j]
    return out


def leading_order_reduction(c: CouplingConfig):
    """(W, effective) at the configured vev and l: u2 = W u1 with
    W = -(l/2) eps5 g* vev g^4 formed as a matrix, and the effective light
    operator g.k + g vev W as a function of the four-momentum."""
    w_coeff, effective = _reduction(c, c.vev, c.ell)
    return gamma_sum(c.eps5, [0, 0, 0, 0, w_coeff]), effective


# -- the exact spectrum as it was first written ------------------------------
# ``exact_mode_spectrum`` before it formed its frame roots once and before
# it certified the eigenspaces of P, kept with the block, product, class
# and rank helpers it called then: the tests' oracle for every ModeSpectrum
# field and every RootFindingError of the rewrite.  Its certificate is the
# determinant of the 4x4 block against the quartic squared.

# the symbol of x, the axis component of the frame momentum frame(eps5, x)
_X = "m"


def _frame_product(e5: int) -> ExactMatrix:
    """P = g^a g^4, a the axis of ``modes.frame`` (0 for eps5 = -1, 3 for
    +1), as one product of two ``gamma_sum`` matrices."""
    return gamma_sum(e5, frame(e5, 1)) @ gamma_sum(e5, [0, 0, 0, 0, 1])


def _frame_class(e5: int) -> str:
    """The reality class of every eigenspace of P (see ``_root_class``):
    Majorana when P is real, else Dirac."""
    p = _frame_product(e5)
    return "Majorana" if p == conjugate(p) else "Dirac"


def _frame_block(e5: int, big_m: Fraction, mu2: Fraction) -> ExactMatrix:
    """AD - BC for the blocks [[A, B], [C, D]] of the coupled 8x8 matrix at
    the frame momentum frame(eps5, x), x the symbol ``_X``.  C = g* vev I
    commutes with D, so det(AD - BC) is the 8x8 determinant (Silvester,
    "Determinants of block matrices", Math. Gazette 84 (2000) 460).  With g.k = eta x g^a,
    eta = -eps5, and BC = mu^2 I it is (eta x^2 - mu^2) I + eta M x P,
    built straight from the nonzero entries of P = g^a g^4, one per row."""
    diag = poly(-e5) * sym(_X, 2) - poly(mu2)
    off = poly(-e5 * big_m) * sym(_X)
    rows = [[diag if r == col else P_ZERO for col in range(4)] for r in range(4)]
    for r, row in enumerate(_frame_product(e5).rows):
        for col, x in enumerate(row):
            if x:
                rows[r][col] = rows[r][col] + off * x
    return ExactMatrix(rows)


def _root_class(e5: int, x, big_m: Fraction, mu2: Fraction) -> str:
    """Reality class of the u1 components of the kernel at the frame root x.

    Eliminating u2 leaves the Schur complement T = g.k - c (g.k + M g^4)
    with c = mu^2 / (k^2 + eps5 M^2), since D22^2 = (k^2 + eps5 M^2) I;
    k^2 + eps5 M^2 = eps5 (M^2 - x^2) vanishes only at mu = 0 (heavy root)
    and at mu^2 = 2 M^2, eps5 = -1 (light root), which raises.  In the
    frame T = eta g^a (alpha I + beta P) with alpha = (1 - c) x and
    beta = -c M.  The certificate shows P has eigenvalues +1 and -1 twice
    each, so P^2 = I, T has rank 2 [alpha + beta != 0] + 2 [alpha - beta != 0],
    which must be 2, and ker T is an eigenspace of P.  P = g^a g^4 has one
    unit entry per row, so that eigenspace is spanned by e_r +- P_r,col e_col
    over the row pairs P swaps (and the rows it fixes): it is closed under
    conjugation exactly when P is real, which ``_frame_class`` reads once
    per eps5."""
    pole = e5 * (big_m * big_m - x * x)
    if not pole:
        raise RootFindingError("the light root is a pole of the heavy block: mu^2 = 2 M^2")
    # pole alpha = (pole - mu^2) x and pole beta = -mu^2 M: no division
    alpha, beta = (pole - mu2) * x, -mu2 * big_m
    rank = 2 * bool(alpha + beta) + 2 * bool(alpha - beta)
    if rank != 2:
        raise RootFindingError(
            "Schur complement kernel is not two-dimensional",
            diagnostics={"rank": rank},
        )
    return _frame_class(e5)


def exact_mode_spectrum_oracle(c: CouplingConfig) -> ModeSpectrum:
    """Light and heavy roots of the coupled 8x8 determinant along the frame axis,
    their reality classes, and the light mass's deviation from leading order.

    With M = 2/l and mu^2 = |g|^2 vev^2 the determinant is exactly q(x)^2,
    q = x^4 - (M^2 - 2 eps5 mu^2) x^2 + mu^4, checked on every call on the
    4x4 ``_frame_block``; its discriminant in x^2 is M^2 delta.  The heavy
    frame root is h = (M + sqrt(delta))/2, the light one mu^2/h =
    m_lead (1 + d) with d = eps5 mu^2/h^2, and k^2 = -eps5 x^2.  Each is a
    sum or quotient of nonnegative terms, so ``modes.rounded`` rounds
    them once from the one exact sqrt(delta), with no cancellation at any
    mu/M.  The k^2 values stay exact when delta is a rational square.
    """
    e5 = c.eps5
    big_m, mu2, delta = _scales(c)
    m2 = big_m * big_m
    x2 = sym(_X, 2)
    quartic = x2 * x2 - x2 * poly(m2 - 2 * e5 * mu2) + poly(mu2 * mu2)
    if det(_frame_block(e5, big_m, mu2)) != quartic * quartic:
        raise RootFindingError("determinant is not the square of the seesaw quartic",
                               diagnostics={"quartic": str(quartic)})
    if delta < 0:
        raise RootFindingError("no real determinant roots: the coupling is overcritical",
                               diagnostics={"discriminant": m2 * delta, "mu2": mu2, "M2": m2})

    def frame_roots(root):
        # the heavy and light frame roots, -eps5 times their squares, and |d|
        h = (big_m + root) / 2
        light = mu2 / h
        return h, light, -e5 * h * h, -e5 * light * light, light / h

    root = exact_sqrt(delta)
    heavy, light, heavy_k2, light_k2, deviation = _rounded(root, frame_roots, M2=m2, mu2=mu2)
    heavy_x, light_x, heavy_k2_exact, light_k2_exact, _ = frame_roots(root)
    if mu2 == 0:
        # 4-D light kernel at k = 0 and u1 = 0 at the heavy root: no mass
        # to classify
        light_class = heavy_class = None
        roots = (-heavy, 0.0, heavy)
    else:
        light_class = _root_class(e5, light_x, big_m, mu2)
        heavy_class = _root_class(e5, heavy_x, big_m, mu2)
        roots = (-heavy, -light, light, heavy)
    rational = type(root) is ExactScalar
    return ModeSpectrum(
        light_k2=light_k2,
        heavy_k2=heavy_k2,
        leading_light_mass=leading_mass(c),
        deviation=deviation,
        light_class=light_class,
        heavy_class=heavy_class,
        roots=roots,
        light_k2_exact=light_k2_exact.to_fraction() if rational else None,
        heavy_k2_exact=heavy_k2_exact.to_fraction() if rational else None,
    )
