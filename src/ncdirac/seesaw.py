"""Coupled two-branch mode system: a massless branch Yukawa-coupled to the
heavy branch, heavy-mode elimination at leading order, the small-mass
formulas, and the exact 8x8 spectrum for comparison.

Momentum-space equations of motion for (u1, u2):

    [ g.k          g<phi>           ] [u1]   = 0
    [ g*<phi>      g.k + g^4 (2/l)  ] [u2]

Neglecting the kinetic term of the heavy branch gives
u2 = -(l/2) eps5 g^4 g* <phi> u1 and the effective light operator
g.k - eps5 |g|^2 <phi>^2 (l/2) g^4, i.e. a gamma5 mass term of size
m = |g|^2 <phi>^2 l / 2.  With M = 2/l and mu = |g|<phi| this is the seesaw
ratio mu^2 / M; the exact light root differs from it at relative order
(mu/M)^2.

The exact spectrum works in the rest frame k = (E,0,0,0) for eps5 = -1 and
the z-frame k = (0,0,0,q) for eps5 = +1.  There the determinant of the 8x8
matrix is, exactly, the square of a quartic that is a quadratic in k^2;
the masses follow in closed form from its exact discriminant.  The frame
roots are x = (+-M +- sqrt(delta))/2 with delta = M^2 - 4 eps5 mu^2, and
the reality classes come from the kernel of a 4x4 Schur complement at the
exact light and heavy roots, in Q(i, sqrt(delta)) (QuadraticScalar), or in
Q(i) when delta is a rational square.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .clifford import (build_majorana_rep, conjugation_closed, gamma5, gamma_rows, gamma_sum,
                       reality_class)
from .lie_algebra import lower, minkowski_square
from .matrices import ExactMatrix, echelon
from .scalars import (ExactScalar, ParamPoly, _coerce_scalar, as_fraction, exact_sqrt,
                      poly, sym)

_HALF = ExactScalar(Fraction(1, 2))


class RootFindingError(RuntimeError):
    """Determinant root search failed; carries bracketing diagnostics."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class CouplingConfig:
    """Yukawa coupling g (a Gaussian rational: ExactScalar, int, Fraction or
    a string ExactScalar.parse reads), condensate vev >= 0, length l > 0,
    and eps5.  g is held as an ExactScalar, vev and l as Fractions; a float
    raises TypeError."""

    __slots__ = ("g", "vev", "ell", "eps5")

    def __init__(self, g: ExactScalar, vev: Fraction, ell: Fraction, eps5: int):
        if eps5 not in (1, -1):
            raise ValueError("eps5 must be +1 or -1")
        self.eps5 = eps5
        self.g = ExactScalar.parse(g) if isinstance(g, str) else _coerce_scalar(g)
        self.vev = as_fraction(vev)
        self.ell = as_fraction(ell)
        if not self.ell > 0:
            raise ValueError("ell must be positive")
        if not self.vev >= 0:
            raise ValueError("vev must be nonnegative")

    def coupling_squared(self) -> Fraction:
        """|g|^2."""
        return (self.g * self.g.conjugate()).to_fraction()

    def mu(self) -> float:
        """|g| * vev."""
        return math.sqrt(float(self.coupling_squared())) * float(self.vev)


def _momentum(k) -> list:
    """The four components of k as ParamPoly; a component that is not one
    must be a real exact number, so a float or complex one raises."""
    return [c if isinstance(c, ParamPoly) else poly(as_fraction(c)) for c in k]


def coupled_matrix(k, c: CouplingConfig) -> ExactMatrix:
    """Exact 8x8 block matrix [[g.k, gv],[g*v, g.k + g^4 (2/l)]].

    Momentum components may be exact rationals or ParamPoly symbols; the
    symbolic form is what the spectrum code solves.
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
    """(W, effective): u2 = W u1 with W = -(l/2) eps5 g* vev g^4, and the
    effective light operator as a function of the four-momentum."""
    rep = build_majorana_rep(c.eps5)
    v = ExactScalar(c.vev)
    w_coeff = poly(-c.eps5) * poly(c.g.conjugate() * v * ExactScalar(c.ell) * _HALF)
    W = rep.gamma[4].scale(w_coeff)
    mass_coeff = w_coeff * poly(c.g * v)

    def effective(k) -> ExactMatrix:
        return gamma_sum(c.eps5, [*lower(_momentum(k)), mass_coeff])

    return W, effective


def leading_mass(c: CouplingConfig):
    """m = |g|^2 vev^2 l / 2."""
    return c.coupling_squared() * c.vev ** 2 * c.ell / 2


def light_mass_leading(c: CouplingConfig):
    """(k^2, class) of the light mode at leading order:
    m = |g|^2 vev^2 l / 2; k^2 = +m^2 Dirac for eps5 = -1,
    k^2 = -m^2 Majorana for eps5 = +1."""
    m = leading_mass(c)
    k2 = m * m if c.eps5 == -1 else -m * m
    cls = "Dirac" if c.eps5 == -1 else "Majorana"
    return k2, cls


class EffectiveCheck(NamedTuple):
    """Result of substituting the leading-order u2 back into the first
    equation: the printed gamma5 mass term must be reproduced exactly."""

    identity_ok: bool
    mass_term: ExactMatrix
    residual: ExactMatrix
    rest_frame_class: str | None


def verify_effective_equation(c: CouplingConfig) -> EffectiveCheck:
    """Exact algebraic identity in the vev and length symbols (v, l) with
    the configured exact coupling: the eliminated system's mass term equals
    +i |g|^2 v^2 (l/2) g5 for eps5 = -1 and -|g|^2 v^2 (l/2) g5 for +1."""
    rep = build_majorana_rep(c.eps5)
    w_coeff = poly(-c.eps5) * poly(c.g.conjugate() * _HALF) * sym("v") * sym("l")
    W = rep.gamma[4].scale(w_coeff)
    mass_term = W.scale(poly(c.g) * sym("v"))
    gsq = poly(ExactScalar(c.coupling_squared()))
    g5 = gamma5()
    if c.eps5 == -1:
        printed = g5.scale(
            poly(ExactScalar(Fraction(0), Fraction(1))) * gsq
            * sym("v", 2) * sym("l") * poly(_HALF)
        )
    else:
        printed = g5.scale(-gsq * sym("v", 2) * sym("l") * poly(_HALF))
    residual = mass_term - printed

    rest_class = None
    if c.coupling_squared() != 0:
        m_lead = leading_mass(c)
        k = (m_lead, 0, 0, 0) if c.eps5 == -1 else (0, 0, 0, m_lead)
        _, effective = leading_order_reduction(c)
        kernel = effective(k).kernel()
        if len(kernel) == 2:
            rest_class = reality_class(kernel)
    return EffectiveCheck(
        identity_ok=residual.is_zero(),
        mass_term=mass_term,
        residual=residual,
        rest_frame_class=rest_class,
    )


# -- exact spectrum ------------------------------------------------------


class ModeSpectrum(NamedTuple):
    """Light / heavy root data of the exact 8x8 system in its rest frame."""

    light_k2: float
    heavy_k2: float
    leading_light_mass: object
    deviation: float
    light_class: str | None
    heavy_class: str | None
    roots: tuple
    light_k2_exact: Fraction | None
    heavy_k2_exact: Fraction | None


def _root_class(e5: int, x, big_m: Fraction, mu2: Fraction) -> str:
    """Reality class of the u1 components of the kernel at the frame root x.

    Eliminating u2 leaves the Schur complement T = g.k - c (g.k + M g^4)
    with c = mu^2 / (k^2 + eps5 M^2), since D22^2 = (k^2 + eps5 M^2) I;
    k^2 + eps5 M^2 = eps5 (M^2 - x^2) vanishes only at mu = 0.  The u1
    kernel is ker T, and it is closed under conjugation exactly when the
    row space of T is: its rank must be 2, and the class is read from its
    two reduced rows."""
    axis = 0 if e5 == -1 else 3
    zero = 0 * x  # of x's field: ExactScalar, or QuadraticScalar with its delta
    k = [zero] * 4
    k[axis] = x
    c = (zero + mu2) / (minkowski_square(k) + e5 * big_m * big_m)
    coeffs = [(1 - c) * k_mu for k_mu in lower(k)] + [-c * big_m]
    rows = gamma_rows(e5, coeffs, zero)
    rank = len(echelon(rows))
    if rank != 2:
        raise RootFindingError(
            "Schur complement kernel is not two-dimensional",
            diagnostics={"rank": rank},
        )
    # the two reduced rows span the row space of T
    return "Majorana" if conjugation_closed(rows[:2]) else "Dirac"


def exact_mode_spectrum(c: CouplingConfig) -> ModeSpectrum:
    """Light and heavy roots of det(coupled_matrix) along the frame axis,
    their reality classes, and the light mass's deviation from leading order.

    With M = 2/l and mu^2 = |g|^2 vev^2 the determinant is exactly q(x)^2,
    q = x^4 - (M^2 - 2 eps5 mu^2) x^2 + mu^4, checked on every call.  Floats
    enter only through the square root of q's exact discriminant; the heavy
    root h gives d = M / sqrt(h) - 1 without cancellation, and light mass =
    m_lead (1 + d), heavy mass = M / (1 + d), deviation = |d| at any mu/M.
    The k^2 values stay exact when the discriminant is a rational square.
    """
    e5 = c.eps5
    big_m = Fraction(2) / c.ell
    m2 = big_m * big_m
    mu2 = c.coupling_squared() * c.vev ** 2
    s = m2 - 2 * e5 * mu2

    axis = 0 if e5 == -1 else 3
    k = [poly(0)] * 4
    k[axis] = sym(f"k{axis}")
    x2 = sym(f"k{axis}", 2)
    quartic = x2 * x2 - x2 * poly(s) + poly(mu2 * mu2)
    if coupled_matrix(tuple(k), c).det() != quartic * quartic:
        raise RootFindingError(
            "determinant is not the square of the seesaw quartic",
            diagnostics={"quartic": str(quartic)},
        )

    disc = s * s - 4 * mu2 * mu2
    if disc < 0:
        raise RootFindingError(
            "no real determinant roots: the coupling is overcritical",
            diagnostics={"discriminant": disc, "mu2": mu2, "M2": m2},
        )
    rn, rd = math.isqrt(disc.numerator), math.isqrt(disc.denominator)
    exact_root = Fraction(rn, rd) if Fraction(rn * rn, rd * rd) == disc else None
    root = exact_root if exact_root is not None else math.sqrt(disc)
    heavy_x2 = (s + root) / 2
    a = m2 + 2 * e5 * mu2
    if a > 0:
        # M^2 - h = (a - root) / 2, rationalised against cancellation
        gap = (8 * e5 * m2 * mu2 + 4 * mu2 * mu2) / (2 * (a + root))
    else:
        gap = (a - root) / 2
    sqrt_h = math.sqrt(heavy_x2)
    d = float(gap / (sqrt_h * (big_m + sqrt_h)))

    m_lead = leading_mass(c)
    light = float(m_lead) * (1 + d)
    heavy = float(big_m) / (1 + d)
    light_k2, heavy_k2 = -e5 * light * light, -e5 * heavy * heavy
    light_exact = heavy_exact = None
    if exact_root is not None:
        heavy_exact = -e5 * heavy_x2
        light_exact = -e5 * mu2 * mu2 / heavy_x2
        light_k2, heavy_k2 = float(light_exact), float(heavy_exact)

    if mu2 == 0:
        # 4-D light kernel at k = 0 and u1 = 0 at the heavy root: no mass
        # to classify
        light_class = heavy_class = None
        roots = (-heavy, 0.0, heavy)
    else:
        # the positive frame roots (M - sqrt(delta))/2 up to sign and
        # (M + sqrt(delta))/2, delta = M^2 - 4 eps5 mu^2, exact in
        # Q(i, sqrt(delta))
        root = exact_sqrt(m2 - 4 * e5 * mu2)
        light_class = _root_class(e5, e5 * (big_m - root) / 2, big_m, mu2)
        heavy_class = _root_class(e5, (big_m + root) / 2, big_m, mu2)
        roots = (-heavy, -light, light, heavy)
    return ModeSpectrum(
        light_k2=light_k2,
        heavy_k2=heavy_k2,
        leading_light_mass=m_lead,
        deviation=abs(d),
        light_class=light_class,
        heavy_class=heavy_class,
        roots=roots,
        light_k2_exact=light_exact,
        heavy_k2_exact=heavy_exact,
    )
