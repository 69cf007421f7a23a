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
(mu/M)^2.  Every exact gamma term (g.k, g^4 (2/l), the eliminated W and the
printed gamma5 mass term) is formed by ``clifford.gamma_sum``; the exact
spectrum reads one product of two of them, P = g^axis g^4.

The heavy branch, its mass scale M = 2/l, its frame and its reality class
are read from ``modes`` (``heavy_mass``, ``frame``, ``massive_class``).
The exact spectrum works in that frame, k = frame(eps5, x): the rest frame
k = (x,0,0,0) for eps5 = -1 and the z-frame k = (0,0,0,x) for eps5 = +1.
There the determinant of the 8x8 matrix is the 4x4 determinant of
AD - BC = (eta x^2 - mu^2) I + eta M x P, eta = -eps5, and P = g^axis g^4
has the eigenvalues +1 and -1 twice each, which ``modes.spinor_kernel``
proves once per eps5 on P - I and P + I: so the determinant is exactly the
square of a quartic that is a quadratic in k^2.
Its frame roots x = (+-M +- sqrt(delta))/2, delta = M^2 - 4 eps5 mu^2,
all come from one exact sqrt(delta), in
Q(i, sqrt(delta)) (QuadraticScalar), or in Q(i) when delta is a rational
square.  At each root the kernel of the 4x4 Schur complement is one of the
two eigenspaces of P, and the root's reality class is that eigenspace's;
each reported float is an exact value rounded once.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from fractions import Fraction
from functools import cache

from .clifford import VerificationError, gamma_sum
from .lie_algebra import lower, quarter
from .matrices import ExactMatrix
from .modes import exact_sqrt, frame, heavy_mass, massive_class, rounded, spinor_kernel
from .scalars import I, ONE, ExactScalar, ParamPoly, _coerce_scalar, as_fraction, poly, sym

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
        quarter(eps5)  # a bad eps5 raises
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


def _scales(c: CouplingConfig) -> tuple:
    """(M, mu^2, delta) = (``modes.heavy_mass``, |g|^2 vev^2, M^2 - 4 eps5 mu^2)."""
    big_m, mu2 = heavy_mass(c.ell), c.coupling_squared() * c.vev ** 2
    return big_m, mu2, big_m * big_m - 4 * c.eps5 * mu2


def _rounded(root, values=lambda r: (r,), **diagnostics) -> tuple:
    """``modes.rounded``, raised as a RootFindingError carrying the
    diagnostics when a value is past the float range, or when a value that
    is not exactly zero rounds to 0 or to a subnormal float."""
    try:
        out = rounded(root, values)
    except OverflowError as exc:
        raise RootFindingError("a reported value is past the float range",
                               diagnostics=diagnostics) from exc
    # an irrational root gives irrational values: only a rational one can
    # give an exact zero
    nonzero = (map(bool, values(root.to_fraction())) if type(root) is ExactScalar
               else [True] * len(out))
    if any(abs(x) < sys.float_info.min and nz for x, nz in zip(out, nonzero)):
        raise RootFindingError("a nonzero reported value is below the normal float range",
                               diagnostics=diagnostics)
    return out


PAST_HIERARCHY = "2 (mu/M)^2 >= 1: the coupling is outside the seesaw regime mu/M << 1"
CRITICAL = ("delta = M^2 - 4 eps5 mu^2 = 0: at the critical coupling the light and "
            "heavy roots coincide")


def regime_failure(c: CouplingConfig) -> str | None:
    """Why the coupling fails whatever its spectrum, decided exactly, or
    None: 2 (mu/M)^2 >= 1 as 2 mu^2 >= M^2, then delta = 0."""
    big_m, mu2, delta = _scales(c)
    if 2 * mu2 >= big_m * big_m:
        return PAST_HIERARCHY
    if delta == 0:
        return CRITICAL
    return None


def seesaw_verdict(c: CouplingConfig, spectrum) -> tuple:
    """(ok, deviation tolerance, mu/M, reason) for one exact spectrum: the
    light mass within max(2 (mu/M)^2, 1e-12) of its leading value, the
    heavy mass within 2 (mu/M)^2 of M = 2/l, and the light class unset or
    the one the leading order predicts.  Once 2 (mu/M)^2 reaches 1 those
    bounds admit every light mass up to twice its leading value, the heavy
    root among them, and at delta = 0 the light root is the heavy one, so
    such a coupling fails with the ``regime_failure`` reason, else None.
    M and mu/M are rounded once each; a float past or below the normal
    range raises RootFindingError."""
    big_m, mu2, _ = _scales(c)
    heavy = _rounded(ExactScalar(big_m), M=big_m)[0]
    ratio = _rounded(exact_sqrt(mu2 / (big_m * big_m)), M=big_m, mu2=mu2)[0]
    tol = max(2.0 * ratio * ratio, 1e-12)
    heavy_drift = abs(spectrum.roots[-1] - heavy) / heavy
    reason = regime_failure(c)
    ok = (
        reason is None
        and spectrum.deviation <= tol
        and heavy_drift <= 2.0 * ratio * ratio + 1e-12
        and spectrum.light_class in (None, light_mass_leading(c)[1])
    )
    return ok, tol, ratio, reason


def _momentum(k) -> list:
    """The four components of k as ParamPoly; a component that is not one
    must be a real exact number, so a float or complex one raises."""
    return [c if isinstance(c, ParamPoly) else poly(as_fraction(c)) for c in k]


def _reduction(c: CouplingConfig, vev, ell):
    """(w, effective) at a vev and l that are numbers or symbols: u2 = W u1
    with W = w g^4, w = -(l/2) eps5 g* vev, and the effective light operator
    g.k + g vev W as a function of the four-momentum.  W is never formed."""
    w_coeff = poly(-c.eps5) * poly(c.g.conjugate() * _HALF) * poly(vev) * poly(ell)
    mass_coeff = w_coeff * poly(c.g) * poly(vev)

    def effective(k) -> ExactMatrix:
        return gamma_sum(c.eps5, [*lower(_momentum(k)), mass_coeff])

    return w_coeff, effective


def leading_mass(c: CouplingConfig):
    """m = |g|^2 vev^2 l / 2."""
    return c.coupling_squared() * c.vev ** 2 * c.ell / 2


def light_mass_leading(c: CouplingConfig):
    """(k^2, class) of the light mode at leading order, a massive mode of
    mass m = |g|^2 vev^2 l / 2: k^2 = -eps5 m^2 and ``modes.massive_class``
    (Dirac for eps5 = -1, Majorana for eps5 = +1)."""
    m = leading_mass(c)
    return -c.eps5 * m * m, massive_class(c.eps5)


class EffectiveCheck(namedtuple("EffectiveCheck", "identity_ok residual rest_frame_class")):
    """Result of substituting the leading-order u2 back into the first
    equation: the printed gamma5 mass term must be reproduced exactly.
    The verdict, the residual ExactMatrix, and the reality class at rest
    (a str, or None)."""

    __slots__ = ()


def verify_effective_equation(c: CouplingConfig) -> EffectiveCheck:
    """Exact algebraic identity in the vev and length symbols (v, l) with
    the configured exact coupling: the eliminated system's mass term equals
    +i |g|^2 v^2 (l/2) g5 for eps5 = -1 and -|g|^2 v^2 (l/2) g5 for +1.
    With a nonzero leading mass m, the effective operator's kernel at rest,
    k = frame(eps5, m), is classified by ``modes.spinor_kernel``, which
    raises VerificationError unless it is two-dimensional."""
    _, symbolic = _reduction(c, sym("v"), sym("l"))
    mass_term = symbolic((0, 0, 0, 0))  # g v W: the effective operator less g.k
    # the printed term is (+i or -1) |g|^2 v^2 (l/2) gamma5, and gamma5 is
    # g^4 of the eps5 = +1 signature
    size = poly((I if c.eps5 == -1 else -ONE) * ExactScalar(c.coupling_squared()))
    printed = gamma_sum(1, [0, 0, 0, 0, size * sym("v", 2) * sym("l") * poly(_HALF)])
    residual = mass_term - printed

    rest_class = None
    m_lead = leading_mass(c)
    if m_lead:
        k = frame(c.eps5, m_lead)
        _, effective = _reduction(c, c.vev, c.ell)
        _, rest_class = spinor_kernel(effective(k), k, c.eps5)
    return EffectiveCheck(
        identity_ok=residual.is_zero(),
        residual=residual,
        rest_frame_class=rest_class,
    )


# -- exact spectrum ------------------------------------------------------


class ModeSpectrum(namedtuple("ModeSpectrum", (
        "light_k2 heavy_k2 leading_light_mass deviation light_class heavy_class roots "
        "light_k2_exact heavy_k2_exact"))):
    """Light / heavy root data of the exact 8x8 system in its rest frame:
    light_k2, heavy_k2 and deviation are floats, the two classes a str or
    None, roots a tuple, and the exact k2 a Fraction or None."""

    __slots__ = ()


@cache
def _eigenspace_classes(e5: int) -> tuple:
    """The reality classes of the +1 and the -1 eigenspace of P = g^a g^4,
    a the axis of ``modes.frame`` (0 for eps5 = -1, 3 for +1), each read by
    ``modes.spinor_kernel`` off the kernel of P - I or P + I.  Both kernels
    must be two-dimensional, so P is diagonalisable with eigenvalues +1 and
    -1 twice each; else RootFindingError.  Proved once per eps5: a failure
    is not cached, so it raises on every call."""
    axis = frame(e5, 1)
    p = gamma_sum(e5, axis) @ gamma_sum(e5, [0, 0, 0, 0, 1])
    try:
        return tuple(spinor_kernel(p - ExactMatrix.identity(4).scale(s), axis, e5)[1]
                     for s in (1, -1))
    except VerificationError as exc:
        raise RootFindingError("P = g^a g^4 does not have eigenvalues +1 and -1 twice each: "
                               f"{exc}") from exc


def _root_class(e5: int, x, big_m: Fraction, mu2: Fraction) -> str:
    """Reality class of the u1 components of the kernel at the frame root x.

    Eliminating u2 leaves the Schur complement T = g.k - c (g.k + M g^4)
    with c = mu^2 / (k^2 + eps5 M^2), since D22^2 = (k^2 + eps5 M^2) I;
    k^2 + eps5 M^2 = eps5 (M^2 - x^2) vanishes only at mu = 0 (heavy root)
    and at mu^2 = 2 M^2, eps5 = -1 (light root), which raises.  In the
    frame T = eta g^a (alpha I + beta P) with alpha = (1 - c) x and
    beta = -c M.  P is diagonalisable with eigenvalues +1 and -1 twice each
    (``_eigenspace_classes``), so T has rank
    2 [alpha + beta != 0] + 2 [alpha - beta != 0], which must be 2, and
    ker T is the eigenspace of P on which alpha + beta P vanishes: the +1
    eigenspace when alpha + beta = 0, the -1 one when alpha - beta = 0.
    Its class is the one ``_eigenspace_classes`` read for that eigenspace."""
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
    return _eigenspace_classes(e5)[bool(alpha + beta)]


def exact_mode_spectrum(c: CouplingConfig) -> ModeSpectrum:
    """Light and heavy roots of the coupled 8x8 determinant along the frame axis,
    their reality classes, and the light mass's deviation from leading order.

    With M = 2/l and mu^2 = |g|^2 vev^2 the determinant is the 4x4
    determinant of AD - BC = (eta x^2 - mu^2) I + eta M x P, eta = -eps5,
    for the blocks [[A, B], [C, D]], since C = g* vev I commutes with D
    (Silvester, "Determinants of block matrices", Math. Gazette 84 (2000)
    460).  The eigenspaces of P, certified by ``_eigenspace_classes`` on
    every call, g = 0 included, make it exactly q(x)^2 for every x, M and
    mu^2, with q = x^4 - (M^2 - 2 eps5 mu^2) x^2 + mu^4; its discriminant in
    x^2 is M^2 delta.  The heavy frame root is h = (M + sqrt(delta))/2, the light
    one mu^2/h = m_lead (1 + d) with d = eps5 mu^2/h^2, and k^2 = -eps5 x^2.
    Each is a sum or quotient of nonnegative terms, so ``modes.rounded``
    rounds them once from the one exact sqrt(delta), with no cancellation
    at any mu/M.  The k^2 values stay exact when delta is a rational square.
    """
    e5 = c.eps5
    big_m, mu2, delta = _scales(c)
    m2 = big_m * big_m
    _eigenspace_classes(e5)  # certifies det = q^2, or raises
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
    # the same two roots exact, with no division: mu^2/h = eps5 (M - sqrt(delta))/2
    heavy_x, light_x = (big_m + root) * _HALF, (big_m - root) * _HALF * e5
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
        light_k2_exact=(-e5 * light_x * light_x).to_fraction() if rational else None,
        heavy_k2_exact=(-e5 * heavy_x * heavy_x).to_fraction() if rational else None,
    )
