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
the z-frame k = (0,0,0,q) for eps5 = +1, where the determinant of the 8x8
matrix is a univariate degree-8 polynomial (a perfect square of a quartic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .clifford import build_majorana_rep, gamma5, reality_class
from .lie_algebra import ETA4_DIAG
from .matrices import ExactMatrix
from .scalars import (SYMBOLS, ExactScalar, ParamPoly, as_fraction,
                      is_exact_number, poly, sym)

_HALF = ExactScalar(Fraction(1, 2))


class RootFindingError(RuntimeError):
    """Determinant root search failed; carries bracketing diagnostics."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


def _as_exact_complex(g) -> ExactScalar | None:
    if isinstance(g, ExactScalar):
        return g
    if isinstance(g, (int, Fraction)):
        return ExactScalar(Fraction(g))
    if isinstance(g, str):
        return ExactScalar.parse(g)
    return None


@dataclass(frozen=True)
class CouplingConfig:
    """Yukawa coupling g (complex), condensate vev >= 0, length l > 0, eps5."""

    g: object
    vev: object
    ell: object
    eps5: int

    def __post_init__(self):
        if self.eps5 not in (1, -1):
            raise ValueError("eps5 must be +1 or -1")
        if not float(self.ell) > 0:
            raise ValueError("ell must be positive")
        if not float(self.vev) >= 0:
            raise ValueError("vev must be nonnegative")

    @property
    def exact(self) -> bool:
        return (
            _as_exact_complex(self.g) is not None
            and is_exact_number(self.vev)
            and is_exact_number(self.ell)
        )

    def g_exact(self) -> ExactScalar:
        g = _as_exact_complex(self.g)
        if g is None:
            raise ValueError("coupling is not exact")
        return g

    def g_complex(self) -> complex:
        g = _as_exact_complex(self.g)
        return complex(g) if g is not None else complex(self.g)

    def coupling_squared(self):
        """|g|^2, exact when g is."""
        g = _as_exact_complex(self.g)
        if g is not None:
            return (g * g.conjugate()).to_fraction()
        return abs(complex(self.g)) ** 2

    def mu(self) -> float:
        """|g| * vev."""
        return math.sqrt(float(self.coupling_squared())) * float(self.vev)


def _gamma_dot_k_exact(eps5: int, k) -> ExactMatrix:
    rep = build_majorana_rep(eps5)
    out = ExactMatrix.zeros(4)
    for mu in range(4):
        coeff = poly(k[mu]) if isinstance(k[mu], ParamPoly) else poly(
            ExactScalar(as_fraction(k[mu]))
        )
        out = out + rep.gamma[mu].scale(coeff * poly(ETA4_DIAG[mu]))
    return out


def coupled_matrix(k, c: CouplingConfig):
    """Exact 8x8 block matrix [[g.k, gv],[g*v, g.k + g^4 (2/l)]].

    Momentum components may be exact numbers or ParamPoly symbols; the
    symbolic form is what the spectrum code solves.  Float inputs fall back
    to a complex ndarray.
    """
    k_ok = all(isinstance(x, ParamPoly) or is_exact_number(x) for x in k)
    if not (c.exact and k_ok):
        return _coupled_matrix_float(k, c)
    rep = build_majorana_rep(c.eps5)
    gk = _gamma_dot_k_exact(c.eps5, k)
    g = c.g_exact()
    v = ExactScalar(as_fraction(c.vev))
    gv = poly(g * v)
    gvc = poly(g.conjugate() * v)
    mh = poly(ExactScalar(Fraction(2) / as_fraction(c.ell)))
    lower_right = gk + rep.gamma[4].scale(mh)
    eye = ExactMatrix.identity(4)
    out = ExactMatrix.zeros(8)
    for i in range(4):
        for j in range(4):
            out.rows[i][j] = gk.rows[i][j]
            out.rows[i][j + 4] = eye.rows[i][j] * gv
            out.rows[i + 4][j] = eye.rows[i][j] * gvc
            out.rows[i + 4][j + 4] = lower_right.rows[i][j]
    return out


def _coupled_matrix_float(k, c: CouplingConfig) -> np.ndarray:
    rep = build_majorana_rep(c.eps5)
    gk = np.zeros((4, 4), dtype=complex)
    for mu in range(4):
        gk += rep.numeric(mu) * (float(k[mu]) * ETA4_DIAG[mu])
    g = c.g_complex()
    v = float(c.vev)
    out = np.zeros((8, 8), dtype=complex)
    out[:4, :4] = gk
    out[:4, 4:] = g * v * np.eye(4)
    out[4:, :4] = np.conj(g) * v * np.eye(4)
    out[4:, 4:] = gk + rep.numeric(4) * (2.0 / float(c.ell))
    return out


def leading_order_reduction(c: CouplingConfig):
    """(W, effective): u2 = W u1 with W = -(l/2) eps5 g* vev g^4, and the
    effective light operator as a function of the four-momentum."""
    rep = build_majorana_rep(c.eps5)
    g = c.g_exact()
    v = ExactScalar(as_fraction(c.vev))
    ell = ExactScalar(as_fraction(c.ell))
    w_coeff = poly(-c.eps5) * poly(g.conjugate() * v * ell * _HALF)
    W = rep.gamma[4].scale(w_coeff)
    mass_term = W.scale(poly(g * v))

    def effective(k) -> ExactMatrix:
        return _gamma_dot_k_exact(c.eps5, k) + mass_term

    return W, effective


def leading_mass(c: CouplingConfig):
    """m = |g|^2 vev^2 l / 2, exact when the config is."""
    if c.exact:
        return c.coupling_squared() * as_fraction(c.vev) ** 2 * as_fraction(c.ell) / 2
    return c.coupling_squared() * float(c.vev) ** 2 * float(c.ell) / 2


def light_mass_leading(c: CouplingConfig):
    """(k^2, class) of the light mode at leading order:
    m = |g|^2 vev^2 l / 2; k^2 = +m^2 Dirac for eps5 = -1,
    k^2 = -m^2 Majorana for eps5 = +1."""
    m = leading_mass(c)
    k2 = m * m if c.eps5 == -1 else -m * m
    cls = "Dirac" if c.eps5 == -1 else "Majorana"
    return k2, cls


@dataclass(frozen=True)
class EffectiveCheck:
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
    g = c.g_exact()
    w_coeff = poly(-c.eps5) * poly(g.conjugate() * _HALF) * sym("v") * sym("l")
    W = rep.gamma[4].scale(w_coeff)
    mass_term = W.scale(poly(g) * sym("v"))
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
    if c.exact and c.coupling_squared() != 0:
        m_lead = leading_mass(c)
        k = (m_lead, 0, 0, 0) if c.eps5 == -1 else (0, 0, 0, m_lead)
        _, effective = leading_order_reduction(c)
        kernel = effective(k).kernel()
        if len(kernel) == 2:
            rest_class = reality_class(kernel, mode="exact")
    return EffectiveCheck(
        identity_ok=residual.is_zero(),
        mass_term=mass_term,
        residual=residual,
        rest_frame_class=rest_class,
    )


# -- exact spectrum ------------------------------------------------------


def _univariate_coeffs(p: ParamPoly, name: str) -> list[ExactScalar]:
    """Coefficient list c[0..deg] of a polynomial in a single symbol."""
    idx = SYMBOLS.index(name)
    deg = max(p.degree_in(name), 0)
    coeffs = [ExactScalar() for _ in range(deg + 1)]
    for exps, coeff in p.terms():
        if any(e != 0 and i != idx for i, e in enumerate(exps)):
            raise ValueError(f"polynomial is not univariate in {name!r}")
        coeffs[exps[idx]] = coeffs[exps[idx]] + coeff
    return coeffs


def _fraction_sqrt(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _poly_exact_sqrt(coeffs: list[ExactScalar]) -> list[ExactScalar] | None:
    """Exact square root of an even-degree polynomial with rational
    coefficients, or None."""
    deg = len(coeffs) - 1
    if deg % 2 != 0:
        return None
    if any(c.im != 0 for c in coeffs):
        return None
    half = deg // 2
    lead = _fraction_sqrt(coeffs[-1].re)
    if lead is None or lead == 0:
        return None
    q = [ExactScalar() for _ in range(half + 1)]
    q[half] = ExactScalar(lead)
    for j in range(1, half + 1):
        # match the coefficient of x^(deg - j)
        acc = ExactScalar()
        for a in range(half - j + 1, half + 1):
            b = deg - j - a
            if 0 <= b <= half:
                acc = acc + q[a] * q[b]
        q[half - j] = (coeffs[deg - j] - acc) * ExactScalar(
            Fraction(1, 2) / lead
        )
    # verify q*q == coeffs exactly
    prod = [ExactScalar() for _ in range(deg + 1)]
    for a, qa in enumerate(q):
        for b, qb in enumerate(q):
            prod[a + b] = prod[a + b] + qa * qb
    if prod != coeffs:
        return None
    return q


def _eval_coeffs(coeffs, x: float) -> float:
    total = 0.0
    for c in reversed(coeffs):
        total = total * x + float(c.re)
    return total


def _newton_polish(coeffs, x0: float) -> float:
    deriv = [c * ExactScalar(Fraction(i)) for i, c in enumerate(coeffs)][1:]
    x = x0
    for _ in range(100):
        f = _eval_coeffs(coeffs, x)
        d = _eval_coeffs(deriv, x)
        if d == 0.0:
            break
        step = f / d
        x -= step
        if abs(step) <= 1e-14 * max(1.0, abs(x)):
            return x
    # bisection fallback around the best estimate
    span = max(1.0, abs(x)) * 1e-6
    lo, hi = x - span, x + span
    flo, fhi = _eval_coeffs(coeffs, lo), _eval_coeffs(coeffs, hi)
    if flo * fhi > 0:
        raise RootFindingError(
            "root polish failed",
            diagnostics={"estimate": x, "bracket": (lo, hi), "values": (flo, fhi)},
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = _eval_coeffs(coeffs, mid)
        if fm == 0.0 or (hi - lo) <= 1e-14 * max(1.0, abs(mid)):
            return mid
        if flo * fm <= 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ModeSpectrum:
    """Light / heavy root data of the exact 8x8 system in its rest frame."""

    light_k2: object
    heavy_k2: object
    light_basis: tuple
    heavy_basis: tuple
    leading_light_mass: object
    deviation: float
    light_class: str | None
    heavy_class: str | None
    roots: tuple
    light_k2_exact: Fraction | None
    heavy_k2_exact: Fraction | None


def _u1_block_class(basis, tol: float = 1e-8) -> str | None:
    """Reality class of the span of the u1 (first four) components."""
    block = np.asarray([list(v)[:4] for v in basis], dtype=complex)
    if block.size == 0:
        return None
    u, s, vh = np.linalg.svd(block)
    rank = int(np.sum(s > tol * max(1.0, float(s[0])))) if len(s) else 0
    if rank == 0:
        return None
    return reality_class([vh[i] for i in range(rank)], mode="float")


def _nullspace_float(matrix: np.ndarray, tol: float = 1e-8):
    u, s, vh = np.linalg.svd(matrix)
    keep = s <= tol * max(1.0, float(s[0]))
    return [tuple(vh[i].conj()) for i in range(len(s)) if keep[i]]


def exact_mode_spectrum(c: CouplingConfig) -> ModeSpectrum:
    """All real roots of det(coupled_matrix) along the frame axis, with
    nullspaces, branch labels, and the deviation of the light mass from its
    leading-order value.

    The determinant is computed exactly as a univariate degree-8 polynomial
    and reduced to its exact quartic square root before any floating point
    enters; roots are polished to 1e-12 relative and deduplicated at 1e-9.
    """
    if not c.exact:
        raise ValueError("exact spectrum needs rational g, vev, ell")
    name = "k0" if c.eps5 == -1 else "k3"
    k = [poly(0)] * 4
    k[0 if c.eps5 == -1 else 3] = sym(name)
    matrix = coupled_matrix(tuple(k), c)
    det = matrix.det()
    coeffs = _univariate_coeffs(det, name)
    quartic = _poly_exact_sqrt(coeffs)
    work = quartic if quartic is not None else coeffs
    if any(x.im != 0 for x in work):
        raise RootFindingError(
            "determinant has non-real coefficients in the frame variable",
            diagnostics={"coefficients": [str(x) for x in work]},
        )

    # exact candidates first: 0 and +-2/l (the decoupled branch points)
    mh = Fraction(2) / as_fraction(c.ell)
    exact_roots = []
    for cand in (Fraction(0), mh, -mh):
        if det.evaluate({name: ExactScalar(cand)}).is_zero():
            exact_roots.append(cand)

    float_coeffs = [float(x.re) for x in work]
    poly_np = np.polynomial.Polynomial(float_coeffs)
    raw = poly_np.roots()
    merged: list = list(exact_roots)
    for r in sorted(raw, key=lambda z: z.real):
        if abs(r.imag) > 1e-9 * max(1.0, abs(r)):
            continue
        est = float(r.real)
        # exact candidates win over nearby float estimates (and double
        # roots at the decoupling point would stall Newton)
        if any(abs(est - float(m)) <= 1e-9 * max(1.0, abs(est)) for m in merged):
            continue
        x = _newton_polish(work, est)
        if all(abs(x - float(m)) > 1e-9 * max(1.0, abs(x)) for m in merged):
            merged.append(x)
    if not merged:
        raise RootFindingError(
            "no real determinant roots found",
            diagnostics={"coefficients": [str(x) for x in work]},
        )

    # k^2 = +E^2 in the rest frame, -q^2 in the z-frame
    k2_values = [
        (root, root * root if c.eps5 == -1 else -root * root) for root in merged
    ]
    m_lead = leading_mass(c)
    mu = c.mu()

    nonzero = [(r, v) for r, v in k2_values if abs(float(v)) > 1e-18]
    if mu == 0 or not nonzero:
        light_root, light_k2 = min(k2_values, key=lambda rv: abs(float(rv[1])))
    else:
        light_root, light_k2 = min(nonzero, key=lambda rv: abs(float(rv[1])))
    # the heavy branch always carries the largest |k^2|
    heavy_root, heavy_k2 = max(k2_values, key=lambda rv: abs(float(rv[1])))

    m_lead_f = float(m_lead)
    if m_lead_f > 0:
        deviation = abs(math.sqrt(abs(float(light_k2))) - m_lead_f) / m_lead_f
    else:
        deviation = 0.0

    def basis_at(root):
        kvec = [0.0] * 4
        kvec[0 if c.eps5 == -1 else 3] = float(root)
        return tuple(_nullspace_float(_coupled_matrix_float(kvec, c)))

    light_basis = basis_at(light_root)
    heavy_basis = basis_at(heavy_root)

    return ModeSpectrum(
        light_k2=float(light_k2),
        heavy_k2=float(heavy_k2),
        light_basis=light_basis,
        heavy_basis=heavy_basis,
        leading_light_mass=m_lead,
        deviation=float(deviation),
        light_class=_u1_block_class(light_basis),
        heavy_class=_u1_block_class(heavy_basis),
        roots=tuple(float(r) for r in merged),
        light_k2_exact=light_k2 if isinstance(light_k2, Fraction) else None,
        heavy_k2_exact=heavy_k2 if isinstance(heavy_k2, Fraction) else None,
    )
