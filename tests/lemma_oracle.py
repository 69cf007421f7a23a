"""The plane-wave lemma's nilpotent model written out on ``ParamPoly``
polynomials in the symbol m, one operator application at a time: the
tests' oracle for ``enveloping.lemma_matrix_check``, which forms the same
residuals on coefficient lists in that coordinate."""

import math
from fractions import Fraction

from ncdirac.enveloping import _HALF, plane_wave_scale
from ncdirac.lie_algebra import lower, minkowski_square
from ncdirac.scalars import MOMENTUM_SYMBOLS, P_ZERO, sym


def lemma_matrix_check(eps5: int) -> dict:
    """Exact check of the central-commutator exponential lemma on a model.

    The lemma: if [p, A] and [A, dA] are central then [p, e^A] = [p, A] e^A
    and d(e^A) = (dA + (1/2)[A, dA]) e^A.  The model acts on polynomials in
    one coordinate x, the symbol ``m``, with l and k0..k3 symbolic:
    A = d/dx, p_mu = -k_mu x (so [p_mu, A] = k_mu) and dA = c x with
    c = -i eps5 l k^2 (so [A, dA] = c).  A lowers the degree, so e^A f is
    the finite sum of A^n f / n!.  On v = 1 + x/2 + x^2/3 + x^3/4 each
    residual, the largest |re| + |im| over the coefficients of lhs - rhs,
    is exactly 0.  ``derivative_lemma`` takes [A, dA] from the model;
    ``plane_wave_derivative`` takes dA = i eps5 l k.p and
    [A, dA] = -i eps5 l k^2 from the plane-wave identities.
    """
    if eps5 not in (1, -1):
        raise ValueError("eps5 must be +1 or -1")
    x = sym("m")
    scale = plane_wave_scale(eps5)
    k_low = lower(MOMENTUM_SYMBOLS)
    ksq = minkowski_square(MOMENTUM_SYMBOLS)
    c = -scale * ksq

    def a(f):
        return f.derivative("m")

    def d_a(f):
        return c * x * f

    def series(f, n=0):  # sum over j of A^j f / (n + j)!
        total = P_ZERO
        while f:
            total, f, n = total + f * Fraction(1, math.factorial(n)), a(f), n + 1
        return total

    def residual(diff):
        return max((abs(z.re) + abs(z.im) for _, z in diff.terms()), default=Fraction(0))

    v = sum((x ** n * Fraction(1, n + 1) for n in range(4)), P_ZERO)
    ev = series(v)
    # [p_mu, e^A] v = k_mu e^A v with p_mu = -k_mu x
    residuals = {"momentum_commutator": max(
        residual(-k_mu * (x * ev - series(x * v)) - k_mu * ev) for k_mu in k_low)}
    # d(e^A) v = sum over n of (1/n!) sum over i + j = n - 1 of A^j dA A^i v
    de_v, power, i = P_ZERO, v, 0
    while power:
        de_v, power, i = de_v + series(d_a(power), i + 1), a(power), i + 1
    residuals["derivative_lemma"] = residual(
        de_v - d_a(ev) - (a(d_a(ev)) - d_a(a(ev))) * _HALF)
    k_dot_p_ev = sum((-k_up * k_mu * x * ev for k_up, k_mu in zip(MOMENTUM_SYMBOLS, k_low)),
                     P_ZERO)
    residuals["plane_wave_derivative"] = residual(
        de_v - scale * k_dot_p_ev + scale * ksq * ev * _HALF)
    return residuals
