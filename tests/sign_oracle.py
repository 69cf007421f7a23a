"""Per-sign builds of the data the engine writes at eps5 = +1 and twists to
eps5 = -1, the reference for those twists.

Each datum is written out at the given eps5 with the sign where its
formula states it: the Weyl images, d_4 and the plane-wave scale, the g^4
of the signature, D(k) on the gammas of its own signature and the
dispersion polynomial.  Nothing here twists, and nothing is cached.
"""

from fractions import Fraction
from itertools import combinations

from ncdirac.clifford import gamma_sum
from ncdirac.enveloping import TOKENS, NCExpression
from ncdirac.lie_algebra import lower, minkowski_square
from ncdirac.scalars import I, MOMENTUM_SYMBOLS, P_I, P_ONE, sym
from ncdirac.weyl import NVARS, WeylOperator

_ZERO5 = (0,) * NVARS


def weyl_images(eps5: int) -> dict:
    """Generator name -> WeylOperator of P_mu = i d_mu, M_munu =
    i (xi_mu d_nu - xi_nu d_mu), x_mu = xi_mu + i l (xi_mu d_4 - eps5 xi^4
    d_mu) and C = 1 + i l d_4, with xi_mu = eta_munu xi^nu."""
    il = P_I * sym("l")
    e = [tuple(int(i == a) for i in range(NVARS)) for a in range(NVARS)]
    eta, eta_i, eta_il = lower((1,) * 4), lower((P_I,) * 4), lower((il,) * 4)
    rep = {f"P{mu}": WeylOperator({(_ZERO5, e[mu]): P_I}) for mu in range(4)}
    for mu, nu in combinations(range(4), 2):
        rep[f"M{mu}{nu}"] = WeylOperator({(e[mu], e[nu]): eta_i[mu], (e[nu], e[mu]): -eta_i[nu]})
    for mu in range(4):
        rep[f"x{mu}"] = WeylOperator({(e[mu], _ZERO5): eta[mu], (e[mu], e[4]): eta_il[mu],
                                      (e[4], e[mu]): il if eps5 < 0 else -il})
    rep["C"] = WeylOperator({(_ZERO5, _ZERO5): P_ONE, (_ZERO5, e[4]): il})
    return rep


def d4_action(eps5: int) -> dict:
    """Token -> NCExpression of d_4: x_mu -> -eps5 l p_mu C, and every
    other token to 0."""
    action = {t: NCExpression() for t in TOKENS}
    for mu in range(4):
        action[f"x{mu}"] = NCExpression({(f"p{mu}", "C"): -eps5 * sym("l")})
    return action


def plane_wave_scale(eps5: int):
    """i eps5 l, the scale of d_4(A) = i eps5 l k.p."""
    return I * eps5 * sym("l")


def g4(eps5: int):
    """g^4 of the eps5 signature as an exact matrix: gamma5 = i g0 g1 g2 g3
    for eps5 = +1 and i gamma5 for eps5 = -1, multiplied out densely."""
    g0, g1, g2, g3 = (gamma_sum(1, [0] * a + [1]) for a in range(4))
    gamma5 = (g0 @ g1 @ g2 @ g3).scale(P_I)
    return gamma5 if eps5 == 1 else gamma5.scale(P_I)


def dirac_matrix(eps5: int, k=MOMENTUM_SYMBOLS, ell=sym("l")):
    """D(k) = g^mu k_mu - eps5 g^4 (l/2) k^2 on the gammas of the eps5
    signature."""
    return gamma_sum(eps5, [*lower(k), Fraction(-eps5, 2) * ell * minkowski_square(k)])


def dispersion_polynomial(ell, eps5: int) -> tuple:
    """(1, eps5 l^2/4): D(k)^2 = k^2 + eps5 (l^2/4)(k^2)^2."""
    return 1, ell * ell * Fraction(eps5, 4)
