"""Differential-operator realization of the deformed algebra on 5 variables.

Ground truth for index conventions: the generators act on functions of
xi^0..xi^4 as polynomial coefficient times partial derivative words,

    P_mu   = i d_mu
    M_munu = i (xi_mu d_nu - xi_nu d_mu)
    x_mu   = xi_mu + i l (xi_mu d_4 - eps5 xi^4 d_mu)
    C      = 1 + i l d_4

with xi_mu = eta_munu xi^nu (index lowered) while d_mu = d/dxi^mu stays
unlowered and xi^4 is the raw fifth variable.  The commutators close on the
flat (rho = 0) deformed table; that closure certifies the sign and index
placement used everywhere else in the package.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, product
from math import comb, factorial

from .lie_algebra import DEFORMED_BASIS, flat_deformed_algebra, lower
from .scalars import P_I, P_ONE, LinearCombination, _accumulate, sym

NVARS = 5
_ZERO5 = (0,) * NVARS


def _orders(orders) -> tuple:
    """``orders`` as a tuple of NVARS non-negative ints; bools, floats and
    negative orders are rejected, as ParamPoly exponents are."""
    orders = tuple(orders)
    if len(orders) != NVARS:
        raise ValueError(f"orders {orders!r} do not have {NVARS} entries")
    for e in orders:
        if type(e) is not int:
            raise TypeError(f"order {e!r} is not an integer")
        if e < 0:
            raise ValueError(f"negative order {e} in {orders!r}")
    return orders


class WeylOperator(LinearCombination):
    """Normal-ordered sum  sum_terms  coeff * xi^alpha * d^beta.

    Keys are (alpha, beta) pairs of 5-tuples of non-negative ints, checked
    on construction; coefficients are ParamPoly.
    Multiplication applies the full normal-ordering contraction

        d^beta xi^gamma = sum_nu prod_c C(beta_c,nu_c) C(gamma_c,nu_c) nu_c!
                            xi^(gamma-nu) d^(beta-nu)
    """

    __slots__ = ()

    @staticmethod
    def _key(key) -> tuple:
        alpha, beta = key
        return _orders(alpha), _orders(beta)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def unit() -> "WeylOperator":
        return WeylOperator({(_ZERO5, _ZERO5): P_ONE})

    @staticmethod
    def coordinate(a: int) -> "WeylOperator":
        alpha = tuple(1 if i == a else 0 for i in range(NVARS))
        return WeylOperator({(alpha, _ZERO5): P_ONE})

    @staticmethod
    def derivative(a: int) -> "WeylOperator":
        beta = tuple(1 if i == a else 0 for i in range(NVARS))
        return WeylOperator({(_ZERO5, beta): P_ONE})

    # -- composition -------------------------------------------------------

    def __matmul__(self, other) -> "WeylOperator":
        """Operator composition with normal reordering."""
        if not isinstance(other, WeylOperator):
            return NotImplemented
        acc: dict = {}
        _compose_into(acc, self.terms, other.terms, contractions_only=False)
        return WeylOperator._made(acc)

    def commutator(self, other: "WeylOperator") -> "WeylOperator":
        """self @ other - other @ self, from the contraction terms alone.

        The nu = 0 term of a term pair is the same product of commuting
        coefficients in both orders, so it cancels exactly and is never
        formed."""
        acc: dict = {}
        _compose_into(acc, self.terms, other.terms, contractions_only=True)
        _compose_into(acc, other.terms, self.terms, contractions_only=True, negate=True)
        return WeylOperator._made(acc)

    @staticmethod
    def _render(key) -> str:
        return "*".join(f"{name}{i}" + (f"^{e}" if e > 1 else "")
                        for name, orders in zip(("xi", "d"), key)
                        for i, e in enumerate(orders) if e)


@cache
def _contraction_pattern(beta: tuple, gamma: tuple, contractions_only: bool) -> tuple:
    """The (nu, weight) pairs of d^beta xi^gamma: every nu <= min(beta, gamma)
    componentwise with weight prod_c C(beta_c,nu_c) C(gamma_c,nu_c) nu_c!,
    nu = 0 left out under ``contractions_only``."""
    out = []
    for nu in product(*(range(min(b, g) + 1) for b, g in zip(beta, gamma))):
        if contractions_only and not any(nu):
            continue
        weight = 1
        for bc, gc, nc in zip(beta, gamma, nu):
            weight *= comb(bc, nc) * comb(gc, nc) * factorial(nc)
        out.append((nu, weight))
    return tuple(out)


def _compose_into(acc: dict, left: dict, right: dict, contractions_only: bool,
                  negate: bool = False):
    """Add the normal-ordered terms of left @ right (or subtract them, with
    ``negate``) to ``acc``; with ``contractions_only`` only the terms with
    at least one contraction (nu != 0)."""
    for (a1, b1), c1 in left.items():
        for (a2, b2), c2 in right.items():
            # contract b1 against a2 componentwise
            pattern = _contraction_pattern(b1, a2, contractions_only)
            if not pattern:
                continue
            base = c1 * c2
            if negate:
                base = -base
            for nu, weight in pattern:
                alpha = tuple(x + y - n for x, y, n in zip(a1, a2, nu))
                beta = tuple(x + y - n for x, y, n in zip(b1, b2, nu))
                _accumulate(acc, (alpha, beta), base if weight == 1 else base * weight)


def build_rep(eps5: int) -> dict:
    """Generator name -> WeylOperator, symbolic in l."""
    if eps5 not in (1, -1):
        raise ValueError("eps5 must be +1 or -1")
    ell = sym("l")
    i = P_I
    xi_low = lower([WeylOperator.coordinate(mu) for mu in range(4)])
    rep = {}
    for mu in range(4):
        rep[f"P{mu}"] = WeylOperator.derivative(mu).scale(i)
    for mu in range(4):
        for nu in range(mu + 1, 4):
            op = (xi_low[mu] @ WeylOperator.derivative(nu)) - (
                xi_low[nu] @ WeylOperator.derivative(mu)
            )
            rep[f"M{mu}{nu}"] = op.scale(i)
    xi4 = WeylOperator.coordinate(4)
    d4 = WeylOperator.derivative(4)
    for mu in range(4):
        correction = (xi_low[mu] @ d4) - (xi4 @ WeylOperator.derivative(mu)).scale(eps5)
        rep[f"x{mu}"] = xi_low[mu] + correction.scale(i * ell)
    rep["C"] = WeylOperator.unit() + d4.scale(i * ell)
    return rep


# the eight bracket lines of the deformed table; pairs outside them
# ([M, C] and C with itself) are swept inside the MM family
BRACKET_FAMILIES = ("MM", "MP", "Mx", "PP", "Px", "PC", "xx", "xC")


def _family(name_a: str, name_b: str) -> str:
    fam = "".join(sorted(name_a[0] + name_b[0], key="MPxC".index))
    return "MM" if fam in ("MC", "CC") else fam


def closure_families(eps5: int):
    """Residuals rep([a,b]) - [rep a, rep b] for every generator pair, one
    bracket family at a time.

    Yields (family, list of (pair names, residual WeylOperator)) for each
    entry of BRACKET_FAMILIES in turn, pairs in basis order; a family's
    commutators are formed only when its step runs.
    """
    rep = build_rep(eps5)
    table = flat_deformed_algebra(eps5)
    names = DEFORMED_BASIS
    pairs = {fam: [] for fam in BRACKET_FAMILIES}
    for idx_a, idx_b in combinations(range(len(names)), 2):
        pairs[_family(names[idx_a], names[idx_b])].append((idx_a, idx_b))
    for fam in BRACKET_FAMILIES:
        rows = []
        for idx_a, idx_b in pairs[fam]:
            a, b = names[idx_a], names[idx_b]
            lhs = rep[a].commutator(rep[b])
            rhs = WeylOperator()
            for k, coeff in table.bracket(idx_a, idx_b).items():
                rhs = rhs + rep[names[k]].scale(coeff)
            rows.append(((a, b), lhs - rhs))
        yield fam, rows


def verify_rep_closure(eps5: int):
    """Dict family -> rows of `closure_families`; the representation is
    faithful to the flat table iff every residual is zero."""
    return dict(closure_families(eps5))
