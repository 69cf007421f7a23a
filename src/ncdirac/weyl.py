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

from itertools import combinations, product
from math import comb, factorial

from .lie_algebra import DEFORMED_BASIS, flat_deformed_algebra, lower
from .scalars import P_I, P_ONE, ParamPoly, poly, sym

NVARS = 5
_ZERO5 = (0,) * NVARS


class WeylOperator:
    """Normal-ordered sum  sum_terms  coeff * xi^alpha * d^beta.

    Keys are (alpha, beta) pairs of 5-tuples; coefficients are ParamPoly.
    Multiplication applies the full normal-ordering contraction

        d^beta xi^gamma = sum_nu prod_c C(beta_c,nu_c) C(gamma_c,nu_c) nu_c!
                            xi^(gamma-nu) d^(beta-nu)
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for key, coeff in terms.items():
                coeff = poly(coeff)
                if coeff.is_zero():
                    continue
                alpha, beta = key
                key = (tuple(alpha), tuple(beta))
                prev = clean.get(key)
                total = coeff if prev is None else prev + coeff
                if total.is_zero():
                    clean.pop(key, None)
                else:
                    clean[key] = total
        self.terms = clean

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

    # -- linear structure ----------------------------------------------------

    def __add__(self, other) -> "WeylOperator":
        if not isinstance(other, WeylOperator):
            return NotImplemented
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            prev = out.get(key)
            total = coeff if prev is None else prev + coeff
            if total.is_zero():
                out.pop(key, None)
            else:
                out[key] = total
        made = WeylOperator.__new__(WeylOperator)
        made.terms = out
        return made

    def __sub__(self, other) -> "WeylOperator":
        return self + (-other)

    def __neg__(self) -> "WeylOperator":
        made = WeylOperator.__new__(WeylOperator)
        made.terms = {k: -c for k, c in self.terms.items()}
        return made

    def scale(self, factor) -> "WeylOperator":
        f = poly(factor)
        made = WeylOperator.__new__(WeylOperator)
        made.terms = {}
        for key, coeff in self.terms.items():
            c = f * coeff
            if not c.is_zero():
                made.terms[key] = c
        return made

    def __matmul__(self, other) -> "WeylOperator":
        """Operator composition with normal reordering."""
        if not isinstance(other, WeylOperator):
            return NotImplemented
        acc: dict = {}
        _compose_into(acc, self.terms, other.terms, contractions_only=False)
        made = WeylOperator.__new__(WeylOperator)
        made.terms = acc
        return made

    def commutator(self, other: "WeylOperator") -> "WeylOperator":
        """self @ other - other @ self, from the contraction terms alone.

        The nu = 0 term of a term pair is the same product of commuting
        coefficients in both orders, so it cancels exactly and is never
        formed."""
        acc: dict = {}
        _compose_into(acc, self.terms, other.terms, contractions_only=True)
        _compose_into(acc, other.terms, self.terms, contractions_only=True, negate=True)
        made = WeylOperator.__new__(WeylOperator)
        made.terms = acc
        return made

    def substitute(self, bindings) -> "WeylOperator":
        return WeylOperator({k: c.substitute(bindings) for k, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeylOperator):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (alpha, beta), coeff in sorted(self.terms.items()):
            factors = []
            for i, e in enumerate(alpha):
                if e:
                    factors.append(f"xi{i}" + (f"^{e}" if e > 1 else ""))
            for i, e in enumerate(beta):
                if e:
                    factors.append(f"d{i}" + (f"^{e}" if e > 1 else ""))
            body = "*".join(factors) if factors else "1"
            parts.append(f"({coeff})*{body}")
        return " + ".join(parts)

    __repr__ = __str__


def _compose_into(acc: dict, left: dict, right: dict, contractions_only: bool,
                  negate: bool = False):
    """Add the normal-ordered terms of left @ right (or subtract them, with
    ``negate``) to ``acc``; with ``contractions_only`` only the terms with
    at least one contraction (nu != 0)."""
    for (a1, b1), c1 in left.items():
        for (a2, b2), c2 in right.items():
            # contract b1 against a2 componentwise
            ranges = [range(min(x, y) + 1) for x, y in zip(b1, a2)]
            if contractions_only and all(len(r) == 1 for r in ranges):
                continue
            base = c1 * c2
            if negate:
                base = -base
            for nu in product(*ranges):
                if contractions_only and not any(nu):
                    continue
                weight = 1
                for bc, ac, nc in zip(b1, a2, nu):
                    weight *= comb(bc, nc) * comb(ac, nc) * factorial(nc)
                alpha = tuple(x + y - n for x, y, n in zip(a1, a2, nu))
                beta = tuple(x + y - n for x, y, n in zip(b1, b2, nu))
                coeff = base if weight == 1 else base * weight
                key = (alpha, beta)
                prev = acc.get(key)
                total = coeff if prev is None else prev + coeff
                if total.is_zero():
                    acc.pop(key, None)
                else:
                    acc[key] = total


def build_rep(eps5: int, ell: ParamPoly | None = None) -> dict:
    """Generator name -> WeylOperator.  Symbolic in l unless a value is given."""
    if eps5 not in (1, -1):
        raise ValueError("eps5 must be +1 or -1")
    ell = sym("l") if ell is None else poly(ell)
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
