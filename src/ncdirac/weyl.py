"""Differential-operator realization of the deformed algebra on 5 variables.

Ground truth for index conventions: the generators act on functions of
xi^0..xi^4 as polynomial coefficient times partial derivative words,

    P_mu   = i d_mu
    M_munu = i (xi_mu d_nu - xi_nu d_mu)
    x_mu   = xi_mu + i l (xi_mu d_4 - xi^4 d_mu)
    C      = 1 + i l d_4

at eps5 = +1, with xi_mu = eta_munu xi^nu (index lowered) while
d_mu = d/dxi^mu stays unlowered and xi^4 is the raw fifth variable.  At
eps5 = -1 each image is the twist tau of its formula: l -> i l,
xi^4 -> i xi^4, d_4 -> -i d_4, which keeps [d_4, xi^4] = 1 and turns the
flat table at +1 into the one at -1, so x_mu there reads
xi_mu + i l (xi_mu d_4 + xi^4 d_mu).
The commutators close on the flat (rho = 0) deformed table; that closure
certifies the sign and index placement used everywhere else in the package.
``LinearCombination``, the sum of keys with ParamPoly coefficients that
``WeylOperator`` and the ``enveloping`` words subclass, is written here.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, product
from math import comb, factorial
from typing import Mapping

from .lie_algebra import DEFORMED_BASIS, flat_deformed_algebra, lower, quarter
from .scalars import (P_I, P_ONE, _accumulate, _int_terms, _join, _new, _reduced_sums, poly,
                      sym)

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


class LinearCombination:
    """Finite sum  sum_key coeff * key  with nonzero ParamPoly coefficients.

    ``terms`` maps each key to its coefficient.  The constructor coerces
    coefficients with ``poly``, drops zeros, merges repeated keys and checks
    each key with the subclass's static ``_key``; a subclass adds its
    product and writes a key with ``_render``.  Scalars act through
    ``scale`` only: ``+``, ``-`` and ``==`` take an operand of the same
    class, and anything else gives NotImplemented.  Instances are never
    changed after construction, so results may share them.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict = {}
        if terms:
            key_of = self._key
            for key, coeff in terms.items():
                _accumulate(clean, key_of(key), poly(coeff))
        self.terms = clean

    @staticmethod
    def _sort_key(key):
        return key

    @classmethod
    def _made(cls, terms: dict):
        """An instance over ``terms``, already checked and zero-free."""
        made = _new(cls)
        made.terms = terms
        return made

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            _accumulate(out, key, coeff)
        return self._made(out)

    def __sub__(self, other):
        return self + -other if type(other) is type(self) else NotImplemented

    def __neg__(self):
        return self._made({k: -c for k, c in self.terms.items()})

    def scale(self, factor):
        """factor * self.  Q(i)[SYMBOLS] has no zero divisors, so only a
        zero factor can cancel a term."""
        f = poly(factor)
        if not f._terms:
            return self._made({})
        return self._made({k: f * c for k, c in self.terms.items()})

    def twist(self, symbols: Mapping[str, int], turns):
        """Each coefficient twisted by ``symbols`` (``ParamPoly.twist``) and
        times i^turns(key): the image of a twist that also turns the keys."""
        return self._made({k: c.twist(symbols, turns(k)) for k, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self) -> str:
        """(coeff)*key + ... in ``_sort_key`` order; "1" for the empty key."""
        items = sorted(self.terms.items(), key=lambda kv: self._sort_key(kv[0]))
        return " + ".join(f"({c})*{self._render(k) or '1'}" for k, c in items) or "0"

    __repr__ = __str__


class WeylOperator(LinearCombination):
    """Normal-ordered sum  sum_terms  coeff * xi^alpha * d^beta.

    Keys are (alpha, beta) pairs of 5-tuples of non-negative ints, checked
    on construction; coefficients are ParamPoly.  The commutator reorders
    through the normal-ordering contraction

        d^beta xi^gamma = sum_nu prod_c C(beta_c,nu_c) C(gamma_c,nu_c) nu_c!
                            xi^(gamma-nu) d^(beta-nu),

    whose nu = 0 term cancels between the two orders.
    """

    __slots__ = ()

    @staticmethod
    def _key(key) -> tuple:
        alpha, beta = key
        return _orders(alpha), _orders(beta)

    def commutator(self, other: "WeylOperator") -> "WeylOperator":
        """self other - other self, from the contraction terms alone
        (``_commutator_into``), each coefficient reduced once."""
        sums: dict = {}
        _commutator_into(sums, 0, _int_rows(self), _int_rows(other))
        return WeylOperator._made(_reduced_sums(sums).get(0, {}))

    @staticmethod
    def _render(key) -> str:
        return "*".join(f"{name}{i}" + (f"^{e}" if e > 1 else "")
                        for name, orders in zip(("xi", "d"), key)
                        for i, e in enumerate(orders) if e)


@cache
def _contraction_pattern(beta: tuple, gamma: tuple) -> tuple:
    """The (nu, weight) pairs of the contraction terms of d^beta xi^gamma:
    every nu != 0 with nu <= min(beta, gamma) componentwise, of weight
    prod_c C(beta_c,nu_c) C(gamma_c,nu_c) nu_c!."""
    out = []
    for nu in product(*(range(min(b, g) + 1) for b, g in zip(beta, gamma))):
        if any(nu):
            weight = 1
            for bc, gc, nc in zip(beta, gamma, nu):
                weight *= comb(bc, nc) * comb(gc, nc) * factorial(nc)
            out.append((nu, weight))
    return tuple(out)


def _int_rows(op: WeylOperator) -> list:
    """(alpha, beta, support of alpha, support of beta, the (monomial, a, b,
    d) int terms of the coefficient) per term; a support has bit c set
    when the order of variable c is nonzero."""
    return [(a, b, sum(1 << c for c, e in enumerate(a) if e),
             sum(1 << c for c, e in enumerate(b) if e), _int_terms(coeff))
            for (a, b), coeff in op.terms.items()]


def _commutator_into(sums: dict, tag, left: list, right: list):
    """Add left right - right left, both ``_int_rows``, to the ``_join``
    sums of ``tag``, keyed by operator key.  The nu = 0 term of a term pair
    is the same product in both orders, so each order adds, with its sign,
    only its contraction terms: a term pair with no variable both
    differentiated in the first factor and a coordinate in the second has
    none and is skipped."""
    for sign, first, second in ((1, left, right), (-1, right, left)):
        for a1, b1, _, support1, terms1 in first:
            for a2, b2, support2, _, terms2 in second:
                if not support1 & support2:
                    continue
                # contract b1 against a2 componentwise
                for nu, weight in _contraction_pattern(b1, a2):
                    key = (tuple(x + y - n for x, y, n in zip(a1, a2, nu)),
                           tuple(x + y - n for x, y, n in zip(b1, b2, nu)))
                    row = [(key, *term) for term in terms2]
                    weight *= sign
                    for mono, xa, xb, xd in terms1:
                        _join(sums, tag, mono, weight * xa, weight * xb, xd, row)


def build_rep(eps5: int) -> dict:
    """Generator name -> WeylOperator, symbolic in l, each written term by
    term at eps5 = +1 from the formulas of the module docstring: every
    product there is already normal ordered, and xi_mu = eta_munu xi^nu is
    ``lower``.  At eps5 = -1 each image is its twist tau, which turns a
    term xi^alpha d^beta by i^(alpha_4 - beta_4)."""
    turns = quarter(eps5)
    il = P_I * sym("l")
    e = [tuple(int(i == a) for i in range(NVARS)) for a in range(NVARS)]
    eta, eta_i, eta_il = lower((1,) * 4), lower((P_I,) * 4), lower((il,) * 4)
    rep = {}
    for mu in range(4):
        rep[f"P{mu}"] = WeylOperator({(_ZERO5, e[mu]): P_I})
    for mu, nu in combinations(range(4), 2):
        rep[f"M{mu}{nu}"] = WeylOperator({(e[mu], e[nu]): eta_i[mu], (e[nu], e[mu]): -eta_i[nu]})
    for mu in range(4):
        rep[f"x{mu}"] = WeylOperator({(e[mu], _ZERO5): eta[mu], (e[mu], e[4]): eta_il[mu],
                                      (e[4], e[mu]): -il})
    rep["C"] = WeylOperator({(_ZERO5, _ZERO5): P_ONE, (_ZERO5, e[4]): il})
    return {name: image.twist({"l": turns}, lambda key: turns * (key[0][4] - key[1][4]))
            for name, image in rep.items()}


# the eight bracket lines of the deformed table; pairs outside them
# ([M, C] and C with itself) are swept inside the MM family
BRACKET_FAMILIES = ("MM", "MP", "Mx", "PP", "Px", "PC", "xx", "xC")


def _family(name_a: str, name_b: str) -> str:
    fam = "".join(sorted(name_a[0] + name_b[0], key="MPxC".index))
    return "MM" if fam in ("MC", "CC") else fam


def closure_families(eps5: int):
    """Residuals [rep a, rep b] - rep([a,b]) for every generator pair, one
    bracket family at a time.

    Yields (family, list of (pair names, residual WeylOperator)) for each
    entry of BRACKET_FAMILIES in turn, pairs in basis order; a family's
    commutators are formed only when its step runs.  Each residual is one
    ``_join`` sum, tagged by its pair, of the images' int terms and the
    table's terms c_ab^k, and the family's sums are reduced once.
    """
    rep = build_rep(eps5)
    table = flat_deformed_algebra(eps5)
    names = DEFORMED_BASIS
    images = [_int_rows(rep[name]) for name in names]
    # -rep(e_k) as _join rows, for the table's terms c_ab^k
    minus = [[((a1, b1), mono, -a, -b, d) for a1, b1, _, _, terms in image
              for mono, a, b, d in terms] for image in images]
    pairs = {fam: [] for fam in BRACKET_FAMILIES}
    for idx_a, idx_b in combinations(range(len(names)), 2):
        pairs[_family(names[idx_a], names[idx_b])].append((idx_a, idx_b))
    for fam in BRACKET_FAMILIES:
        sums: dict = {}
        for tag, (idx_a, idx_b) in enumerate(pairs[fam]):
            _commutator_into(sums, tag, images[idx_a], images[idx_b])
            for k, mono, xa, xb, xd in table.rows[idx_a].get(idx_b, ()):
                _join(sums, tag, mono, xa, xb, xd, minus[k])
        residuals = _reduced_sums(sums)
        yield fam, [((names[idx_a], names[idx_b]), WeylOperator._made(residuals.get(tag, {})))
                    for tag, (idx_a, idx_b) in enumerate(pairs[fam])]


def verify_rep_closure(eps5: int):
    """Dict family -> rows of `closure_families`; the representation is
    faithful to the flat table iff every residual is zero."""
    return dict(closure_families(eps5))
