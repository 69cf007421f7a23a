"""Word algebra over {M_munu, p_mu, x_mu, C, Cinv} with exact normal ordering.

Elements are finite sums  coeff * word  where words are tuples of generator
tokens and coefficients are ParamPoly.  Normal order puts rotations first,
then momenta, then coordinates, then C and its formal inverse:

    M01 < ... < M23 < p0 < ... < p3 < x0 < ... < x3 < C < Cinv

Momenta precede coordinates so that vacuum rules (p acting rightward on a
p-annihilated state) read off the trailing letters directly.

The rewriting rules b a -> a b + [b, a] are not written here: they are read
from the flat (rho = 0) table of ``lie_algebra.flat_deformed_algebra``,
whose basis lines up position by position with the first 15 tokens.  Cinv
is a formal generator subject to C*Cinv = Cinv*C = 1, so its rules follow
from those of C as [Cinv, y] = -Cinv [C, y] Cinv.

Every rewrite strictly decreases (#x letters, word length, #inversions)
lexicographically, so reduction terminates; the relations are consistent
(they close on the flat deformed table), so the normal form is unique.
Every rule is exact, so a normal form drops nothing unless its caller asks
for an l-truncation.

``lemma_matrix_check`` verifies the exponential lemma behind the plane-wave
identities on a nilpotent model, exactly, on polynomial coefficient lists.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, cached_property

from .scalars import (
    MOMENTUM_SYMBOLS,
    ONE,
    ZERO,
    ExactScalar,
    LinearCombination,
    as_fraction,
    P_I,
    P_ONE,
    ParamPoly,
    _accumulate,
    _sum_of_products,
    poly,
    sym,
)
from .lie_algebra import flat_deformed_algebra, lower, minkowski_square

_HALF = ExactScalar(Fraction(1, 2))
_LEMMA_DIM = 13  # polynomial degrees 0..12 of the lemma's model

M_TOKENS = ("M01", "M02", "M03", "M12", "M13", "M23")
P_TOKENS = ("p0", "p1", "p2", "p3")
X_TOKENS = ("x0", "x1", "x2", "x3")
C_TOKEN = "C"
CINV_TOKEN = "Cinv"
TOKENS = M_TOKENS + P_TOKENS + X_TOKENS + (C_TOKEN, CINV_TOKEN)
_RANK = {t: i for i, t in enumerate(TOKENS)}

I = P_I


class NCExpression(LinearCombination):
    """Linear combination of generator words (tuples of TOKENS) with
    ParamPoly coefficients; an unknown token raises ValueError."""

    __slots__ = ()

    @staticmethod
    def _key(word) -> tuple:
        word = tuple(word)
        for token in word:
            if token not in _RANK:
                raise ValueError(f"unknown generator {token!r} in word {word!r}")
        return word

    @property
    def words(self) -> dict:
        return self.terms

    # -- constructors -----------------------------------------------------

    @staticmethod
    def unit(coeff=1) -> "NCExpression":
        return NCExpression({(): coeff})

    @staticmethod
    def gen(token: str, coeff=1) -> "NCExpression":
        return NCExpression({(token,): coeff})

    # -- product and queries ------------------------------------------------

    def __mul__(self, other) -> "NCExpression":
        """Word concatenation; scalars act through ``scale``."""
        if type(other) is not NCExpression:
            return NotImplemented
        acc: dict = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                _accumulate(acc, wa + wb, ca * cb)
        return NCExpression._made(acc)

    def conjugate(self) -> "NCExpression":
        """Formal adjoint: reverse words, conjugate coefficients.

        All generators are self-conjugate, so a word conjugates to its
        reversal and i goes to -i in the coefficients.
        """
        return NCExpression._made(
            {tuple(reversed(w)): c.conjugate() for w, c in self.terms.items()})

    @staticmethod
    def _sort_key(word) -> tuple:
        return len(word), word

    @staticmethod
    def _render(word) -> str:
        return "*".join(word)


@cache
def _swap_rules(eps5: int) -> dict:
    """(a, b) -> the terms of [a, b] for every pair with rank(a) > rank(b)
    whose bracket is nonzero; a pair missing here commutes.  The flat
    table's basis index k is the token TOKENS[k], and each rule of C gives
    one of Cinv: [Cinv, y] = -Cinv [C, y] Cinv."""
    table = flat_deformed_algebra(eps5)
    rules = {}
    for i in range(table.dim()):
        for j in range(i):
            rule = NCExpression({(TOKENS[k],): c for k, c in table.bracket(i, j).items()})
            if rule.terms:
                rules[(TOKENS[i], TOKENS[j])] = rule.terms
    for (a, y), terms in list(rules.items()):
        if a == C_TOKEN:
            rules[(CINV_TOKEN, y)] = {(CINV_TOKEN, *w, CINV_TOKEN): -c for w, c in terms.items()}
    return rules


def _find_redex(word: tuple, leftmost: bool):
    """Position of a reducible adjacent pair, or None if normal."""
    positions = range(len(word) - 1)
    if not leftmost:
        positions = reversed(positions)
    for i in positions:
        a, b = word[i], word[i + 1]
        if (a == C_TOKEN and b == CINV_TOKEN) or (a == CINV_TOKEN and b == C_TOKEN):
            return i
        if _RANK[a] > _RANK[b]:
            return i
    return None


@cache
def _nf_word(eps5: int, word: tuple, leftmost: bool) -> NCExpression:
    """Normal form of one word, memoised (``cache_clear``, ``cache_info``);
    results are shared, so callers read them and never hand them out."""
    pos = _find_redex(word, leftmost)
    if pos is None:
        return NCExpression._made({word: P_ONE})
    a, b = word[pos], word[pos + 1]
    head, tail = word[:pos], word[pos + 2:]
    if {a, b} == {C_TOKEN, CINV_TOKEN}:
        return _nf_word(eps5, head + tail, leftmost)
    result = _nf_word(eps5, head + (b, a) + tail, leftmost)
    for corr_word, coeff in _swap_rules(eps5).get((a, b), {}).items():
        sub = _nf_word(eps5, head + corr_word + tail, leftmost)
        result = result + sub.scale(coeff)
    return result


def normal_form(expr: NCExpression, eps5: int, order: int | None = None,
                leftmost: bool = True) -> NCExpression:
    """Unique normal form of an expression under the flat deformed relations,
    the formal inverse included.  Every rule is exact; with an ``order``
    the result's coefficients are truncated to that l-degree.
    """
    acc: dict = {}
    for word, coeff in expr.terms.items():
        for w, c in _nf_word(eps5, word, leftmost).terms.items():
            _accumulate(acc, w, coeff * c)
    if order is not None:
        acc = {w: c for w, c in ((w, c.truncate_in("l", order)) for w, c in acc.items()) if c}
    return NCExpression._made(acc)


def commutator(a: NCExpression, b: NCExpression) -> NCExpression:
    """a*b - b*a, the definition (``PlaneWaveCheck`` expands brackets instead)."""
    return a * b - b * a


def _leibniz(expr: NCExpression, action) -> dict:
    """Terms of the sum over words w of expr and their letters of
    c_w w_<i action(w_i) w_>i, with ``action`` giving a letter's terms."""
    acc: dict = {}
    for word, coeff in expr.terms.items():
        for i, token in enumerate(word):
            for hit, c in action(token).items():
                _accumulate(acc, word[:i] + hit + word[i + 1:], coeff * c)
    return acc


def _letter_bracket(eps5: int, x: str, y: str) -> dict:
    """The terms of [x, y] for two tokens, read from the swap rules: negated
    when only [y, x] is stored, empty when neither is."""
    rules = _swap_rules(eps5)
    if (x, y) in rules:
        return rules[x, y]
    return {w: -c for w, c in rules.get((y, x), {}).items()}


def _bracket_expansion(a: NCExpression, b: NCExpression, eps5: int) -> NCExpression:
    """[a, b] by the Leibniz rule in both slots: the sum over words u of a,
    v of b and their letters of c_u c_v u_<i v_<j [u_i, v_j] v_>j u_>i.
    Its normal form is that of a*b - b*a."""
    ad_b = {x: _leibniz(b, lambda y: _letter_bracket(eps5, x, y))
            for x in {x for u in a.terms for x in u}}
    return NCExpression._made(_leibniz(a, ad_b.__getitem__))


class Derivation:
    """Leibniz extension of a generator action; the basis is x_mu and xi4.

    d_mu = -i[p_mu, .], read from the flat table: it sends x_nu to
    eta_munu C and rotations to their momentum gradient.  d_4 sends x_mu to
    -eps5 l p_mu C.  Momenta, C and the formal inverse are annihilated, so
    d(Cinv) = -Cinv d(C) Cinv = 0 automatically.
    """

    def __init__(self, eps5: int, index: int):
        if eps5 not in (1, -1):
            raise ValueError("eps5 must be +1 or -1")
        if index not in (0, 1, 2, 3, 4):
            raise ValueError("derivation index must be 0..4")
        self.eps5 = eps5
        self.index = index
        self.action: dict[str, NCExpression] = {t: NCExpression() for t in TOKENS}
        if index < 4:
            for t in TOKENS:
                self.action[t] = NCExpression._made(
                    _letter_bracket(eps5, P_TOKENS[index], t)).scale(-I)
        else:
            for mu in range(4):
                self.action[f"x{mu}"] = NCExpression({(f"p{mu}", C_TOKEN): -eps5 * sym("l")})

    def __call__(self, expr: NCExpression, order: int | None = None) -> NCExpression:
        acc = _leibniz(expr, lambda token: self.action[token].terms)
        return normal_form(NCExpression._made(acc), self.eps5, order=order)


def plane_wave_exponent() -> NCExpression:
    """Exponent A = -(i/2) k_nu {x^nu, Cinv} of the noncommutative plane wave.

    Momentum components are the symbols k0..k3 (upper index); because both
    the index of x and of k flip sign together under lowering, the
    contraction reads componentwise: A = -(i/2) sum_mu k^mu {x_mu, Cinv}.
    It does not depend on eps5.
    """
    # -(i/2) k^mu on each of the two anticommutator orderings
    return NCExpression({
        word: poly(-1) * I * k_up * ParamPoly.from_scalar(_HALF)
        for mu, k_up in enumerate(MOMENTUM_SYMBOLS)
        for word in ((f"x{mu}", CINV_TOKEN), (CINV_TOKEN, f"x{mu}"))})


def momentum_dot(expr_scale=1) -> NCExpression:
    """k.p = sum_mu k^mu p_mu as an expression."""
    return NCExpression({(f"p{mu}",): k_up * poly(expr_scale)
                         for mu, k_up in enumerate(MOMENTUM_SYMBOLS)})


def project_vacuum(expr: NCExpression) -> ParamPoly:
    """Scalar value of an expression of pure momentum words against a plane
    wave on the vacuum: each p_mu picks up k_mu when commuted through the
    exponential, and p annihilates the vacuum afterwards."""
    k_low = lower(MOMENTUM_SYMBOLS)
    total = poly(0)
    for word, coeff in expr.terms.items():
        factor = coeff
        for token in word:
            if token[0] != "p":
                raise ValueError(
                    "vacuum projection needs a normal form with momentum words only"
                )
            factor = factor * k_low[int(token[1])]
        total = total + factor
    return total


class PlaneWaveCheck:
    """Symbolic remainders of the three plane-wave commutation identities.

    Each remainder is formed on first access, so ``momentum_remainders``
    costs the four ``[p_mu, A]`` normal forms and ``centrality_remainders``
    adds only its sweep over the generators.  The identities are exact; an
    ``order`` truncates each normal form to that l-degree.
    """

    def __init__(self, eps5: int, order: int | None = None):
        self.eps5 = eps5
        self.order = order
        self._exponent = plane_wave_exponent()

    def _normal_commutator(self, a: NCExpression, b: NCExpression) -> NCExpression:
        return normal_form(_bracket_expansion(a, b, self.eps5), self.eps5, order=self.order)

    @cached_property
    def _momentum_commutators(self) -> list:
        return [self._normal_commutator(NCExpression.gen(f"p{mu}"), self._exponent)
                for mu in range(4)]

    @cached_property
    def momentum_remainders(self) -> list:
        """(i) [p_mu, A] - k_mu for mu = 0..3"""
        return [comm - NCExpression.unit(k_mu)
                for k_mu, comm in zip(lower(MOMENTUM_SYMBOLS), self._momentum_commutators)]

    @cached_property
    def centrality_remainders(self) -> list:
        """(mu, token, [[p_mu, A], X]) for each generator X it fails to commute with"""
        out = []
        for mu, comm in enumerate(self._momentum_commutators):
            for token in TOKENS:
                c2 = self._normal_commutator(comm, NCExpression._made({(token,): P_ONE}))
                if not c2.is_zero():
                    out.append((mu, token, c2))
        return out

    @cached_property
    def _derivative(self) -> NCExpression:
        return Derivation(self.eps5, 4)(self._exponent, order=self.order)

    @cached_property
    def derivative_remainder(self) -> NCExpression:
        """(ii) d_4(A) - i eps5 l k.p"""
        return self._derivative - momentum_dot(I * self.eps5 * sym("l"))

    @cached_property
    def _mixed_commutator(self) -> NCExpression:
        return self._normal_commutator(self._exponent, self._derivative)

    @cached_property
    def mixed_remainder(self) -> NCExpression:
        """(iii) [A, d_4(A)] + i eps5 l k^2"""
        return self._mixed_commutator + NCExpression.unit(
            I * self.eps5 * sym("l") * minkowski_square(MOMENTUM_SYMBOLS))

    @cached_property
    def vacuum_scalar(self) -> ParamPoly:
        """dA + (1/2)[A, dA] with p_mu -> k_mu, the scalar acting on the
        vacuum through the exponential: i eps5 l k^2 / 2"""
        half = ParamPoly.from_scalar(_HALF)
        return project_vacuum(self._derivative + self._mixed_commutator.scale(half))

    def all_remainders(self):
        rems = list(self.momentum_remainders)
        rems.append(self.derivative_remainder)
        rems.append(self.mixed_remainder)
        return rems


def verify_plane_wave_relations(eps5: int, order: int | None = None) -> PlaneWaveCheck:
    return PlaneWaveCheck(eps5, order)


def lemma_matrix_check(eps5: int, ell_value=Fraction(1, 10), k=(1, 0, 0, 0)) -> dict:
    """Exact check of the central-commutator exponential lemma on a model.

    The lemma: if [p, A] and [A, dA] are central then [p, e^A] = [p, A] e^A
    and d(e^A) = (dA + (1/2)[A, dA]) e^A.  The model meets the hypotheses
    on polynomials of degree <= 12, held as coefficient lists: A = d/dx,
    p_mu = -k_mu x (so [p_mu, A] = k_mu) and dA = c x with
    c = -i eps5 l k^2 (so [A, dA] = c).  A is nilpotent there, so the full
    series to order 12 is e^A itself (its terms stop once A^n f = 0), and
    on v = 1 + x/2 + x^2/3 + x^3/4 no operator reaches the degree bound:
    each residual, the largest |re| + |im| over the coefficients of
    lhs - rhs, is exactly 0.  ``l`` and ``k`` are exact rationals; a float
    raises TypeError.
    """
    if eps5 not in (1, -1):
        raise ValueError("eps5 must be +1 or -1")
    ell = as_fraction(ell_value)
    k = [ExactScalar(as_fraction(c)) for c in k]
    k_low = lower(k)
    ksq = minkowski_square(k)
    c = ExactScalar(0, -eps5 * ell) * ksq

    # a polynomial of degree <= 12 is its coefficient list, lowest degree
    # first, with no trailing zeros
    def comb(*terms):  # sum of scalar * polynomial, one reduction per coefficient
        out = [_sum_of_products((a, f[n]) for a, f in terms if n < len(f)) or ZERO
               for n in range(max((len(f) for _, f in terms), default=0))]
        while out and not out[-1]:
            out.pop()
        return out

    def d_dx(f):  # A
        return [n * f[n] for n in range(1, len(f))]

    def x_times(f):
        if len(f) == _LEMMA_DIM:
            raise ValueError("the model leaves degree 12")
        return [ZERO] + f if f else f

    def exp_a(f):  # sum_n A^n f / n!, to n = 12 at most, until A^n f = 0
        terms = []
        while f:
            terms.append((ONE / math.factorial(len(terms)), f))
            f = d_dx(f)
        return comb(*terms)

    def residual(lhs, *rhs):  # lhs - sum of the rhs terms
        diff = comb((ONE, lhs), *((-a, f) for a, f in rhs))
        return max((abs(x.re) + abs(x.im) for x in diff), default=Fraction(0))

    v = [ExactScalar(Fraction(1, n)) for n in range(1, 5)]
    ev, e_xv = exp_a(v), exp_a(x_times(v))
    # [p_mu, e^A] v = k_mu e^A v with p_mu = -k_mu x
    residuals = {"momentum_commutator": max(
        residual(comb((-k_mu, x_times(ev))), (-k_mu, e_xv), (k_mu, ev)) for k_mu in k_low)}
    # d(e^A) v = sum_n (1/n!) sum_j A^j dA A^(n-1-j) v with dA = c x
    terms, power = [], v
    for m in range(1, _LEMMA_DIM):  # power = A^(m-1) v
        term, weight = comb((c, x_times(power))), ONE / math.factorial(m)
        for n in range(m, _LEMMA_DIM):  # term = A^(n-m) dA A^(m-1) v
            if not term:
                break
            terms.append((weight, term))
            term, weight = d_dx(term), weight / (n + 1)
        power = d_dx(power)
    de_v = comb(*terms)
    residuals["derivative_lemma"] = residual(de_v, (c, x_times(ev)), (c / 2, ev))
    # the same as the plane-wave relation d(e^A) = -i eps5 l (-k.p + k^2/2) e^A
    scale = ExactScalar(0, -eps5 * ell)
    residuals["plane_wave_derivative"] = residual(
        de_v, *((-scale * k_mu, comb((-low, x_times(ev)))) for k_mu, low in zip(k, k_low)),
        (scale * ksq / 2, ev))
    return residuals
