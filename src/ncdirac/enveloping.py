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
for an l-truncation.  The derivation d_4 of the plane-wave identities is
inner, -(i/2l)[C^2, .], so it too is read off these rules.

``lemma_matrix_check`` verifies the exponential lemma behind the plane-wave
identities exactly on a nilpotent model, polynomials in one coordinate with
l and k symbolic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, cached_property

from .scalars import (MOMENTUM_SYMBOLS, ExactScalar, P_I, P_ONE, ParamPoly, _accumulate,
                      _int_terms, _join, _make, _packed_poly, _reduced_sums, poly, sym)
from .lie_algebra import flat_deformed_algebra, lower, minkowski_square, quarter
from .weyl import LinearCombination

_HALF = ExactScalar(Fraction(1, 2))
_MINUS_HALF_I = ExactScalar(0, Fraction(-1, 2))

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
    table, rules = flat_deformed_algebra(eps5), {}
    for j, i in table.pairs():  # i > j: [e_i, e_j] read off its integer terms
        rule = {}
        for q, mono, a, b, d in table.rows[i][j]:
            rule.setdefault((TOKENS[q],), {})[mono] = _make(a, b, d)
        rules[(TOKENS[i], TOKENS[j])] = {w: _packed_poly(t) for w, t in rule.items()}
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
    quarter(eps5)  # a bad eps5 raises
    acc: dict = {}
    for word, coeff in expr.terms.items():
        for w, c in _nf_word(eps5, word, leftmost).terms.items():
            _accumulate(acc, w, coeff * c)
    if order is not None:
        acc = {w: c for w, c in ((w, c.truncate_in("l", order)) for w, c in acc.items()) if c}
    return NCExpression._made(acc)


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


def _d4(expr: NCExpression, eps5: int, order: int | None = None) -> NCExpression:
    """d_4(expr) = -(i/2l)[C^2, expr], the inner derivation -i ad Y_4 with
    Y_4 = C^2/(2l), read off the rewriting rules by one exact normal form.
    Every term of [C^2, .] carries l^2, as [C, x_mu] = -i eps5 l^2 p_mu, so
    the division by l (the first symbol) is exact and a term without l
    raises; an ``order`` truncates after it."""
    square, acc = NCExpression({(C_TOKEN, C_TOKEN): 1}), {}
    for word, c in normal_form(_bracket_expansion(square, expr, eps5), eps5).terms.items():
        if not all(exps[0] for exps, _ in c.terms()):
            raise ValueError(f"[C^2, .] has a term without l at {word}: {c}")
        c = ParamPoly({(exps[0] - 1, *exps[1:]): v * _MINUS_HALF_I for exps, v in c.terms()})
        if order is not None:
            c = c.truncate_in("l", order)
        if c:
            acc[word] = c
    return NCExpression._made(acc)


def plane_wave_scale(eps5: int) -> ParamPoly:
    """i eps5 l, the scale of the plane-wave identities d_4(A) = i eps5 l k.p
    and [A, d_4(A)] = -i eps5 l k^2: i l at eps5 = +1, and at eps5 = -1 i
    times its image under l -> i l.  It is the one turned datum here: d_4
    comes from the rules, which the table at -1 already carries."""
    turns = quarter(eps5)
    return (I * sym("l")).twist({"l": turns}, turns)


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
    adds only its sweep over the generators; a bad eps5 raises at once.
    The identities are exact; an ``order`` truncates each normal form to
    that l-degree.
    """

    def __init__(self, eps5: int, order: int | None = None):
        self._scale = plane_wave_scale(eps5)
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
        return _d4(self._exponent, self.eps5, self.order)

    @cached_property
    def derivative_remainder(self) -> NCExpression:
        """(ii) d_4(A) - i eps5 l k.p"""
        return self._derivative - momentum_dot(self._scale)

    @cached_property
    def _mixed_commutator(self) -> NCExpression:
        return self._normal_commutator(self._exponent, self._derivative)

    @cached_property
    def _central_scalar(self) -> ParamPoly:
        """i eps5 l k^2, the central value -[A, d_4(A)]"""
        return self._scale * minkowski_square(MOMENTUM_SYMBOLS)

    @cached_property
    def mixed_remainder(self) -> NCExpression:
        """(iii) [A, d_4(A)] + i eps5 l k^2"""
        return self._mixed_commutator + NCExpression.unit(self._central_scalar)

    @cached_property
    def vacuum_scalar(self) -> ParamPoly:
        """dA + (1/2)[A, dA] with p_mu -> k_mu, the scalar acting on the
        vacuum through the exponential: i eps5 l k^2 / 2"""
        half = ParamPoly.from_scalar(_HALF)
        return project_vacuum(self._derivative + self._mixed_commutator.scale(half))

    @cached_property
    def vacuum_remainder(self) -> ParamPoly:
        """(iv) the vacuum scalar - i eps5 l k^2 / 2"""
        return self.vacuum_scalar - self._central_scalar * poly(_HALF)

    def all_remainders(self):
        rems = list(self.momentum_remainders)
        rems.append(self.derivative_remainder)
        rems.append(self.mixed_remainder)
        return rems


def verify_plane_wave_relations(eps5: int, order: int | None = None) -> PlaneWaveCheck:
    return PlaneWaveCheck(eps5, order)


def lemma_matrix_check(eps5: int) -> dict:
    """Exact check of the central-commutator exponential lemma on a model.

    The lemma: if [p, A] and [A, dA] are central then [p, e^A] = [p, A] e^A
    and d(e^A) = (dA + (1/2)[A, dA]) e^A.  The model acts on polynomials in
    one coordinate x, lists of (numerator, denominator) int pairs with x^n
    at index n, and l and k0..k3 enter as ParamPoly weights: A = d/dx,
    p_mu = -k_mu x (so [p_mu, A] = k_mu) and dA = c x with c = -i eps5 l k^2
    (so [A, dA] = c).  A lowers the degree, so e^A f is the finite sum of
    A^n f / n!.  On v = 1 + x/2 + x^2/3 + x^3/4 each residual, the largest
    |re| + |im| over the coefficients of lhs - rhs, is exactly 0; lhs - rhs
    is summed once.  ``derivative_lemma`` takes [A, dA] from the model;
    ``plane_wave_derivative`` takes dA = i eps5 l k.p and
    [A, dA] = -i eps5 l k^2 from the plane-wave identities.
    """
    scale = plane_wave_scale(eps5)  # a bad eps5 raises here
    k_low = lower(MOMENTUM_SYMBOLS)
    ksq = minkowski_square(MOMENTUM_SYMBOLS)
    c, half, x = -scale * ksq, poly(_HALF), [(0, 1)]  # x + f is x f

    def a(f):
        return [(n * p, q) for n, (p, q) in enumerate(f)][1:]

    def series(f, n=0, out=()):  # out + sum over j of A^j f / (n + j)!
        out = [*out, *[(0, 1)] * (len(f) - len(out))]  # x^m: f_m+j (m+j)!/(m! (n+j)!)
        for m in range(len(f)):
            p, q = out[m]
            for j, (fp, fq) in enumerate(f[m:]):
                w = math.perm(n + j, n)
                p, q = p * fq * w + fp * math.comb(m + j, m) * q, q * fq * w
            out[m] = (p, q)
        return out

    def residual(*terms):  # of the sum of w f over the (weight, coefficients) terms
        sums = {}
        for w, f in terms:
            row = [(0, *term) for term in _int_terms(w)]
            for m, (p, q) in enumerate(f):
                if p:
                    _join(sums, m, 0, p, 0, q, row)
        return max((abs(z.re) + abs(z.im) for combo in _reduced_sums(sums).values()
                    for _, z in combo[0].terms()), default=Fraction(0))

    v = [(1, n + 1) for n in range(4)]
    ev, e_xv = series(v), series(x + v)
    # [p_mu, e^A] v = k_mu e^A v with p_mu = -k_mu x
    residuals = {"momentum_commutator": max(
        residual((-k_mu, x + ev), (k_mu, e_xv), (-k_mu, ev)) for k_mu in k_low)}
    # d(e^A) v = sum over n of (1/n!) sum over i + j = n - 1 of A^j dA A^i v
    de_v, power, n = [], v, 1
    while power:
        de_v, power, n = series(x + power, n, de_v), a(power), n + 1
    residuals["derivative_lemma"] = residual(
        (c, de_v), (-c, x + ev), (-c * half, a(x + ev)), (c * half, x + a(ev)))
    residuals["plane_wave_derivative"] = residual(
        (c, de_v), *((scale * k_up * k_mu, x + ev) for k_up, k_mu in zip(MOMENTUM_SYMBOLS, k_low)),
        (scale * ksq * half, ev))
    return residuals
