"""Word algebra over {M_munu, p_mu, x_mu, C, Cinv} with exact normal ordering.

Elements are finite sums  coeff * word  where words are tuples of generator
tokens and coefficients are ParamPoly.  Normal order puts rotations first,
then momenta, then coordinates, then C and its formal inverse:

    M01 < ... < M23 < p0 < ... < p3 < x0 < ... < x3 < C < Cinv

Momenta precede coordinates so that vacuum rules (p acting rightward on a
p-annihilated state) read off the trailing letters directly.

The rewriting rules b a -> a b + [b, a] are not written here: they are read
from the flat (rho = 0) table of ``lie_algebra.flat_deformed_algebra``,
whose basis lines up position by position with the first 15 tokens.  The
only local rule is the one for Cinv, a formal generator subject to
C*Cinv = Cinv*C = 1; its commutators follow from [x_mu, C] = i eps5 l^2 p_mu,
giving the exact rule

    Cinv x_mu = x_mu Cinv + i eps5 l^2 p_mu Cinv Cinv.

Every rewrite strictly decreases (#x letters, word length, #inversions)
lexicographically, so reduction terminates; the relations are consistent
(they close on the flat deformed table), so the normal form is unique.
Because the inverse relations are exact, nothing is ever dropped: the
declared truncation order only bounds the l-degree kept in coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property

from ._numpy import np
from .scalars import (
    ExactScalar,
    P_I,
    P_ONE,
    ParamPoly,
    TruncationOrderError,
    poly,
    sym,
)
from .lie_algebra import eta4, flat_deformed_algebra

_HALF = ExactScalar(Fraction(1, 2))

M_TOKENS = ("M01", "M02", "M03", "M12", "M13", "M23")
P_TOKENS = ("p0", "p1", "p2", "p3")
X_TOKENS = ("x0", "x1", "x2", "x3")
C_TOKEN = "C"
CINV_TOKEN = "Cinv"
TOKENS = M_TOKENS + P_TOKENS + X_TOKENS + (C_TOKEN, CINV_TOKEN)
_RANK = {t: i for i, t in enumerate(TOKENS)}

I = P_I


class NCExpression:
    """Linear combination of generator words with ParamPoly coefficients."""

    __slots__ = ("words",)

    def __init__(self, words=None):
        clean = {}
        if words:
            for word, coeff in words.items():
                coeff = poly(coeff)
                if coeff.is_zero():
                    continue
                word = tuple(word)
                prev = clean.get(word)
                total = coeff if prev is None else prev + coeff
                if total.is_zero():
                    clean.pop(word, None)
                else:
                    clean[word] = total
        self.words = clean

    # -- constructors -----------------------------------------------------

    @staticmethod
    def unit(coeff=1) -> "NCExpression":
        return NCExpression({(): poly(coeff)})

    @staticmethod
    def gen(token: str, coeff=1) -> "NCExpression":
        if token not in _RANK:
            raise ValueError(f"unknown generator {token!r}")
        return NCExpression({(token,): poly(coeff)})

    # -- linear and multiplicative structure --------------------------------

    def __add__(self, other) -> "NCExpression":
        other = _coerce_nc(other)
        out = dict(self.words)
        for word, coeff in other.words.items():
            prev = out.get(word)
            total = coeff if prev is None else prev + coeff
            if total.is_zero():
                out.pop(word, None)
            else:
                out[word] = total
        made = NCExpression.__new__(NCExpression)
        made.words = out
        return made

    __radd__ = __add__

    def __sub__(self, other) -> "NCExpression":
        return self + (-_coerce_nc(other))

    def __rsub__(self, other) -> "NCExpression":
        return _coerce_nc(other) + (-self)

    def __neg__(self) -> "NCExpression":
        made = NCExpression.__new__(NCExpression)
        made.words = {w: -c for w, c in self.words.items()}
        return made

    def scale(self, factor) -> "NCExpression":
        f = poly(factor)
        made = NCExpression.__new__(NCExpression)
        made.words = {}
        for word, coeff in self.words.items():
            c = f * coeff
            if not c.is_zero():
                made.words[word] = c
        return made

    def __mul__(self, other) -> "NCExpression":
        if isinstance(other, (int, ParamPoly)):
            return self.scale(other)
        other = _coerce_nc(other)
        acc: dict = {}
        for wa, ca in self.words.items():
            for wb, cb in other.words.items():
                word = wa + wb
                c = ca * cb
                prev = acc.get(word)
                total = c if prev is None else prev + c
                if total.is_zero():
                    acc.pop(word, None)
                else:
                    acc[word] = total
        made = NCExpression.__new__(NCExpression)
        made.words = acc
        return made

    def __rmul__(self, other) -> "NCExpression":
        if isinstance(other, (int, ParamPoly)):
            return self.scale(other)
        return _coerce_nc(other) * self

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.words

    def has_inverse(self) -> bool:
        return any(CINV_TOKEN in w for w in self.words)

    def conjugate(self) -> "NCExpression":
        """Formal adjoint: reverse words, conjugate coefficients.

        All generators are self-conjugate, so a word conjugates to its
        reversal and i goes to -i in the coefficients.
        """
        made = NCExpression.__new__(NCExpression)
        made.words = {tuple(reversed(w)): c.conjugate() for w, c in self.words.items()}
        return made

    def min_ell_degree(self):
        """Smallest l-degree over all coefficients; None if zero."""
        degrees = [c.min_degree_in("l") for c in self.words.values()]
        return min(degrees) if degrees else None

    def substitute(self, bindings) -> "NCExpression":
        return NCExpression({w: c.substitute(bindings) for w, c in self.words.items()})

    def __eq__(self, other) -> bool:
        other = _coerce_nc(other)
        return self.words == other.words

    def __hash__(self):
        return hash(frozenset(self.words.items()))

    def __str__(self) -> str:
        if not self.words:
            return "0"
        parts = []
        for word, coeff in sorted(self.words.items(), key=lambda kv: (len(kv[0]), kv[0])):
            body = "*".join(word) if word else "1"
            parts.append(f"({coeff})*{body}")
        return " + ".join(parts)

    __repr__ = __str__


def _coerce_nc(value) -> NCExpression:
    if isinstance(value, NCExpression):
        return value
    if isinstance(value, (int, ParamPoly)):
        return NCExpression.unit(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to NCExpression")


@cache
def _flat_table(eps5: int):
    """The flat deformed table; its basis index k is the token TOKENS[k]."""
    return flat_deformed_algebra(eps5)


def _bracket(eps5: int, i: int, j: int) -> NCExpression:
    """[TOKENS[i], TOKENS[j]] from the flat table."""
    combo = _flat_table(eps5).bracket(i, j)
    return NCExpression({(TOKENS[k],): c for k, c in combo.items()})


@cache
def _swap_rules(eps5: int) -> dict:
    """(a, b) -> [a, b] for every pair with rank(a) > rank(b) whose bracket
    is nonzero; a pair missing here commutes."""
    rules = {}
    for i in range(_flat_table(eps5).dim()):
        for j in range(i):
            rule = _bracket(eps5, i, j)
            if not rule.is_zero():
                rules[(TOKENS[i], TOKENS[j])] = rule
    ell2 = sym("l", 2)
    for p, x in zip(P_TOKENS, X_TOKENS):
        rules[(CINV_TOKEN, x)] = NCExpression(
            {(p, CINV_TOKEN, CINV_TOKEN): I * eps5 * ell2}
        )
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


_NF_MEMO: dict = {}
_EMPTY = NCExpression()


def _nf_word(eps5: int, word: tuple, leftmost: bool) -> NCExpression:
    key = (eps5, leftmost, word)
    cached = _NF_MEMO.get(key)
    if cached is not None:
        return cached
    pos = _find_redex(word, leftmost)
    if pos is None:
        result = NCExpression({word: P_ONE})
    else:
        a, b = word[pos], word[pos + 1]
        head, tail = word[:pos], word[pos + 2:]
        if {a, b} == {C_TOKEN, CINV_TOKEN}:
            result = _nf_word(eps5, head + tail, leftmost)
        else:
            result = _nf_word(eps5, head + (b, a) + tail, leftmost)
            rule = _swap_rules(eps5).get((a, b), _EMPTY)
            for corr_word, coeff in rule.words.items():
                sub = _nf_word(eps5, head + corr_word + tail, leftmost)
                result = result + sub.scale(coeff)
    _NF_MEMO[key] = result
    return result


def normal_form(expr: NCExpression, eps5: int, order: int | None = None,
                leftmost: bool = True) -> NCExpression:
    """Unique normal form of an expression under the flat deformed relations.

    Expressions containing the formal inverse must declare a truncation
    order; coefficients are truncated to that l-degree in the result.  (The
    inverse relations are exact, so truncation only ever drops terms whose
    l-degree genuinely exceeds the declared order.)
    """
    if expr.has_inverse() and order is None:
        raise TruncationOrderError(
            "expression contains the formal inverse; declare a truncation order"
        )
    out = NCExpression()
    for word, coeff in expr.words.items():
        out = out + _nf_word(eps5, word, leftmost).scale(coeff)
    if order is not None:
        out = NCExpression({w: c.truncate_in("l", order) for w, c in out.words.items()})
    return out


def commutator(a: NCExpression, b: NCExpression) -> NCExpression:
    return a * b - b * a


def anticommutator(a: NCExpression, b: NCExpression) -> NCExpression:
    return a * b + b * a


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
            p_idx = TOKENS.index(P_TOKENS[index])
            for k in range(_flat_table(eps5).dim()):
                self.action[TOKENS[k]] = _bracket(eps5, p_idx, k).scale(-I)
        else:
            for mu in range(4):
                self.action[f"x{mu}"] = NCExpression(
                    {(f"p{mu}", C_TOKEN): -poly(eps5) * sym("l")}
                )

    def __call__(self, expr: NCExpression, order: int | None = None) -> NCExpression:
        out = NCExpression()
        for word, coeff in expr.words.items():
            for i, token in enumerate(word):
                hit = self.action[token]
                if hit.is_zero():
                    continue
                prefix = NCExpression({word[:i]: coeff})
                suffix = NCExpression({word[i + 1:]: P_ONE})
                out = out + prefix * hit * suffix
        return normal_form(out, self.eps5, order=order)


class PlaneWaveExponent:
    """Exponent A = -(i/2) k_nu {x^nu, Cinv} of the noncommutative plane wave.

    Momentum components are the symbols k0..k3 (upper index); because both
    the index of x and of k flip sign together under lowering, the
    contraction reads componentwise: A = -(i/2) sum_mu k^mu {x_mu, Cinv}.
    """

    def __init__(self, eps5: int, order: int = 4):
        if order < 1:
            raise TruncationOrderError("plane-wave truncation order must be >= 1")
        self.eps5 = eps5
        self.order = order
        words = {}
        for mu in range(4):
            # -(i/2) k^mu on each of the two anticommutator orderings
            half = poly(-1) * I * sym(f"k{mu}") * ParamPoly.from_scalar(_HALF)
            words[(f"x{mu}", CINV_TOKEN)] = half
            words[(CINV_TOKEN, f"x{mu}")] = half
        self.expression = NCExpression(words)


def k_lower(mu: int) -> ParamPoly:
    """k_mu = eta_munu k^nu over the momentum symbols."""
    return sym(f"k{mu}") * poly(eta4(mu, mu))


def k_squared() -> ParamPoly:
    return sum((k_lower(mu) * sym(f"k{mu}") for mu in range(4)), poly(0))


def momentum_dot(expr_scale=1) -> NCExpression:
    """k.p = sum_mu k^mu p_mu as an expression."""
    out = NCExpression()
    for mu in range(4):
        out = out + NCExpression.gen(f"p{mu}", sym(f"k{mu}") * poly(expr_scale))
    return out


def project_vacuum(expr: NCExpression) -> ParamPoly:
    """Scalar value of an expression of pure momentum words against a plane
    wave on the vacuum: each p_mu picks up k_mu when commuted through the
    exponential, and p annihilates the vacuum afterwards."""
    total = poly(0)
    for word, coeff in expr.words.items():
        factor = coeff
        for token in word:
            if token[0] != "p":
                raise ValueError(
                    "vacuum projection needs a normal form with momentum words only"
                )
            factor = factor * k_lower(int(token[1]))
        total = total + factor
    return total


class PlaneWaveCheck:
    """Symbolic remainders of the three plane-wave commutation identities.

    Each remainder is formed on first access, so ``momentum_remainders``
    costs the four ``[p_mu, A]`` normal forms and ``centrality_remainders``
    adds only its sweep over the generators.
    """

    def __init__(self, eps5: int, order: int = 4):
        self.eps5 = eps5
        self.order = order
        self._exponent = PlaneWaveExponent(eps5, order).expression

    def _normal_commutator(self, a: NCExpression, b: NCExpression) -> NCExpression:
        return normal_form(commutator(a, b), self.eps5, order=self.order)

    @cached_property
    def _momentum_commutators(self) -> list:
        return [self._normal_commutator(NCExpression.gen(f"p{mu}"), self._exponent)
                for mu in range(4)]

    @cached_property
    def momentum_remainders(self) -> list:
        """(i) [p_mu, A] - k_mu for mu = 0..3"""
        return [comm - NCExpression.unit(k_lower(mu))
                for mu, comm in enumerate(self._momentum_commutators)]

    @cached_property
    def centrality_remainders(self) -> list:
        """(mu, token, [[p_mu, A], X]) for each generator X it fails to commute with"""
        out = []
        for mu, comm in enumerate(self._momentum_commutators):
            for token in TOKENS:
                c2 = self._normal_commutator(comm, NCExpression.gen(token))
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
            I * self.eps5 * sym("l") * k_squared())

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

    def passes(self) -> bool:
        degree_ok = all(
            r.is_zero() or (r.min_ell_degree() or 0) >= self.order + 1
            for r in self.all_remainders()
        )
        return degree_ok and not self.centrality_remainders


def verify_plane_wave_relations(eps5: int, order: int = 4) -> PlaneWaveCheck:
    return PlaneWaveCheck(eps5, order)


def lemma_matrix_check(eps5: int, ell_value: float = 0.1,
                       k=(1.0, 0.0, 0.0, 0.0), series_order: int = 8) -> dict:
    """Numeric spot check of the central-commutator exponential lemma.

    The lemma: if [p, A] and [A, dA] are central then [p, e^A] = [p, A] e^A
    and d(e^A) = (dA + (1/2)[A, dA]) e^A.  Instantiate the hypotheses with
    the derivative and shift matrices on a truncated polynomial space (the
    canonical pair with a central commutator); on test vectors of low degree
    the order-8 exponential series is exact, so the conclusions must hold to
    float roundoff.  Returns the relative residuals.
    """
    if eps5 not in (1, -1):
        raise ValueError("eps5 must be +1 or -1")
    dim = 13  # degrees 0..12: high enough that no operator hits the edge
    D = np.zeros((dim, dim), dtype=complex)
    S = np.zeros((dim, dim), dtype=complex)
    for d in range(1, dim):
        D[d - 1, d] = d
        S[d, d - 1] = 1.0
    k = np.asarray(k, dtype=float)
    k_low = np.array([k[0], -k[1], -k[2], -k[3]])
    ksq = k[0] ** 2 - k[1] ** 2 - k[2] ** 2 - k[3] ** 2

    A = D
    p_ops = [-k_low[mu] * S for mu in range(4)]  # [p_mu, A] = k_mu * 1
    c = -1j * eps5 * ell_value * ksq            # target central [A, dA]
    dA = c * S

    # exponential series, order 8; exact on vectors of degree <= 3
    E = np.zeros_like(A)
    term = np.eye(dim, dtype=complex)
    E += term
    for n in range(1, series_order + 1):
        term = term @ A / n
        E += term

    v = np.zeros(dim, dtype=complex)
    v[:4] = [1.0, 1 / 2, 1 / 3, 1 / 4]
    Ev = E @ v
    scale = np.linalg.norm(Ev)

    residuals = {}
    worst_comm = 0.0
    for mu in range(4):
        lhs = p_ops[mu] @ Ev - E @ (p_ops[mu] @ v)
        rhs = k_low[mu] * Ev
        worst_comm = max(worst_comm, float(np.linalg.norm(lhs - rhs)) / scale)
    residuals["momentum_commutator"] = worst_comm

    # Leibniz expansion of d(e^A) against the lemma's collapsed form
    dE = np.zeros_like(A)
    for n in range(1, series_order + 1):
        inner = np.zeros_like(A)
        for j in range(n):
            inner += np.linalg.matrix_power(A, j) @ dA @ np.linalg.matrix_power(A, n - 1 - j)
        factor = 1.0
        for q in range(2, n + 1):
            factor /= q
        dE += factor * inner
    lemma_rhs = (dA + 0.5 * c * np.eye(dim)) @ E
    residuals["derivative_lemma"] = float(np.linalg.norm(dE @ v - lemma_rhs @ v)) / scale

    # same content written as the plane-wave derivative relation:
    # d(e^A) = -i eps5 l (-k.p + k^2/2) e^A with k.p modeled by the p matrices
    kp = sum(k[mu] * p_ops[mu] for mu in range(4))
    pw_rhs = (-1j * eps5 * ell_value) * (-kp + 0.5 * ksq * np.eye(dim)) @ E
    residuals["plane_wave_derivative"] = float(np.linalg.norm(dE @ v - pw_rhs @ v)) / scale
    return residuals
