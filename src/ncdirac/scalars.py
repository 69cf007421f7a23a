"""Exact coefficient arithmetic for every symbolic computation in the package.

Two layers, both on plain Python ints:

* ``ExactScalar``: a Gaussian rational (a + b*i)/d stored as three ints in
  canonical form (``d > 0``, ``gcd(a, b, d) == 1``); ``.re`` and ``.im``
  are ``Fraction`` views.
* ``ParamPoly``: a polynomial in the fixed parameter alphabet ``SYMBOLS``
  with ExactScalar coefficients and no stored zero terms.  Each monomial is
  one packed int with a bit field per symbol, so a monomial product is one
  integer addition; powers above ``MAX_DEGREE`` raise ``DegreeBoundError``.
  The public API still speaks exponent tuples.

``LinearCombination``, a sum of keys with ParamPoly coefficients, is shared
by ``enveloping`` words and ``weyl`` operators.

Negative powers of ``l`` are never stored.  Where a rest mass 2/l is needed,
equations are cleared of denominators or the dedicated symbol ``m`` is used.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, isqrt
from numbers import Integral
from typing import Iterable, Mapping, Union

# Fixed parameter alphabet.  Order matters: monomial exponent vectors are
# tuples aligned with this list, and term ordering is lexicographic on them.
#   l    length deformation parameter
#   rho  curvature parameter 1/R^2
#   r    1/R, with rho = r^2 (needed by the isomorphism scaling map)
#   m    rest-mass symbol with the side relation m*l = 2 where used
#   k0..k3  plane-wave momentum components (upper index)
#   mu   coupling scale |g|*vev
#   v    scalar field expectation value
SYMBOLS = ("l", "rho", "r", "m", "k0", "k1", "k2", "k3", "mu", "v")
_SYMBOL_INDEX = {name: i for i, name in enumerate(SYMBOLS)}
_NSYM = len(SYMBOLS)

# Packed monomials: an exponent tuple is stored as one int with a fixed
# _FIELD_BITS-wide field per symbol, symbol 0 in the highest field, so
# integer order is the lexicographic order of exponent tuples.  The top bit
# of each field is a guard that no stored monomial sets.  Multiplying two
# monomials is then one integer addition, and a symbol's power overflows
# exactly when the sum sets that symbol's guard bit; no carry can reach the
# next field.
_FIELD_BITS = 8  # _pack's fast path reads one byte per field
MAX_DEGREE = (1 << (_FIELD_BITS - 1)) - 1
_SHIFTS = tuple(_FIELD_BITS * (_NSYM - 1 - i) for i in range(_NSYM))
_GUARDS = sum((MAX_DEGREE + 1) << shift for shift in _SHIFTS)


class UnknownSymbolError(ValueError):
    """Raised for a symbol name outside the fixed alphabet."""


class SubstitutionError(ValueError):
    """Raised for an inconsistent substitution request."""


class TruncationOrderError(ValueError):
    """Raised when a required truncation order is missing or invalid."""


class DegreeBoundError(ValueError):
    """Raised when a power of one symbol would exceed MAX_DEGREE."""


def as_fraction(value) -> Fraction:
    """The exact rational value of an int, Fraction, str or real ExactScalar.

    Floats are rejected rather than silently embedded as dyadic rationals.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    if isinstance(value, ExactScalar):
        return value.to_fraction()
    if isinstance(value, Integral):  # numpy integers, say
        return Fraction(operator.index(value))
    raise _inexact(value, "rational")


def _inexact(value, kind: str) -> TypeError:
    return TypeError(
        f"expected an exact {kind}, got {type(value).__name__}; "
        "convert floats explicitly to a Fraction or with ExactScalar.parse"
    )


_new = object.__new__


class ExactScalar:
    """Gaussian rational (a + b*i)/d held as three ints.

    The form is canonical: ``d > 0`` and ``gcd(a, b, d) == 1``, so zero is
    ``(0, 0, 1)`` and equal values have equal fields.  Instances are
    immutable by convention: the fields are private and nothing sets them
    after construction.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        re = as_fraction(re)
        im = as_fraction(im)
        q, s = re.denominator, im.denominator
        d = q * s // gcd(q, s)
        # both parts are in lowest terms, so gcd(a, b, d) is already 1
        self._a = re.numerator * (d // q)
        self._b = im.numerator * (d // s)
        self._d = d

    # -- constructors -------------------------------------------------

    @staticmethod
    def i() -> "ExactScalar":
        return _make(0, 1, 1)

    @staticmethod
    def parse(text: str) -> "ExactScalar":
        """Parse "p/q", "0.25", "1e-3", "p/q+r/si" or "a-bi" ("i" or "j" suffix)."""
        s = text.strip().replace(" ", "").replace("j", "i")
        if not s:
            raise ValueError("empty scalar literal")
        if s.endswith("i"):
            body = s[:-1]
            # split real and imaginary at the last +/- that is not leading,
            # not doubled and not the sign of an exponent
            for pos in range(len(body) - 1, 0, -1):
                if body[pos] in "+-" and body[pos - 1] not in "+-/eE":
                    re_part, im_part = body[:pos], body[pos:]
                    break
            else:
                re_part, im_part = "0", body
            if im_part in ("", "+"):
                im_part = "1"
            elif im_part == "-":
                im_part = "-1"
            return ExactScalar(Fraction(re_part), Fraction(im_part))
        return ExactScalar(Fraction(s))

    # -- components ------------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "ExactScalar":
        if type(other) is not ExactScalar:
            other = _coerce_scalar(other)
        d = self._d
        od = other._d
        if d == od:
            a = self._a + other._a
            b = self._b + other._b
            if d == 1:
                return _make(a, b, 1)
        else:
            a = self._a * od + other._a * d
            b = self._b * od + other._b * d
            d *= od
        return _reduced(a, b, d)

    __radd__ = __add__

    def __sub__(self, other) -> "ExactScalar":
        return self + -_coerce_scalar(other)

    def __rsub__(self, other) -> "ExactScalar":
        return _coerce_scalar(other) - self

    def __neg__(self) -> "ExactScalar":
        return _make(-self._a, -self._b, self._d)

    def __mul__(self, other) -> "ExactScalar":
        if type(other) is not ExactScalar:
            other = _coerce_scalar(other)
        a, b, d = self._a, self._b, self._d
        oa, ob, od = other._a, other._b, other._d
        if not b and not ob:
            a *= oa
            d *= od
            g = gcd(a, d)
            if g == 1:
                return _make(a, 0, d)
            return _make(a // g, 0, d // g)
        return _reduced(a * oa - b * ob, a * ob + b * oa, d * od)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ExactScalar":
        if type(other) is not ExactScalar:
            other = _coerce_scalar(other)
        oa, ob, od = other._a, other._b, other._d
        norm = oa * oa + ob * ob
        if not norm:
            raise ZeroDivisionError("division by zero ExactScalar")
        a, b = self._a, self._b
        # (a + b i)/d / ((oa + ob i)/od) = (a + b i)(oa - ob i) od / (d |o|^2)
        return _reduced(
            (a * oa + b * ob) * od, (b * oa - a * ob) * od, self._d * norm
        )

    def __rtruediv__(self, other) -> "ExactScalar":
        return _coerce_scalar(other) / self

    def __pow__(self, n: int) -> "ExactScalar":
        if not isinstance(n, int):
            raise TypeError("ExactScalar powers must be integers")
        if n < 0:
            return ONE / self ** (-n)
        out = ONE
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- queries -------------------------------------------------------

    def conjugate(self) -> "ExactScalar":
        return _make(self._a, -self._b, self._d)

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def to_fraction(self) -> Fraction:
        if self._b:
            raise ValueError(f"{self} has a nonzero imaginary part")
        return Fraction(self._a, self._d)

    def __complex__(self) -> complex:
        return complex(self._a / self._d, self._b / self._d)

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __eq__(self, other):
        """Equal by value to an ExactScalar, int or Fraction; floats are not
        compared."""
        if type(other) is ExactScalar:
            return (
                self._a == other._a and self._b == other._b and self._d == other._d
            )
        if isinstance(other, int):
            return not self._b and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return (
                not self._b
                and self._a == other.numerator
                and self._d == other.denominator
            )
        return NotImplemented

    def __hash__(self):
        # a real value hashes like the int or Fraction it equals
        if self._b:
            return hash((self._a, self._b, self._d))
        if self._d == 1:
            return hash(self._a)
        return hash(Fraction(self._a, self._d))

    def __str__(self) -> str:
        re = self.re
        if not self._b:
            return str(re)
        im = f"{self.im}i"
        if not self._a:
            return im
        sign = "+" if self._b > 0 else ""
        return f"{re}{sign}{im}"

    __repr__ = __str__


def _make(a: int, b: int, d: int) -> ExactScalar:
    """ExactScalar from fields already in canonical form; no checks."""
    out = _new(ExactScalar)
    out._a = a
    out._b = b
    out._d = d
    return out


def _reduced(a: int, b: int, d: int) -> ExactScalar:
    """ExactScalar (a + b*i)/d for any d > 0, brought to canonical form."""
    g = gcd(a, b, d)
    if g == 1:
        return _make(a, b, d)
    return _make(a // g, b // g, d // g)


def _coerce_scalar(value) -> ExactScalar:
    if type(value) is ExactScalar:
        return value
    if isinstance(value, int):
        return _make(value, 0, 1)
    if isinstance(value, Fraction):
        return _make(value.numerator, 0, value.denominator)
    if isinstance(value, Integral):  # numpy integers, say
        return _make(operator.index(value), 0, 1)
    if isinstance(value, (float, complex)):
        raise _inexact(value, "number")
    raise TypeError(f"cannot coerce {type(value).__name__} to ExactScalar")


ZERO = _make(0, 0, 1)
ONE = _make(1, 0, 1)
I = _make(0, 1, 1)


class QuadraticScalar:
    """a + b*sqrt(delta): ExactScalar parts a, b and a positive rational
    delta that is not a square (``exact_sqrt`` makes the first one).

    sqrt(delta) is then real and outside Q(i), so the element is zero
    exactly when a = b = 0, the inverse goes through the conjugate
    a - b*sqrt(delta) with the nonzero norm a^2 - b^2 delta, and complex
    conjugation acts on the parts only.  Exact numbers combine as b = 0;
    both operands of a binary operation share delta."""

    __slots__ = ("a", "b", "delta")

    def __init__(self, a, b, delta: Fraction):
        self.a, self.b, self.delta = _coerce_scalar(a), _coerce_scalar(b), delta

    def _parts(self, other) -> tuple:
        if type(other) is not QuadraticScalar:
            return _coerce_scalar(other), ZERO
        if other.delta is not self.delta and other.delta != self.delta:
            raise ValueError("operands lie in different quadratic fields")
        return other.a, other.b

    def __add__(self, other) -> "QuadraticScalar":
        a, b = self._parts(other)
        return QuadraticScalar(self.a + a, self.b + b, self.delta)

    __radd__ = __add__

    def __neg__(self) -> "QuadraticScalar":
        return QuadraticScalar(-self.a, -self.b, self.delta)

    def __sub__(self, other) -> "QuadraticScalar":
        return self + -other

    def __rsub__(self, other) -> "QuadraticScalar":
        return -self + other

    def __mul__(self, other) -> "QuadraticScalar":
        a, b = self._parts(other)
        if not b:
            return QuadraticScalar(self.a * a, self.b * a, self.delta)
        return QuadraticScalar(self.a * a + self.b * b * self.delta,
                               self.a * b + self.b * a, self.delta)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QuadraticScalar":
        a, b = self._parts(other)
        norm = a * a - b * b * self.delta
        return self * QuadraticScalar(a / norm, -b / norm, self.delta)

    def conjugate(self) -> "QuadraticScalar":
        return QuadraticScalar(self.a.conjugate(), self.b.conjugate(), self.delta)

    def __bool__(self) -> bool:
        return bool(self.a or self.b)


def exact_sqrt(q: Fraction):
    """sqrt(q) of a rational q >= 0: an ExactScalar when q is a rational
    square, the QuadraticScalar sqrt(q) otherwise."""
    n, d = isqrt(q.numerator), isqrt(q.denominator)
    if n * n == q.numerator and d * d == q.denominator:
        return _make(n, 0, d)
    return QuadraticScalar(ZERO, ONE, q)

ScalarLike = Union[int, Fraction, ExactScalar]
PolyLike = Union[int, Fraction, ExactScalar, "ParamPoly"]


class ParamPoly:
    """Polynomial over SYMBOLS with ExactScalar coefficients.

    Terms are a dict mapping packed monomials (see ``_pack``) to nonzero
    coefficients.  Construction normalizes, so every instance is already
    canonical.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple, ExactScalar] | None = None):
        """`terms` maps exponent tuples aligned with SYMBOLS to scalars."""
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                key = _pack(exps)
                coeff = _coerce_scalar(coeff)
                if not coeff.is_zero():
                    prev = clean.get(key)
                    total = coeff if prev is None else prev + coeff
                    if total.is_zero():
                        clean.pop(key, None)
                    else:
                        clean[key] = total
        self._terms = clean

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_scalar(value: ScalarLike) -> "ParamPoly":
        value = _coerce_scalar(value)
        if value.is_zero():
            return ParamPoly()
        return _packed_poly({0: value})

    @staticmethod
    def symbol(name: str, power: int = 1) -> "ParamPoly":
        if name not in _SYMBOL_INDEX:
            raise UnknownSymbolError(f"unknown symbol {name!r}; alphabet is {SYMBOLS}")
        if power < 0:
            raise ValueError("negative symbol powers are not stored")
        exps = [0] * _NSYM
        exps[_SYMBOL_INDEX[name]] = power
        return ParamPoly({tuple(exps): ONE})

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other) -> "ParamPoly":
        other = poly(other)
        # instances are immutable, so a zero operand hands back the other
        # (and a zero factor gives the shared P_ZERO) with no copy
        if not other._terms:
            return self
        if not self._terms:
            return other
        terms = dict(self._terms)
        for key, coeff in other._terms.items():
            prev = terms.get(key)
            total = coeff if prev is None else prev + coeff
            if total.is_zero():
                terms.pop(key, None)
            else:
                terms[key] = total
        return _packed_poly(terms)

    __radd__ = __add__

    def __sub__(self, other) -> "ParamPoly":
        return self + (-poly(other))

    def __rsub__(self, other) -> "ParamPoly":
        return poly(other) + (-self)

    def __neg__(self) -> "ParamPoly":
        return _packed_poly({k: -c for k, c in self._terms.items()})

    def __mul__(self, other) -> "ParamPoly":
        other = poly(other)
        if not self._terms or not other._terms:
            return P_ZERO
        terms: dict = {}
        get = terms.get
        for ka, ca in self._terms.items():
            for kb, cb in other._terms.items():
                key = ka + kb
                if key & _GUARDS:
                    raise _degree_overflow(ka, kb)
                c = ca * cb
                prev = get(key)
                if prev is not None:
                    c = prev + c
                    if c.is_zero():
                        del terms[key]
                        continue
                terms[key] = c
        return _packed_poly(terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ParamPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("ParamPoly powers must be nonnegative integers")
        out = P_ONE
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_scalar(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and 0 in self._terms)

    def constant_term(self) -> ExactScalar:
        return self._terms.get(0, ZERO)

    def to_scalar(self) -> ExactScalar:
        if not self.is_scalar():
            raise ValueError(f"{self} is not a constant")
        return self.constant_term()

    def terms(self) -> Iterable[tuple[tuple, ExactScalar]]:
        """Terms in canonical order: lexicographic on the exponent vector."""
        return [(_unpack(k), c) for k, c in sorted(self._terms.items())]

    def conjugate(self) -> "ParamPoly":
        return _packed_poly({k: c.conjugate() for k, c in self._terms.items()})

    def min_degree_in(self, name: str):
        """Smallest power of the symbol across terms; None for zero poly."""
        if name not in _SYMBOL_INDEX:
            raise UnknownSymbolError(f"unknown symbol {name!r}")
        shift = _SHIFTS[_SYMBOL_INDEX[name]]
        if not self._terms:
            return None
        return min((k >> shift) & MAX_DEGREE for k in self._terms)

    def truncate_in(self, name: str, order: int) -> "ParamPoly":
        """Drop terms whose power of the symbol exceeds ``order``."""
        if order < 0:
            raise TruncationOrderError("truncation order must be >= 0")
        if name not in _SYMBOL_INDEX:
            raise UnknownSymbolError(f"unknown symbol {name!r}")
        shift = _SHIFTS[_SYMBOL_INDEX[name]]
        return _packed_poly(
            {k: c for k, c in self._terms.items() if (k >> shift) & MAX_DEGREE <= order}
        )

    def derivative(self, name: str) -> "ParamPoly":
        """The partial derivative in one symbol, term by term."""
        if name not in _SYMBOL_INDEX:
            raise UnknownSymbolError(f"unknown symbol {name!r}")
        shift = _SHIFTS[_SYMBOL_INDEX[name]]
        return _packed_poly({k - (1 << shift): c * ((k >> shift) & MAX_DEGREE)
                             for k, c in self._terms.items() if (k >> shift) & MAX_DEGREE})

    def substitute(self, bindings: Mapping[str, PolyLike]) -> "ParamPoly":
        """Simultaneous substitution of symbols by exact values or polynomials.

        A binding whose value mentions any bound symbol is rejected: the
        substitution must not reintroduce what it eliminates.
        """
        values: dict[int, ParamPoly] = {}
        for name, value in bindings.items():
            if name not in _SYMBOL_INDEX:
                raise UnknownSymbolError(f"unknown symbol {name!r}")
            values[_SYMBOL_INDEX[name]] = poly(value)
        bound_fields = sum(MAX_DEGREE << _SHIFTS[i] for i in values)
        for value in values.values():
            if any(k & bound_fields for k in value._terms):
                raise SubstitutionError(
                    "substitution value reintroduces a bound symbol"
                )
        bound = sorted(values.items())
        total = ParamPoly()
        for key, coeff in self._terms.items():
            term = ParamPoly.from_scalar(coeff)
            for i, value in bound:
                e = (key >> _SHIFTS[i]) & MAX_DEGREE
                if e:
                    term = term * value ** e
            rest = key & ~bound_fields
            if rest:
                term = term * _packed_poly({rest: ONE})
            total = total + term
        return total

    def evaluate(self, assignment: Mapping[str, ScalarLike]) -> ExactScalar:
        """Evaluate with every appearing symbol bound to an exact scalar."""
        total = ZERO
        for key, coeff in self._terms.items():
            value = coeff
            for i, e in enumerate(_unpack(key)):
                if e == 0:
                    continue
                name = SYMBOLS[i]
                if name not in assignment:
                    raise SubstitutionError(f"no value for symbol {name!r}")
                value = value * _coerce_scalar(assignment[name]) ** e
            total = total + value
        return total

    # -- serialization ------------------------------------------------------

    def to_json(self) -> list:
        return [
            [list(e), str(c.re), str(c.im)] for e, c in self.terms()
        ]

    @staticmethod
    def from_json(data: list) -> "ParamPoly":
        """Inverse of ``to_json``.  Exponents are JSON integers (``int``,
        never ``bool`` or ``float``); coefficient parts are str or int.  A
        later term with the same exponents replaces an earlier one."""
        return _packed_poly({key: _make(*abd) for key, abd in _json_int_terms(data).items()})

    # -- dunders -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, ExactScalar)):
            other = poly(other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for exps, coeff in self.terms():
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(SYMBOLS[i])
                elif e > 1:
                    factors.append(f"{SYMBOLS[i]}^{e}")
            coeff_s = str(coeff)
            if ("+" in coeff_s[1:]) or ("-" in coeff_s[1:]):
                coeff_s = f"({coeff_s})"
            if factors and coeff_s == "1":
                parts.append("*".join(factors))
            elif factors and coeff_s == "-1":
                parts.append("-" + "*".join(factors))
            else:
                parts.append("*".join([coeff_s] + factors) if factors else coeff_s)
        return " + ".join(parts)

    __repr__ = __str__


def _pack(exps) -> int:
    """Packed monomial of an exponent tuple aligned with SYMBOLS."""
    exps = tuple(exps)
    if len(exps) == _NSYM:
        # fast path: with 8-bit fields the packed int is the big-endian
        # bytes of the exponents; bytes() rejects non-ints and values
        # outside 0..255, and the guard bits catch 128..255
        try:
            key = int.from_bytes(bytes(exps), "big")
        except (TypeError, ValueError):
            pass
        else:
            if not key & _GUARDS:
                return key
    # slow path: the same checks one by one, for the error message
    if len(exps) != _NSYM:
        raise ValueError("exponent tuple has wrong length")
    key = 0
    for name, e in zip(SYMBOLS, exps):
        if e < 0:
            raise ValueError("negative symbol powers are not stored")
        if e > MAX_DEGREE:
            raise DegreeBoundError(f"{name}^{e} exceeds the degree bound {MAX_DEGREE}")
        key = (key << _FIELD_BITS) | e
    return key


def _unpack(key: int) -> tuple:
    """Exponent tuple of a packed monomial."""
    return tuple((key >> s) & MAX_DEGREE for s in _SHIFTS)


def _degree_overflow(ka: int, kb: int) -> DegreeBoundError:
    over = [
        f"{name}^{x + y}"
        for name, x, y in zip(SYMBOLS, _unpack(ka), _unpack(kb))
        if x + y > MAX_DEGREE
    ]
    return DegreeBoundError(
        f"product has {', '.join(over)}, beyond the degree bound {MAX_DEGREE}"
    )


def _packed_poly(terms: dict) -> ParamPoly:
    """ParamPoly over a dict of packed monomials to nonzero coefficients;
    no checks."""
    out = _new(ParamPoly)
    out._terms = terms
    return out


def _int_terms(p: ParamPoly) -> list:
    """The (packed monomial, a, b, d) ints of each term (a + b*i)/d of a
    ParamPoly, for kernels that sum products unreduced and bring each
    nonzero sum back with ``_reduced``."""
    return [(mono, c._a, c._b, c._d) for mono, c in p._terms.items()]


def _json_int_terms(data: list) -> dict:
    """Packed monomial -> canonical (a, b, d) of each nonzero term
    (a + b*i)/d of a ParamPoly in its ``to_json`` form, read as
    ``ParamPoly.from_json`` reads it but with no ExactScalar built."""
    terms = {}
    for exps, re_s, im_s in data:
        if {*map(type, exps)} != {int}:  # the loop names the culprit
            for e in exps:
                if type(e) is not int:
                    raise TypeError(f"exponent {e!r} is not an integer")
        rn, rd = _rational_parts(re_s)
        jn, jd = _rational_parts(im_s)
        key = _pack(exps)
        if not (rn or jn):
            terms.pop(key, None)
        elif rd == jd == 1:
            terms[key] = (rn, jn, 1)
        else:
            a, b, d = rn * jd, jn * rd, rd * jd
            g = gcd(a, b, d)
            terms[key] = (a, b, d) if g == 1 else (a // g, b // g, d // g)
    return terms


def _sum_of_products(pairs) -> ExactScalar | None:
    """Exact sum of x * y over (x, y) ExactScalar pairs, or None when the
    sum is zero.  Products and partial sums stay unreduced (a, b, d) ints;
    a nonzero sum is brought to canonical form by one gcd."""
    a = b = 0
    d = 1
    for x, y in pairs:
        xa, xb, ya, yb = x._a, x._b, y._a, y._b
        pd = x._d * y._d
        if pd == d:
            a += xa * ya - xb * yb
            b += xa * yb + xb * ya
        else:
            a = a * pd + (xa * ya - xb * yb) * d
            b = b * pd + (xa * yb + xb * ya) * d
            d *= pd
    if not a and not b:
        return None
    return _reduced(a, b, d)


def _poly_sum_of_products(pairs) -> ParamPoly:
    """Exact sum of p * q over (p, q) ParamPoly pairs, in one pass: the
    coefficient pairs of every term product are grouped by packed monomial
    and each group is reduced once by ``_sum_of_products``.  A zero operand
    adds nothing, and no partial product or sum is formed as a ParamPoly."""
    groups: dict = {}
    get = groups.get
    for p, q in pairs:
        q_terms = q._terms.items()
        for ka, ca in p._terms.items():
            for kb, cb in q_terms:
                key = ka + kb
                if key & _GUARDS:
                    raise _degree_overflow(ka, kb)
                group = get(key)
                if group is None:
                    groups[key] = [(ca, cb)]
                else:
                    group.append((ca, cb))
    terms = {}
    for key, group in groups.items():
        total = _sum_of_products(group)
        if total is not None:
            terms[key] = total
    return _packed_poly(terms)


def _rational_parts(value) -> tuple:
    """(numerator, denominator > 0) of a JSON coefficient part: an int, or a
    str that ``Fraction`` accepts.  The forms ``str(Fraction)`` writes,
    ``-?digits`` and ``-?digits/digits``, are read with ``int``; floats are
    rejected, as by ``as_fraction``."""
    if type(value) is int:
        return value, 1
    if value == "0":  # the part ``to_json`` writes most often
        return 0, 1
    if type(value) is not str:
        raise TypeError(
            f"expected a str or int coefficient, got {type(value).__name__}"
        )
    num, slash, den = value.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if (value.isascii() and digits.isdigit()
            and (not slash or (den.isdigit() and den.strip("0")))):
        return int(num), int(den) if slash else 1
    try:
        q = Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"coefficient {value!r} has a zero denominator") from None
    return q.numerator, q.denominator


P_ZERO = ParamPoly()
P_ONE = _packed_poly({0: ONE})
P_I = _packed_poly({0: I})


def poly(value: PolyLike) -> ParamPoly:
    """Coerce ints, Fractions and ExactScalars into constant polynomials."""
    if isinstance(value, ParamPoly):
        return value
    return ParamPoly.from_scalar(_coerce_scalar(value))


def sym(name: str, power: int = 1) -> ParamPoly:
    return ParamPoly.symbol(name, power)


# the momentum symbols k0..k3 as an upper-index four-vector
MOMENTUM_SYMBOLS = tuple(sym(f"k{mu}") for mu in range(4))


def _accumulate(acc: dict, key, coeff: ParamPoly):
    """Add ``coeff`` to ``acc[key]``; the key is dropped when the sum
    cancels, so ``acc`` never holds a zero coefficient."""
    prev = acc.get(key)
    if prev is not None:
        coeff = prev + coeff
    if coeff._terms:
        acc[key] = coeff
    else:
        acc.pop(key, None)


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

    def is_zero(self) -> bool:
        return not self.terms

    def substitute(self, bindings):
        return type(self)({k: c.substitute(bindings) for k, c in self.terms.items()})

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
