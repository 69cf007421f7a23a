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

Negative powers of ``l`` are never stored: where a rest mass 2/l is
needed, equations are cleared of denominators.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from math import gcd, isqrt
from numbers import Integral, Number
from typing import Iterable, Mapping, Union

# Fixed parameter alphabet.  Order matters: monomial exponent vectors are
# tuples aligned with this list, and term ordering is lexicographic on them.
#   l    length deformation parameter
#   rho  curvature parameter 1/R^2
#   r    1/R, with rho = r^2 (needed by the isomorphism scaling map); also
#        the scale s of modes.scaling_residual, where no other symbol is r
#   m    the one free coordinate: the seesaw frame axis and the x of the
#        plane-wave lemma's model
#   k0..k3  plane-wave momentum components (upper index)
#   mu   unused: it holds a slot, since fixture files and
#        perfbench/workloads.py write exponent tuples of all ten
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
_FIELD_BITS = 8  # _pack and _json_int_terms read one byte per field
MAX_DEGREE = (1 << (_FIELD_BITS - 1)) - 1
_SHIFTS = tuple(_FIELD_BITS * (_NSYM - 1 - i) for i in range(_NSYM))
_GUARDS = sum((MAX_DEGREE + 1) << shift for shift in _SHIFTS)
_INT_FIELDS = (int,) * _NSYM
# the coefficient parts str(Fraction) writes: -?digits, -?digits/nonzero
_PLAIN = re.compile(r"-?[0-9]+(?:/0*[1-9][0-9]*)?")


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
            other = _operand(other)
            if other is NotImplemented:
                return NotImplemented
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
        return self + -other

    def __rsub__(self, other) -> "ExactScalar":
        return _coerce_scalar(other) - self

    def __neg__(self) -> "ExactScalar":
        return _make(-self._a, -self._b, self._d)

    def __mul__(self, other) -> "ExactScalar":
        if type(other) is not ExactScalar:
            other = _operand(other)
            if other is NotImplemented:
                return NotImplemented
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
            other = _operand(other)
            if other is NotImplemented:
                return NotImplemented
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
        return ONE / _power(self, -n, ONE) if n < 0 else _power(self, n, ONE)

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


def _power(base, n: int, out):
    """out * base**n for n >= 0 by repeated squaring.  No square is formed
    past the top bit of n, so a power within the degree bound never raises
    DegreeBoundError."""
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


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


def _operand(value):
    """``_coerce_scalar(value)`` for an ExactScalar or a number, so a float
    still raises; NotImplemented for any other type, so that its reflected
    operator runs: ``I * sym("l")`` is a ParamPoly product."""
    if type(value) is ExactScalar or isinstance(value, Number):
        return _coerce_scalar(value)
    return NotImplemented


ZERO = _make(0, 0, 1)
ONE = _make(1, 0, 1)
I = _make(0, 1, 1)


class QuadraticScalar:
    """a + b*sqrt(delta): ExactScalar parts a, b and a positive rational
    delta that is not a square (``exact_sqrt`` makes the first one).

    sqrt(delta) is then real and outside Q(i), so the element is zero
    exactly when a = b = 0, and the inverse goes through the conjugate
    a - b*sqrt(delta) with the nonzero norm a^2 - b^2 delta.  Exact numbers
    combine as b = 0; both operands of a binary operation share delta."""

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

    def __rtruediv__(self, other) -> "QuadraticScalar":
        return QuadraticScalar(other, ZERO, self.delta) / self

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def __eq__(self, other) -> bool:
        """Equal by value; an exact number is the element with b = 0."""
        if not isinstance(other, (QuadraticScalar, ExactScalar, Integral, Fraction)):
            return NotImplemented
        return (self.a, self.b) == self._parts(other)

    def __hash__(self):
        # an element with b = 0 hashes like the exact number it equals
        return hash((self.a, self.b, self.delta)) if self.b else hash(self.a)


def exact_sqrt(q: Fraction):
    """sqrt(q) of a rational q >= 0: an ExactScalar when q is a rational
    square, the QuadraticScalar sqrt(q) otherwise."""
    n, d = isqrt(q.numerator), isqrt(q.denominator)
    if n * n == q.numerator and d * d == q.denominator:
        return _make(n, 0, d)
    return QuadraticScalar(ZERO, ONE, q)


def rounded(root, values=lambda r: (r,)) -> tuple:
    """The floats nearest values(root), each rounded once, for root =
    ``exact_sqrt(q)`` and values a map from a rational r >= 0 to a tuple of
    rationals, each monotone in r and irrational when r is.

    An irrational root is bracketed as isqrt(q 4^s) 2^-s <= sqrt(q) <
    (isqrt(q 4^s) + 1) 2^-s, first to about 70 bits, and s grows until both
    ends of every value round alike; they do once the bracket is narrow
    enough, since no float or midpoint of two floats is irrational."""
    if type(root) is not QuadraticScalar:
        return tuple(map(float, values(root.to_fraction())))
    p, q = root.delta.numerator, root.delta.denominator
    shift = max(0, (140 - p.bit_length() + q.bit_length()) // 2)
    while True:
        r = isqrt((p << 2 * shift) // q)
        ends = [tuple(map(float, values(Fraction(n, 1 << shift)))) for n in (r, r + 1)]
        if ends[0] == ends[1]:
            return ends[0]
        shift += 32

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
        return _power(self, n, P_ONE)

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def to_scalar(self) -> ExactScalar:
        if self._terms.keys() - {0}:
            raise ValueError(f"{self} is not a constant")
        return self._terms.get(0, ZERO)

    def terms(self) -> Iterable[tuple[tuple, ExactScalar]]:
        """Terms in canonical order: lexicographic on the exponent vector."""
        return [(_unpack(k), c) for k, c in sorted(self._terms.items())]

    def conjugate(self) -> "ParamPoly":
        return _packed_poly({k: c.conjugate() for k, c in self._terms.items()})

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
        values, bound_fields = _bindings(bindings)
        total = ParamPoly()
        for key, coeff in self._terms.items():
            term = _bound_part(values, key, ParamPoly.from_scalar(coeff))
            rest = key & ~bound_fields
            if rest:
                term = term * _packed_poly({rest: ONE})
            total = total + term
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
        return _packed_poly({m: _make(a, b, d) for _, m, a, b, d in _json_int_terms([[0, data]])})

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


_PAIRS = "entries must be a list of [index, coefficient] pairs"


def _json_int_terms(entries: list, n: int = 1, bracket: str = "0,0") -> list:
    """The canonical (q, packed monomial, a, b, d) ints of each nonzero term
    (a + b*i)/d of each [q, coefficient] entry of the bracket keyed
    ``bracket``, the coefficient a ParamPoly in its ``to_json`` form and q a
    distinct int in 0..n-1, read with no ExactScalar built.  A list of ten
    int exponents and the parts "0" and "-?digits(/digits)?" are read here;
    ``_pack`` and ``_rational_parts`` read the rest and raise the error of a
    malformed term."""
    if type(entries) is not list:
        raise TypeError(_PAIRS)
    read = []
    seen = 0  # a bit per output index read
    tidy = False  # whether a term may repeat or be zero
    for entry in entries:
        try:
            q, data = entry
        except (TypeError, ValueError):
            raise TypeError(_PAIRS) from None
        if type(q) is not int:
            raise TypeError(f"output index {q!r} is not an integer")
        if not 0 <= q < n:
            raise ValueError(f"output index {q} of bracket [{bracket}] is outside 0..{n - 1}")
        if seen >> q & 1:
            raise ValueError(f"lists output index {q} twice")
        seen |= 1 << q
        if type(data) is not list:
            raise TypeError(f"coefficient {data!r} is not a list of terms")
        tidy = tidy or len(data) > 1
        for term in data:
            try:
                exps, re_s, im_s = term
            except (TypeError, ValueError):
                raise ValueError(f"term {term!r} is not [exponents, re, im]") from None
            key = _GUARDS  # marks an exponent list left to _pack
            if type(exps) is list and tuple(map(type, exps)) == _INT_FIELDS:
                try:
                    key = int.from_bytes(bytes(exps), "big")
                except ValueError:  # a field below 0 or above 255
                    pass
            elif {*map(type, exps)} != {int}:  # the loop names the culprit
                for e in exps:
                    if type(e) is not int:
                        raise TypeError(f"exponent {e!r} is not an integer")
            # each part read inline: this loop is the hot path of a fixture read
            if re_s == "0":
                rn, rd = 0, 1
            elif type(re_s) is str and _PLAIN.fullmatch(re_s):
                num, _, den = re_s.partition("/")
                rn, rd = int(num), int(den or 1)
            else:
                rn, rd = _rational_parts(re_s)
            if im_s == "0":
                jn, jd = 0, 1
            elif type(im_s) is str and _PLAIN.fullmatch(im_s):
                num, _, den = im_s.partition("/")
                jn, jd = int(num), int(den or 1)
            else:
                jn, jd = _rational_parts(im_s)
            if key & _GUARDS:
                key = _pack(exps)
            a, b, d = rn * jd, jn * rd, rd * jd
            g = gcd(a, b, d)
            read.append((q, key, a, b, d) if g == 1 else (q, key, a // g, b // g, d // g))
            if not (a or b):
                tidy = True
    if tidy:  # a later term with the same (q, exponents) replaces an earlier one
        read = [term for term in {term[:2]: term for term in read}.values() if term[2] or term[3]]
    return read


def _join(sums: dict, tag, mono: int, xa: int, xb: int, xd: int, row):
    """Add (xa + xb*i)/xd times each term of ``row`` to ``sums``.

    The left factor has packed monomial ``mono``; ``row`` lists
    (q, monomial, a, b, d) terms.  sums[(tag, q, monomial)] holds the
    running sum as an unreduced [a, b, d] list of ints, updated in place:
    equal denominators add, others cross-multiply, and ``_reduced_sums``
    reduces each sum once.
    """
    for q, mb, ya, yb, yd in row:
        m = mono + mb
        if m & _GUARDS:
            raise _degree_overflow(mono, mb)
        key = (tag, q, m)
        pa = xa * ya - xb * yb
        pb = xa * yb + xb * ya
        pd = xd * yd
        acc = sums.get(key)
        if acc is None:
            sums[key] = [pa, pb, pd]
        else:
            d = acc[2]
            if d == pd:
                acc[0] += pa
                acc[1] += pb
            else:
                acc[0] = acc[0] * pd + pa * d
                acc[1] = acc[1] * pd + pb * d
                acc[2] = d * pd


def _reduced_sums(sums: dict) -> dict:
    """tag -> combo (q -> ParamPoly) of the nonzero sums of ``_join``, each
    brought to canonical form once."""
    out = {}
    for (tag, q, mono), (a, b, d) in sums.items():
        if a or b:
            out.setdefault(tag, {}).setdefault(q, {})[mono] = _reduced(a, b, d)
    return {tag: {q: _packed_poly(terms) for q, terms in combo.items()}
            for tag, combo in out.items()}


def _poly_sum_of_products(pairs) -> ParamPoly:
    """Exact sum of p * q over (p, q) ParamPoly pairs: one ``_join`` sum per
    monomial, reduced once.  A zero operand adds nothing, and no partial
    product or sum is formed as a ParamPoly."""
    sums = {}
    for p, q in pairs:
        row = [(0, mono, c._a, c._b, c._d) for mono, c in q._terms.items()] if p._terms else ()
        for mono, c in p._terms.items():
            _join(sums, 0, mono, c._a, c._b, c._d, row)
    return _packed_poly({mono: _reduced(a, b, d) for (_, _, mono), (a, b, d) in sums.items()
                         if a or b})


def _rational_parts(value) -> tuple:
    """(numerator, denominator > 0) of a JSON coefficient part in a form
    ``_json_int_terms`` leaves to it: an int, or a str that ``Fraction``
    accepts.  Floats are rejected, as by ``as_fraction``."""
    if type(value) is int:
        return value, 1
    if type(value) is not str:
        raise TypeError(
            f"expected a str or int coefficient, got {type(value).__name__}"
        )
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


def _bindings(bindings: Mapping[str, PolyLike]) -> tuple:
    """(symbol index -> ParamPoly value in index order, the packed fields
    of the bound symbols) of a request ``ParamPoly.substitute`` accepts;
    it raises what that raises."""
    values = {}
    for name, value in bindings.items():
        if name not in _SYMBOL_INDEX:
            raise UnknownSymbolError(f"unknown symbol {name!r}")
        values[_SYMBOL_INDEX[name]] = poly(value)
    bound_fields = sum(MAX_DEGREE << _SHIFTS[i] for i in values)
    for value in values.values():
        if any(k & bound_fields for k in value._terms):
            raise SubstitutionError("substitution value reintroduces a bound symbol")
    return dict(sorted(values.items())), bound_fields


def _bound_part(values: dict, key: int, factor: ParamPoly = P_ONE) -> ParamPoly:
    """``factor`` times value**e for each bound symbol of ``_bindings``,
    e its power in the packed monomial ``key``."""
    for i, value in values.items():
        e = (key >> _SHIFTS[i]) & MAX_DEGREE
        if e:
            factor = factor * value ** e
    return factor


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
