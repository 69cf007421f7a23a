"""Exact coefficient arithmetic for every symbolic computation in the package.

Three layers:

* ``ExactScalar``: a Gaussian rational a + b*i with ``fractions.Fraction``
  components, always in lowest terms.
* ``ParamPoly``: a polynomial in the fixed parameter alphabet ``SYMBOLS``
  with ExactScalar coefficients and no stored zero terms.
* ``TruncatedSeries``: a ParamPoly together with a truncation order in the
  length parameter ``l``; products re-truncate at the smaller order.

Negative powers of ``l`` are never stored.  Where a rest mass 2/l is needed,
equations are cleared of denominators or the dedicated symbol ``m`` is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
_ZERO_EXP = (0,) * _NSYM


class UnknownSymbolError(ValueError):
    """Raised for a symbol name outside the fixed alphabet."""


class SubstitutionError(ValueError):
    """Raised for an inconsistent substitution request."""


class TruncationOrderError(ValueError):
    """Raised when a required truncation order is missing or invalid."""


def is_exact_number(value) -> bool:
    """True for int, Fraction, str and ExactScalar; floats are not exact."""
    return isinstance(value, (int, Fraction, str, ExactScalar))


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
    raise TypeError(
        f"expected an exact rational, got {type(value).__name__}; "
        "convert floats explicitly with ExactScalar.from_float"
    )


def real_value(value):
    """`as_fraction(value)` for exact numbers, `float(value)` otherwise; for
    sign and range checks that accept both."""
    return as_fraction(value) if is_exact_number(value) else float(value)


@dataclass(frozen=True)
class ExactScalar:
    """Gaussian rational a + b*i.  Components are Fractions in lowest terms."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", as_fraction(self.re))
        object.__setattr__(self, "im", as_fraction(self.im))

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_float(x: float) -> "ExactScalar":
        """Exact dyadic embedding of a float.  The only float entry point."""
        return ExactScalar(Fraction(x))

    @staticmethod
    def i() -> "ExactScalar":
        return ExactScalar(Fraction(0), Fraction(1))

    @staticmethod
    def parse(text: str) -> "ExactScalar":
        """Parse "p/q", "0.25", "p/q+r/si" or "a-bi" ("i" or "j" suffix)."""
        s = text.strip().replace(" ", "").replace("j", "i")
        if not s:
            raise ValueError("empty scalar literal")
        if s.endswith("i"):
            body = s[:-1]
            # split real and imaginary at the last +/- that is not leading
            # and not part of an exponent-free rational
            for pos in range(len(body) - 1, 0, -1):
                if body[pos] in "+-" and body[pos - 1] not in "+-/":
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

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "ExactScalar":
        other = _coerce_scalar(other)
        return ExactScalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> "ExactScalar":
        other = _coerce_scalar(other)
        return ExactScalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "ExactScalar":
        return _coerce_scalar(other) - self

    def __neg__(self) -> "ExactScalar":
        return ExactScalar(-self.re, -self.im)

    def __mul__(self, other) -> "ExactScalar":
        other = _coerce_scalar(other)
        return ExactScalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ExactScalar":
        other = _coerce_scalar(other)
        den = other.re * other.re + other.im * other.im
        if den == 0:
            raise ZeroDivisionError("division by zero ExactScalar")
        return ExactScalar(
            (self.re * other.re + self.im * other.im) / den,
            (self.im * other.re - self.re * other.im) / den,
        )

    def __rtruediv__(self, other) -> "ExactScalar":
        return _coerce_scalar(other) / self

    def __pow__(self, n: int) -> "ExactScalar":
        if not isinstance(n, int):
            raise TypeError("ExactScalar powers must be integers")
        if n < 0:
            return ExactScalar(1) / self ** (-n)
        out = ExactScalar(Fraction(1))
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
        return ExactScalar(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def to_fraction(self) -> Fraction:
        if self.im != 0:
            raise ValueError(f"{self} has a nonzero imaginary part")
        return self.re

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        im = f"{self.im}i"
        if self.re == 0:
            return im
        sign = "+" if self.im > 0 else ""
        return f"{self.re}{sign}{im}"

    __repr__ = __str__


def _coerce_scalar(value) -> ExactScalar:
    if isinstance(value, ExactScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return ExactScalar(as_fraction(value))
    raise TypeError(f"cannot coerce {type(value).__name__} to ExactScalar")


ZERO = ExactScalar()
ONE = ExactScalar(Fraction(1))
I = ExactScalar.i()

ScalarLike = Union[int, Fraction, ExactScalar]
PolyLike = Union[int, Fraction, ExactScalar, "ParamPoly"]


class ParamPoly:
    """Polynomial over SYMBOLS with ExactScalar coefficients.

    Terms are a dict mapping exponent tuples (aligned with SYMBOLS) to
    nonzero coefficients.  Construction normalizes, so every instance is
    already canonical.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple, ExactScalar] | None = None):
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != _NSYM:
                    raise ValueError("exponent tuple has wrong length")
                if any(e < 0 for e in exps):
                    raise ValueError("negative symbol powers are not stored")
                coeff = _coerce_scalar(coeff)
                if not coeff.is_zero():
                    prev = clean.get(exps)
                    total = coeff if prev is None else prev + coeff
                    if total.is_zero():
                        clean.pop(exps, None)
                    else:
                        clean[exps] = total
        self._terms = clean

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_scalar(value: ScalarLike) -> "ParamPoly":
        value = _coerce_scalar(value)
        if value.is_zero():
            return ParamPoly()
        return ParamPoly({_ZERO_EXP: value})

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
        terms = dict(self._terms)
        for exps, coeff in other._terms.items():
            prev = terms.get(exps)
            total = coeff if prev is None else prev + coeff
            if total.is_zero():
                terms.pop(exps, None)
            else:
                terms[exps] = total
        out = ParamPoly.__new__(ParamPoly)
        out._terms = terms
        return out

    __radd__ = __add__

    def __sub__(self, other) -> "ParamPoly":
        return self + (-poly(other))

    def __rsub__(self, other) -> "ParamPoly":
        return poly(other) + (-self)

    def __neg__(self) -> "ParamPoly":
        out = ParamPoly.__new__(ParamPoly)
        out._terms = {e: -c for e, c in self._terms.items()}
        return out

    def __mul__(self, other) -> "ParamPoly":
        other = poly(other)
        terms: dict = {}
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                exps = tuple(x + y for x, y in zip(ea, eb))
                c = ca * cb
                prev = terms.get(exps)
                total = c if prev is None else prev + c
                if total.is_zero():
                    terms.pop(exps, None)
                else:
                    terms[exps] = total
        out = ParamPoly.__new__(ParamPoly)
        out._terms = terms
        return out

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
        return not self._terms or (len(self._terms) == 1 and _ZERO_EXP in self._terms)

    def constant_term(self) -> ExactScalar:
        return self._terms.get(_ZERO_EXP, ZERO)

    def to_scalar(self) -> ExactScalar:
        if not self.is_scalar():
            raise ValueError(f"{self} is not a constant")
        return self.constant_term()

    def terms(self) -> Iterable[tuple[tuple, ExactScalar]]:
        """Terms in canonical order: lexicographic on the exponent vector."""
        return sorted(self._terms.items())

    def conjugate(self) -> "ParamPoly":
        out = ParamPoly.__new__(ParamPoly)
        out._terms = {e: c.conjugate() for e, c in self._terms.items()}
        return out

    def degree_in(self, name: str) -> int:
        """Largest power of the symbol; -1 for the zero polynomial."""
        if name not in _SYMBOL_INDEX:
            raise UnknownSymbolError(f"unknown symbol {name!r}")
        idx = _SYMBOL_INDEX[name]
        if not self._terms:
            return -1
        return max(e[idx] for e in self._terms)

    def min_degree_in(self, name: str):
        """Smallest power of the symbol across terms; None for zero poly."""
        if name not in _SYMBOL_INDEX:
            raise UnknownSymbolError(f"unknown symbol {name!r}")
        idx = _SYMBOL_INDEX[name]
        if not self._terms:
            return None
        return min(e[idx] for e in self._terms)

    def truncate_in(self, name: str, order: int) -> "ParamPoly":
        """Drop terms whose power of the symbol exceeds ``order``."""
        if order < 0:
            raise TruncationOrderError("truncation order must be >= 0")
        idx = _SYMBOL_INDEX[name]
        out = ParamPoly.__new__(ParamPoly)
        out._terms = {e: c for e, c in self._terms.items() if e[idx] <= order}
        return out

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
        bound = set(values)
        for value in values.values():
            for exps, _ in value._terms.items():
                if any(e > 0 and i in bound for i, e in enumerate(exps)):
                    raise SubstitutionError(
                        "substitution value reintroduces a bound symbol"
                    )
        total = ParamPoly()
        for exps, coeff in self._terms.items():
            term = ParamPoly.from_scalar(coeff)
            rest = [0] * _NSYM
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                if i in values:
                    term = term * values[i] ** e
                else:
                    rest[i] = e
            if any(rest):
                term = term * ParamPoly({tuple(rest): ONE})
            total = total + term
        return total

    def evaluate(self, assignment: Mapping[str, ScalarLike]) -> ExactScalar:
        """Evaluate with every appearing symbol bound to an exact scalar."""
        total = ZERO
        for exps, coeff in self._terms.items():
            value = coeff
            for i, e in enumerate(exps):
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
        terms = {}
        for exps, re_s, im_s in data:
            terms[tuple(exps)] = ExactScalar(Fraction(re_s), Fraction(im_s))
        return ParamPoly(terms)

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


P_ZERO = ParamPoly()
P_ONE = ParamPoly({_ZERO_EXP: ONE})
P_I = ParamPoly({_ZERO_EXP: I})


def poly(value: PolyLike) -> ParamPoly:
    """Coerce ints, Fractions and ExactScalars into constant polynomials."""
    if isinstance(value, ParamPoly):
        return value
    return ParamPoly.from_scalar(_coerce_scalar(value))


def sym(name: str, power: int = 1) -> ParamPoly:
    return ParamPoly.symbol(name, power)


@dataclass(frozen=True)
class TruncatedSeries:
    """A polynomial known only modulo O(l^(order+1)).

    Arithmetic takes the min of the declared orders and re-truncates, so a
    product never pretends to more accuracy than its worst factor.
    """

    poly: ParamPoly
    order: int

    def __post_init__(self):
        if self.order < 0:
            raise TruncationOrderError("truncation order must be >= 0")
        object.__setattr__(self, "poly", self.poly.truncate_in("l", self.order))

    def __add__(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            order = min(self.order, other.order)
            return TruncatedSeries(self.poly + other.poly, order)
        return TruncatedSeries(self.poly + poly(other), self.order)

    __radd__ = __add__

    def __sub__(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            order = min(self.order, other.order)
            return TruncatedSeries(self.poly - other.poly, order)
        return TruncatedSeries(self.poly - poly(other), self.order)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(-self.poly, self.order)

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            order = min(self.order, other.order)
            return TruncatedSeries(self.poly * other.poly, order)
        return TruncatedSeries(self.poly * poly(other), self.order)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def __str__(self) -> str:
        return f"{self.poly} + O(l^{self.order + 1})"


def geometric_inverse(unit_plus: ParamPoly, order: int) -> TruncatedSeries:
    """Inverse of 1 + u as a truncated geometric series, u with no constant term.

    Used for series sanity checks; the operator algebra keeps its inverse
    generator formal instead of expanding it.
    """
    u = unit_plus - P_ONE
    if not u.min_degree_in("l") and not u.is_zero():
        raise ValueError("expected 1 + (terms of positive l-degree)")
    total = P_ONE
    power = P_ONE
    for _ in range(order):
        power = (power * -u).truncate_in("l", order)
        total = total + power
    return TruncatedSeries(total, order)
