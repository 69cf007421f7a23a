"""Exact scalar and multivariate polynomial layer."""

import math
import random
from re import escape as re_escape
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncdirac.scalars import (
    MAX_DEGREE,
    ZERO,
    DegreeBoundError,
    ExactScalar,
    ParamPoly,
    SYMBOLS,
    UnknownSymbolError,
    _sum_of_products,
    as_fraction,
    poly,
    sym,
)

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)


def scalars():
    return st.builds(ExactScalar, rationals, rationals)


def _degree(p, name):
    """Largest power of the symbol in p; -1 for the zero polynomial."""
    i = SYMBOLS.index(name)
    return max((e[i] for e, _ in p.terms()), default=-1)


# numerators and denominators up to 10^30, with the 10^5..10^9 range that
# rescaled fixture tables use, and zero parts for the real/imaginary paths
big_numerators = st.one_of(
    st.just(0),
    st.integers(-12, 12),
    st.integers(-10**9, 10**9),
    st.integers(-10**30, 10**30),
)
big_denominators = st.one_of(
    st.integers(1, 12),
    st.integers(10**5, 10**9),
    st.integers(1, 10**30),
)
big_rationals = st.builds(Fraction, big_numerators, big_denominators)
# (re, im) reference pairs of Fractions
gaussian_pairs = st.tuples(big_rationals, big_rationals)
big_scalars = gaussian_pairs.map(lambda pair: ExactScalar(*pair))


def small_polys():
    # sums of up to 4 monomials in l and k0 with small exact coefficients
    monomial = st.builds(
        lambda c, a, b: poly(c) * sym("l", a) * sym("k0", b),
        scalars(),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=2),
    )
    return st.lists(monomial, min_size=1, max_size=4).map(
        lambda ms: sum(ms, ParamPoly())
    )


class TestExactScalar:
    @given(scalars(), scalars(), scalars())
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a

    @given(scalars())
    def test_conjugation_involution(self, a):
        assert a.conjugate().conjugate() == a
        norm = a * a.conjugate()
        assert norm.im == 0
        assert norm.to_fraction() >= 0

    @given(scalars(), scalars())
    def test_field_inverse(self, a, b):
        if b.is_zero():
            with pytest.raises(ZeroDivisionError):
                a / b
        else:
            assert (a / b) * b == a

    def test_parse(self):
        assert ExactScalar.parse("3/5+4/5i") == ExactScalar(
            Fraction(3, 5), Fraction(4, 5)
        )
        assert ExactScalar.parse("-2") == ExactScalar(Fraction(-2))
        assert ExactScalar.parse("i") == ExactScalar.i()
        assert ExactScalar.parse("1-i") == ExactScalar(Fraction(1), Fraction(-1))
        # the sign of an exponent is not the real/imaginary split
        assert ExactScalar.parse("2e-3i") == ExactScalar(0, Fraction(1, 500))
        assert ExactScalar.parse("1/2+1e-2i") == ExactScalar(
            Fraction(1, 2), Fraction(1, 100)
        )
        assert ExactScalar.parse("-2e-3-4e+1i") == ExactScalar(Fraction(-1, 500), -40)
        assert ExactScalar.parse("1e+3i") == ExactScalar(0, 1000)
        assert ExactScalar.parse("1e-3+2i") == ExactScalar(Fraction(1, 1000), 2)

    def test_equals_numbers_by_value(self):
        assert ExactScalar(1) == 1
        assert ExactScalar(0) == Fraction(0)
        assert ExactScalar(Fraction(3, 4)) == Fraction(3, 4)
        assert ExactScalar(Fraction(3, 4)) != Fraction(3, 5)
        assert ExactScalar(2) != 3
        assert ExactScalar(1, 1) != 1
        assert 2 == ExactScalar(2)
        assert ExactScalar(1).__eq__(1.0) is NotImplemented
        assert ExactScalar(1) != 1.0
        for q in (0, 5, -7, Fraction(1, 3), Fraction(-22, 7)):
            assert hash(ExactScalar(q)) == hash(q)

    def test_float_components_rejected(self):
        with pytest.raises(TypeError, match="convert floats explicitly"):
            ExactScalar(0.5)
        with pytest.raises(TypeError, match="convert floats explicitly"):
            ExactScalar(1, 0.5)

    def test_to_fraction_rejects_imaginary(self):
        with pytest.raises(ValueError):
            ExactScalar.i().to_fraction()


def _check_against(x, re, im):
    """`x` has the value re + im*i, in canonical form, hashing like it."""
    assert (x.re, x.im) == (re, im)
    # the stored form (a + b*i)/d
    a, b, d = x._a, x._b, x._d
    assert d > 0
    assert math.gcd(a, b, d) == 1
    if re == 0 and im == 0:
        assert (a, b, d) == (0, 0, 1)
    ref = ExactScalar(re, im)
    assert x == ref
    assert hash(x) == hash(ref)
    if im == 0:
        assert x == re
        assert hash(x) == hash(re)


def _ref_mul(p, q):
    (a, b), (c, d) = p, q
    return a * c - b * d, a * d + b * c


def _ref_inverse(p):
    a, b = p
    n = a * a + b * b
    return a / n, -b / n


class TestFractionReference:
    """Differential check against (re, im) pairs of Fractions."""

    @given(gaussian_pairs, gaussian_pairs)
    @settings(max_examples=300, deadline=None)
    def test_field_operations(self, p, q):
        x, y = ExactScalar(*p), ExactScalar(*q)
        _check_against(x, *p)
        _check_against(x + y, p[0] + q[0], p[1] + q[1])
        _check_against(x - y, p[0] - q[0], p[1] - q[1])
        _check_against(-x, -p[0], -p[1])
        _check_against(x * y, *_ref_mul(p, q))
        _check_against(x.conjugate(), p[0], -p[1])
        if q == (0, 0):
            with pytest.raises(ZeroDivisionError):
                x / y
        else:
            _check_against(x / y, *_ref_mul(p, _ref_inverse(q)))

    @given(gaussian_pairs, st.integers(min_value=-4, max_value=6))
    @settings(max_examples=150, deadline=None)
    def test_powers(self, p, n):
        x = ExactScalar(*p)
        if n < 0 and p == (0, 0):
            with pytest.raises(ZeroDivisionError):
                x ** n
            return
        want = (Fraction(1), Fraction(0))
        for _ in range(abs(n)):
            want = _ref_mul(want, p)
        if n < 0:
            want = _ref_inverse(want)
        _check_against(x ** n, *want)

    @given(big_rationals, big_rationals)
    @settings(max_examples=100, deadline=None)
    def test_mixed_with_int_and_fraction(self, q, r):
        x = ExactScalar(q)
        _check_against(x + r, q + r, Fraction(0))
        _check_against(r - x, r - q, Fraction(0))
        _check_against(x * r, q * r, Fraction(0))
        _check_against(x * 3, q * 3, Fraction(0))


def test_exact_rational_coercion():
    assert as_fraction("1/10") == as_fraction(ExactScalar(Fraction(1, 10)))
    assert as_fraction(3) == Fraction(3)
    with pytest.raises(TypeError, match="to a Fraction or with ExactScalar.parse"):
        as_fraction(0.1)
    with pytest.raises(ValueError):
        as_fraction(ExactScalar.i())


class TestParamPoly:
    @given(small_polys(), small_polys(), small_polys())
    @settings(max_examples=40, deadline=None)
    def test_ring_axioms(self, p, q, r):
        assert (p + q) * r == p * r + q * r
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p

    @given(small_polys())
    @settings(max_examples=40, deadline=None)
    def test_truncation_idempotent(self, p):
        t = p.truncate_in("l", 2)
        assert t.truncate_in("l", 2) == t
        assert _degree(t, "l") <= 2

    @given(small_polys(), small_polys())
    @settings(max_examples=40, deadline=None)
    def test_truncation_respects_products(self, p, q):
        # truncating a product equals truncating the product of truncations
        full = (p * q).truncate_in("l", 3)
        parts = (p.truncate_in("l", 3) * q.truncate_in("l", 3)).truncate_in("l", 3)
        assert full == parts

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbolError):
            sym("zeta")
        with pytest.raises(UnknownSymbolError):
            sym("l").min_degree_in("zeta")
        with pytest.raises(UnknownSymbolError):
            sym("l").truncate_in("zeta", 1)
        with pytest.raises(UnknownSymbolError):
            sym("l").derivative("zeta")
        assert set(SYMBOLS) >= {"l", "rho", "r", "k0", "v"}

    def test_derivative_by_terms(self):
        p = sym("k0") ** 3 * sym("l") * poly(Fraction(1, 2)) - sym("k1") * poly(ExactScalar(0, 2))
        assert p.derivative("k0") == sym("k0") ** 2 * sym("l") * poly(Fraction(3, 2))
        assert p.derivative("k1") == poly(ExactScalar(0, -2))
        assert p.derivative("rho").is_zero()

    @given(small_polys(), small_polys())
    @settings(max_examples=40, deadline=None)
    def test_derivative_product_rule(self, p, q):
        assert (p * q).derivative("l") == p.derivative("l") * q + p * q.derivative("l")

    def test_substitute_rho_with_r_squared(self):
        p = sym("rho") * poly(3) + sym("l")
        q = p.substitute({"rho": sym("r") ** 2})
        assert q == sym("r") ** 2 * poly(3) + sym("l")

    def test_evaluate_exact(self):
        p = sym("l") ** 2 * poly(Fraction(1, 4)) + sym("k0")
        val = p.evaluate({"l": Fraction(2, 3), "k0": Fraction(1, 9)})
        assert val == ExactScalar(Fraction(2, 9))

    def test_degree_bound(self):
        assert _degree(sym("l", MAX_DEGREE), "l") == MAX_DEGREE
        assert _degree(sym("v", MAX_DEGREE), "v") == MAX_DEGREE
        with pytest.raises(DegreeBoundError):
            sym("l", MAX_DEGREE + 1)
        with pytest.raises(DegreeBoundError):
            ParamPoly({(0, MAX_DEGREE + 1) + (0,) * 8: 1})

    @pytest.mark.parametrize("name", SYMBOLS)
    def test_product_past_bound_raises(self, name):
        # the overflow must raise, not carry into the neighbouring field
        i = SYMBOLS.index(name)
        neighbours = SYMBOLS[max(i - 1, 0):i] + SYMBOLS[i + 1:i + 2]
        high = sym(name, MAX_DEGREE - 2)
        for other in neighbours:
            high = high * sym(other)
        with pytest.raises(DegreeBoundError, match=name):
            high * sym(name, 3)
        with pytest.raises(DegreeBoundError):
            sym(name, 64) ** 2
        top = high * sym(name, 2)
        assert _degree(top, name) == MAX_DEGREE
        assert all(_degree(top, other) == 1 for other in neighbours)

    def test_terms_order_and_json_on_random_polys(self):
        rng = random.Random(5)
        for _ in range(50):
            given_terms = {}
            for _ in range(rng.randint(0, 12)):
                exps = tuple(
                    rng.choice((0, 0, 1, 2, rng.randint(0, MAX_DEGREE)))
                    for _ in SYMBOLS
                )
                given_terms[exps] = ExactScalar(
                    Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)),
                    rng.choice((0, Fraction(rng.randint(-99, 99), 7))),
                )
            p = ParamPoly(given_terms)
            kept = {e: c for e, c in given_terms.items() if not c.is_zero()}
            assert [e for e, _ in p.terms()] == sorted(kept)
            assert dict(p.terms()) == kept
            assert ParamPoly.from_json(p.to_json()) == p

    def test_json_round_trip(self):
        p = sym("l") * poly(ExactScalar(Fraction(1, 2), Fraction(-3))) + poly(7)
        assert ParamPoly.from_json(p.to_json()) == p

    @given(big_rationals, big_rationals)
    def test_json_parse_matches_fraction(self, re, im):
        # str(Fraction) forms take the int() path; the value and the
        # canonical fields must be the ones Fraction parsing gives
        exps = [0, 2] + [0] * 8
        got = ParamPoly.from_json([[exps, str(re), str(im)]])
        want = ParamPoly({tuple(exps): ExactScalar(re, im)})
        assert got == want
        assert ParamPoly.from_json([[exps, re.numerator, str(im)]]) == ParamPoly(
            {tuple(exps): ExactScalar(re.numerator, im)}
        )

    @pytest.mark.parametrize("text", [
        " 3 ", "+2", "1.5", "-1e-3", "3/6", "-0", "007", "-4/-2", "1_000",
    ])
    def test_json_other_strings_parse_as_fraction(self, text):
        exps = [0] * 10
        try:
            want = ParamPoly({tuple(exps): ExactScalar(Fraction(text), 1)})
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                ParamPoly.from_json([[exps, text, "1"]])
        else:
            assert ParamPoly.from_json([[exps, text, "1"]]) == want

    @pytest.mark.parametrize("value,error,message", [
        ("1/0", ValueError, "coefficient '1/0' has a zero denominator"),
        ("-3/000", ValueError, "zero denominator"),
        ("x", ValueError, "Invalid literal for Fraction: 'x'"),
        ("", ValueError, "Invalid literal for Fraction: ''"),
        ("1/", ValueError, "Invalid literal"),
        (0.5, TypeError, "expected a str or int coefficient, got float"),
        (True, TypeError, "got bool"),
        (None, TypeError, "got NoneType"),
    ])
    def test_json_rejects_bad_coefficients(self, value, error, message):
        with pytest.raises(error, match=re_escape(message)):
            ParamPoly.from_json([[[0] * 10, value, "0"]])

    def test_json_monomial_checks(self):
        one = ["1", "0"]
        with pytest.raises(DegreeBoundError):
            ParamPoly.from_json([[[MAX_DEGREE + 1] + [0] * 9, *one]])
        with pytest.raises(ValueError, match="negative"):
            ParamPoly.from_json([[[0, -1] + [0] * 8, *one]])
        with pytest.raises(ValueError, match="wrong length"):
            ParamPoly.from_json([[[0] * 9, *one]])
        with pytest.raises(TypeError):
            ParamPoly.from_json([[[0.0] * 10, *one]])
        top = ParamPoly.from_json([[[MAX_DEGREE] * 10, *one]])
        assert all(_degree(top, name) == MAX_DEGREE for name in SYMBOLS)


class TestSumOfProducts:
    @given(st.lists(st.tuples(big_scalars, big_scalars), max_size=6), st.booleans())
    def test_matches_fold(self, pairs, cancel):
        if cancel:
            # the same products negated, in another order: an exact zero
            pairs = pairs + [(-x, y) for x, y in reversed(pairs)]
        total = ZERO
        for x, y in pairs:
            total = total + x * y
        got = _sum_of_products(pairs)
        if total.is_zero():
            assert got is None
        else:
            assert got == total
        if cancel:
            assert got is None

    def test_empty_and_canonical(self):
        assert _sum_of_products([]) is None
        half = ExactScalar(Fraction(1, 2))
        i = ExactScalar.i()
        # 1/2 * 1/2 + 1/4 * 3 + i * i = 0; i/2 * 2 + 1/3 * 3/2 = 1/2 + i
        assert _sum_of_products([(half, half), (half * half, poly(3).to_scalar()),
                                 (i, i)]) is None
        got = _sum_of_products([(i * half, ExactScalar(2)),
                                (ExactScalar(Fraction(1, 3)), ExactScalar(Fraction(3, 2)))])
        assert got == ExactScalar(Fraction(1, 2), 1)
