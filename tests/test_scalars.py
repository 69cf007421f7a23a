"""Exact scalar and multivariate polynomial layer."""

import math
import random
from decimal import Decimal, localcontext
from re import escape as re_escape
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from json_terms import ACCEPTED, BAD_COEFFICIENTS, BAD_EXPONENTS, BAD_PARTS

from ncdirac.scalars import (
    I,
    MAX_DEGREE,
    ONE,
    P_ZERO,
    ZERO,
    DegreeBoundError,
    ExactScalar,
    ParamPoly,
    QuadraticScalar,
    SYMBOLS,
    UnknownSymbolError,
    _poly_sum_of_products,
    as_fraction,
    exact_sqrt,
    poly,
    rounded,
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


def gaussian_polys():
    # sums of up to 3 monomials in l and k0 with big Gaussian rational
    # coefficients, so the denominators of a sum's products differ
    monomial = st.builds(
        lambda c, a, b: poly(c) * sym("l", a) * sym("k0", b),
        big_scalars,
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=2),
    )
    return st.lists(monomial, max_size=3).map(lambda ms: sum(ms, ParamPoly()))


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
        assert ExactScalar.parse("i") == I
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
            I.to_fraction()


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
        as_fraction(I)


def test_a_scalar_defers_to_a_polynomial_operand():
    # an ExactScalar on the left hands a ParamPoly to its reflected operator;
    # a float or complex number still raises
    half, l = ExactScalar(Fraction(1, 2)), sym("l")
    assert I * l == l * I == poly(I) * l
    assert I + l == l + I
    assert ONE - l == poly(1) - l
    assert half * l == Fraction(1, 2) * l
    assert ONE * exact_sqrt(Fraction(2)) == exact_sqrt(Fraction(2))
    for number in (0.5, 1j):
        for op in (lambda x: ONE + x, lambda x: ONE - x, lambda x: ONE * x,
                   lambda x: ONE / x):
            with pytest.raises(TypeError, match="convert floats explicitly"):
                op(number)


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

    def test_twist_turns_each_term_by_its_symbols(self):
        # l -> i l, rho -> -rho (two turns), times i: a term l^a rho^b turns
        # by i^(1 + a + 2b), and a symbol left out is fixed
        p = sym("l", 3) * sym("rho") * poly(ExactScalar(Fraction(1, 2), 2)) + sym("k0") - poly(5)
        got = p.twist({"l": 1, "rho": 2, "k1": 7}, 1)
        want = (sym("l", 3) * sym("rho") * poly(ExactScalar(Fraction(1, 2), 2)) * poly(I) ** 6
                + sym("k0") * poly(I) - poly(5) * poly(I))
        assert got == want
        assert p.twist({}) == p and p.twist({"l": 4, "rho": -4}) == p
        with pytest.raises(UnknownSymbolError):
            p.twist({"zeta": 1})

    @given(small_polys(), small_polys(), st.integers(-5, 5), st.integers(-5, 5))
    @settings(max_examples=40, deadline=None)
    def test_twist_is_a_ring_homomorphism(self, p, q, e, f):
        symbols = {"l": e, "k0": f}
        assert (p * q).twist(symbols) == p.twist(symbols) * q.twist(symbols)
        assert (p + q).twist(symbols) == p.twist(symbols) + q.twist(symbols)
        assert p.twist(symbols).twist({"l": -e, "k0": -f}) == p

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
        # no square is formed past the last bit of the exponent: these once
        # raised for l^200 and l^160
        assert sym(name, 100) ** 1 == sym(name, 100)
        assert sym(name, 40) ** 3 == sym(name, 120)
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

    @pytest.mark.parametrize("value,error,message", BAD_PARTS)
    def test_json_rejects_bad_coefficients(self, value, error, message):
        # tests/test_lie_algebra.py reads the cases of json_terms as one bracket
        with pytest.raises(error, match=re_escape(message)):
            ParamPoly.from_json([[[0] * 10, value, "0"]])

    def test_json_monomial_checks(self):
        for exps, error, message in BAD_EXPONENTS:
            with pytest.raises(error) as exc:
                ParamPoly.from_json([[exps, "1", "0"]])
            assert type(exc.value) is error and str(exc.value) == message
        top = ParamPoly.from_json([[[MAX_DEGREE] * 10, "1", "0"]])
        assert all(_degree(top, name) == MAX_DEGREE for name in SYMBOLS)

    @pytest.mark.parametrize("data,error,message", BAD_COEFFICIENTS)
    def test_json_rejects_a_coefficient_that_is_not_a_list_of_terms(self, data, error, message):
        with pytest.raises(error) as exc:
            ParamPoly.from_json(data)
        assert type(exc.value) is error and str(exc.value) == message

    @pytest.mark.parametrize("terms,want", ACCEPTED.values(), ids=ACCEPTED)
    def test_json_accepted_forms(self, terms, want):
        assert ParamPoly.from_json(terms) == ParamPoly(want)


class TestPolySumOfProducts:
    @given(st.lists(st.tuples(gaussian_polys(), gaussian_polys()), max_size=5))
    def test_matches_fold(self, pairs):
        total = ParamPoly()
        for p, q in pairs:
            total = total + p * q
        assert _poly_sum_of_products(pairs) == total
        # the same products negated, in another order: an exact zero
        negated = pairs + [(-p, q) for p, q in reversed(pairs)]
        assert _poly_sum_of_products(negated) == P_ZERO

    def test_degree_bound(self):
        top = sym("l", MAX_DEGREE)
        with pytest.raises(DegreeBoundError):
            _poly_sum_of_products([(sym("k0"), sym("l")), (top, sym("k0") + sym("l"))])


def test_quadratic_scalar_equality_is_by_value():
    two = Fraction(2)
    root = QuadraticScalar(1, 1, two)
    assert root == QuadraticScalar(1, 1, two) and not root != QuadraticScalar(1, 1, two)
    assert root != QuadraticScalar(1, -1, two) and root != QuadraticScalar(2, 1, two)
    # an exact number is the element with b = 0, on either side
    half = QuadraticScalar(Fraction(1, 2), 0, two)
    for exact in (Fraction(1, 2), ExactScalar(Fraction(1, 2))):
        assert half == exact and exact == half
    assert QuadraticScalar(3, 0, two) == 3 and 3 == QuadraticScalar(3, 0, two)
    assert root != 1 and QuadraticScalar(0, ExactScalar(0, 1), two) != ExactScalar(0, 1)
    assert root != "1+sqrt(2)"
    # elements of different fields do not compare, as they do not add
    with pytest.raises(ValueError, match="different quadratic fields"):
        root == QuadraticScalar(1, 1, Fraction(3))


def test_quadratic_scalar_hash_matches_equality():
    two = Fraction(2)
    assert hash(QuadraticScalar(1, 1, two)) == hash(QuadraticScalar(1, 1, two))
    assert hash(QuadraticScalar(Fraction(1, 2), 0, two)) == hash(Fraction(1, 2))
    assert hash(QuadraticScalar(3, 0, two)) == hash(3) == hash(ExactScalar(3))
    assert len({QuadraticScalar(1, 1, two), QuadraticScalar(1, 1, two), 3,
                QuadraticScalar(3, 0, two)}) == 2


def _decimal(x: Fraction) -> Decimal:
    return Decimal(x.numerator) / Decimal(x.denominator)


def test_rounded_square_roots_match_a_decimal_reference():
    # against a 60-digit decimal root, rounded to a float
    rng = random.Random(4)
    with localcontext() as ctx:
        ctx.prec = 60
        for _ in range(300):
            x = Fraction(rng.randint(1, 10 ** rng.randint(1, 40)),
                         rng.randint(1, 10 ** rng.randint(1, 40)))
            assert rounded(exact_sqrt(x)) == (float(_decimal(x).sqrt()),), x
    assert rounded(exact_sqrt(Fraction(0))) == (0.0,)
    assert rounded(exact_sqrt(Fraction(9, 4))) == (1.5,)


def test_rounded_values_share_one_root():
    # values of r = sqrt(x), increasing and decreasing, each rounded once
    # from one bracket of r
    def values(r):
        return r + 1, 1 / (1 + r), -r * r * r, r / (1 + r)

    rng = random.Random(5)
    with localcontext() as ctx:
        ctx.prec = 60
        for _ in range(100):
            x = Fraction(rng.randint(1, 10 ** 30), rng.randint(1, 10 ** 30))
            root = exact_sqrt(x)
            if not isinstance(root, QuadraticScalar):
                continue
            r = _decimal(x).sqrt()
            want = tuple(float(v) for v in (r + 1, 1 / (1 + r), -r * r * r, r / (1 + r)))
            assert rounded(root, values) == want, x


def test_rounded_refines_a_root_next_to_a_midpoint():
    # 1 + 2^-53 is the midpoint of the floats 1 and 1 + 2^-52; a root within
    # 2^-200 of it lies inside the first bracket, which must then narrow
    mid = 1 + Fraction(1, 2 ** 53)
    above = exact_sqrt(mid * mid + Fraction(1, 2 ** 200))
    below = exact_sqrt(mid * mid - Fraction(1, 2 ** 200))
    assert isinstance(above, QuadraticScalar) and isinstance(below, QuadraticScalar)
    assert rounded(above) == (1 + 2.0 ** -52,)
    assert rounded(below) == (1.0,)
