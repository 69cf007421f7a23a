"""Exact scalar and multivariate polynomial layer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncdirac.scalars import (
    ExactScalar,
    ParamPoly,
    P_ONE,
    SYMBOLS,
    TruncationOrderError,
    UnknownSymbolError,
    as_fraction,
    geometric_inverse,
    is_exact_number,
    poly,
    sym,
)

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)


def scalars():
    return st.builds(ExactScalar, rationals, rationals)


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
        assert norm.is_real()
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

    def test_to_fraction_rejects_imaginary(self):
        with pytest.raises(ValueError):
            ExactScalar.i().to_fraction()


def test_exact_rational_coercion():
    for value in (3, Fraction(1, 10), "1/10", ExactScalar(Fraction(1, 10))):
        assert is_exact_number(value)
    assert as_fraction("1/10") == as_fraction(ExactScalar(Fraction(1, 10)))
    assert as_fraction(3) == Fraction(3)
    assert not is_exact_number(0.1)
    with pytest.raises(TypeError, match="convert floats explicitly"):
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
        assert t.degree_in("l") <= 2

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
        assert set(SYMBOLS) >= {"l", "rho", "r", "k0", "v"}

    def test_substitute_rho_with_r_squared(self):
        p = sym("rho") * poly(3) + sym("l")
        q = p.substitute({"rho": sym("r") ** 2})
        assert q == sym("r") ** 2 * poly(3) + sym("l")

    def test_evaluate_exact(self):
        p = sym("l") ** 2 * poly(Fraction(1, 4)) + sym("k0")
        val = p.evaluate({"l": Fraction(2, 3), "k0": Fraction(1, 9)})
        assert val == ExactScalar(Fraction(2, 9))

    def test_json_round_trip(self):
        p = sym("l") * poly(ExactScalar(Fraction(1, 2), Fraction(-3))) + poly(7)
        assert ParamPoly.from_json(p.to_json()) == p


class TestSeries:
    def test_geometric_inverse_oracle(self):
        # (1 + l)^-1 = 1 - l + l^2 - l^3 + O(l^4)
        inv = geometric_inverse(P_ONE + sym("l"), 3)
        expect = P_ONE - sym("l") + sym("l") ** 2 - sym("l") ** 3
        assert inv.poly == expect

    def test_geometric_inverse_is_inverse(self):
        u = P_ONE + sym("l") * poly(2) + sym("l") ** 2 * poly(Fraction(1, 3))
        inv = geometric_inverse(u, 5)
        prod = (inv * u).poly.truncate_in("l", 5)
        assert prod == P_ONE

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            geometric_inverse(sym("l"), 3)

    def test_negative_order(self):
        with pytest.raises(TruncationOrderError):
            geometric_inverse(P_ONE + sym("l"), -1)
