"""Exact linear algebra over the polynomial scalars."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncdirac.matrices import ExactMatrix
from ncdirac.scalars import MAX_DEGREE, DegreeBoundError, ExactScalar, ParamPoly, poly, sym


def test_identity_multiplication():
    m = ExactMatrix([[1, 2], [3, 4]])
    assert (m @ ExactMatrix.identity(2)).rows == m.rows
    assert (ExactMatrix.identity(2) @ m).rows == m.rows


def test_rank_and_kernel():
    m = ExactMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert m.rank() == 2
    (v,) = m.kernel()
    # kernel vector annihilates every row
    for row in m.rows:
        total = sum((row[j] * poly(v[j]) for j in range(3)), poly(0))
        assert total.is_zero()


def test_kernel_of_full_rank_is_empty():
    assert ExactMatrix([[2, 0], [1, 1]]).kernel() == []


def test_det_2x2_symbolic():
    m = ExactMatrix([[sym("l"), poly(1)], [poly(1), sym("l")]])
    assert m.det() == sym("l") ** 2 - poly(1)


def test_det_matches_laplace_on_3x3():
    a = ExactMatrix([[1, 2, 0], [Fraction(1, 2), 1, 3], [0, 5, 1]])
    # cofactor expansion along the first row, by hand
    expect = poly(1 * (1 * 1 - 3 * 5)) - poly(2) * poly(
        Fraction(1, 2) * 1 - 3 * 0
    )
    assert a.det() == expect


def test_complex_entries_and_conjugate():
    m = ExactMatrix.from_complex_entries([[1j, 0], [0, -1j]])
    c = m.conjugate()
    assert (m + c).is_zero()
    assert m.scalar_entries()[0][0] == ExactScalar.i()
    with pytest.raises(TypeError, match="convert floats explicitly"):
        ExactMatrix.from_complex_entries([[0.5j]])


def test_shape_mismatch():
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        ExactMatrix([[1]]) @ ExactMatrix([[1, 2], [3, 4]])


def test_substitute_into_entries():
    m = ExactMatrix([[sym("l"), poly(0)], [poly(0), sym("l")]])
    n = m.substitute({"l": poly(ExactScalar(Fraction(1, 2)))})
    assert n.rows[0][0] == poly(Fraction(1, 2))


# -- the one-pass product against the triple loop it replaced ----------------

def _triple_loop(a, b):
    """The entry-by-entry product: acc = acc + a_ik * b_kj, zero a_ik skipped."""
    out = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            acc = poly(0)
            for k in range(a.ncols):
                x = a.rows[i][k]
                if x.is_zero():
                    continue
                acc = acc + x * b.rows[k][j]
            row.append(acc)
        out.append(row)
    return out


_RATIONAL = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5]))
_GAUSSIAN = st.builds(ExactScalar, _RATIONAL, _RATIONAL)
_MONOMIAL = st.tuples(*[st.integers(0, 2)] * 3).map(lambda e: e + (0,) * 7)
_ENTRY = st.one_of(
    st.just(poly(0)),
    st.dictionaries(_MONOMIAL, _GAUSSIAN, max_size=3).map(ParamPoly),
)


@st.composite
def _factors(draw):
    """Two multipliable matrices, with some rows of the first and some
    columns of the second set to zero."""
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    a = [[draw(_ENTRY) for _ in range(k)] for _ in range(n)]
    b = [[draw(_ENTRY) for _ in range(m)] for _ in range(k)]
    for i in draw(st.sets(st.integers(0, n - 1))):
        a[i] = [poly(0)] * k
    for j in draw(st.sets(st.integers(0, m - 1))):
        for row in b:
            row[j] = poly(0)
    return ExactMatrix(a), ExactMatrix(b)


@settings(max_examples=80, deadline=None)
@given(_factors())
def test_product_matches_the_triple_loop(factors):
    a, b = factors
    got = a @ b
    assert (got.nrows, got.ncols) == (a.nrows, b.ncols)
    assert got.rows == _triple_loop(a, b)


def test_product_past_the_degree_bound_raises():
    high = sym("l", MAX_DEGREE)
    a = ExactMatrix([[poly(1), high]])
    b = ExactMatrix([[poly(1)], [sym("l")]])
    with pytest.raises(DegreeBoundError):
        a @ b
    assert (a @ ExactMatrix([[sym("l")], [poly(1)]])).rows == [[sym("l") + high]]


def test_product_shape_mismatch_raises():
    with pytest.raises(ValueError, match="shape mismatch"):
        ExactMatrix([[1, 2, 3]]) @ ExactMatrix([[1], [2]])
