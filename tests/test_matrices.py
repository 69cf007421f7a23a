"""Exact linear algebra over the polynomial scalars."""

from fractions import Fraction

import pytest

from ncdirac.matrices import ExactMatrix
from ncdirac.scalars import ExactScalar, poly, sym


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
