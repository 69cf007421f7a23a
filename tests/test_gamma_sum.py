"""The one sparse gamma builder against the add/scale chain it replaced.

Every exact g.k used to start from zeros and add each gamma^a scaled by
its coefficient; ``_add_scale_chain`` keeps that chain as the reference.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncdirac.clifford import build_majorana_rep, gamma_sum
from ncdirac.lie_algebra import ETA4_DIAG
from ncdirac.matrices import ExactMatrix
from ncdirac.modes import ModeProblem, dirac_matrix, dirac_matrix_symbolic
from ncdirac.scalars import ExactScalar, ParamPoly, poly, sym
from ncdirac.seesaw import CouplingConfig, coupled_matrix, leading_order_reduction


def _add_scale_chain(eps5, coeffs):
    rep = build_majorana_rep(eps5)
    out = ExactMatrix.zeros(4)
    for g, c in zip(rep.gamma, coeffs):
        out = out + g.scale(poly(c))
    return out


def _k_lower(k):
    return [(c if isinstance(c, ParamPoly) else poly(ExactScalar(Fraction(c))))
            * poly(ETA4_DIAG[mu]) for mu, c in enumerate(k)]


_RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, -1]), st.tuples(*[_RATIONALS] * 4),
       st.fractions(min_value=Fraction(1, 7), max_value=5, max_denominator=7))
def test_rational_dirac_matrix_equals_the_chain(eps5, k, ell):
    p = ModeProblem(eps5=eps5, ell=ell, k=k)
    coeffs = [k[mu] * ETA4_DIAG[mu] for mu in range(4)]
    coeffs.append(Fraction(-eps5) * ell / 2 * p.k_squared())
    want = _add_scale_chain(eps5, [ExactScalar(c) for c in coeffs])
    assert dirac_matrix(p) == want


@pytest.mark.parametrize("eps5", [1, -1])
def test_symbolic_dirac_matrix_equals_the_chain(eps5):
    ksq = sym("k0") ** 2 - sym("k1") ** 2 - sym("k2") ** 2 - sym("k3") ** 2
    coeffs = _k_lower([sym(f"k{mu}") for mu in range(4)])
    coeffs.append(ksq * sym("l") * poly(ExactScalar(Fraction(-eps5, 2))))
    assert dirac_matrix_symbolic(eps5) == _add_scale_chain(eps5, coeffs)


@pytest.mark.parametrize("eps5", [1, -1])
@pytest.mark.parametrize("k", [
    (Fraction(3, 2), 0, Fraction(-1, 3), 2),
    (sym("k0"), poly(0), poly(0), poly(0)),
    (sym("k0") * sym("l"), poly(ExactScalar(1, 2)), sym("k2", 2) - sym("v"), poly(3)),
])
def test_coupled_and_effective_blocks_equal_the_chain(eps5, k):
    c = CouplingConfig(g=ExactScalar(Fraction(3, 5), Fraction(4, 5)), vev=Fraction(1, 3),
                       ell=Fraction(2, 3), eps5=eps5)
    k_low = _k_lower(k)
    gk = _add_scale_chain(eps5, k_low)
    heavy = gk + build_majorana_rep(eps5).gamma[4].scale(poly(3))
    full = coupled_matrix(k, c)
    assert [row[:4] for row in full.rows[:4]] == gk.rows
    assert [row[4:] for row in full.rows[4:]] == heavy.rows
    W, effective = leading_order_reduction(c)
    g, v = c.g, ExactScalar(Fraction(1, 3))
    assert effective(k) == gk + W.scale(poly(g * v))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, -1]),
       st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 2),
                          st.integers(0, 2)), min_size=5, max_size=5))
def test_gamma_sum_equals_the_chain_on_polynomial_coefficients(eps5, parts):
    # Gaussian-rational multiples of l^a k1^b; zero coefficients included
    coeffs = [poly(ExactScalar(re, im)) * sym("l", a) * sym("k1", b)
              for re, im, a, b in parts]
    assert gamma_sum(eps5, coeffs) == _add_scale_chain(eps5, coeffs)
