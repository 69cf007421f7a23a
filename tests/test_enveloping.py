"""Word rewriting engine and the plane-wave exponent identities."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncdirac.enveloping import (
    CINV_TOKEN,
    C_TOKEN,
    P_TOKENS,
    TOKENS,
    Derivation,
    NCExpression,
    PlaneWaveExponent,
    commutator,
    lemma_matrix_check,
    normal_form,
    project_vacuum,
    verify_plane_wave_relations,
)
from ncdirac.lie_algebra import DEFORMED_BASIS, build_deformed_algebra, contract
from ncdirac.scalars import ExactScalar, TruncationOrderError, poly, sym

I = ExactScalar.i()


def word(*tokens) -> NCExpression:
    out = NCExpression.unit()
    for t in tokens:
        out = out * NCExpression.gen(t)
    return out


@pytest.mark.parametrize("eps5", [1, -1])
def test_inverse_cancellation(eps5):
    assert normal_form(word(C_TOKEN, CINV_TOKEN), eps5, order=4) == NCExpression.unit()
    assert normal_form(word(CINV_TOKEN, C_TOKEN), eps5, order=4) == NCExpression.unit()


@pytest.mark.parametrize("eps5", [1, -1])
def test_inverse_commutes_past_coordinate(eps5):
    # Cinv x0 = x0 Cinv + i*eps5*l^2 p0 Cinv^2, confirmed by multiplying C back
    got = normal_form(word(CINV_TOKEN, "x0"), eps5, order=6)
    expect = word("x0", CINV_TOKEN) + word("p0", CINV_TOKEN, CINV_TOKEN).scale(
        poly(I * eps5) * sym("l", 2)
    )
    assert got == expect
    back = normal_form(NCExpression.gen(C_TOKEN) * got, eps5, order=6)
    assert back == word("x0")


def test_truncation_order_required_for_inverse():
    expr = word(CINV_TOKEN, "x0")
    with pytest.raises(TruncationOrderError):
        normal_form(expr, -1)
    # no inverse letter: no order needed
    assert normal_form(word("x0", "p0"), -1) is not None


@pytest.mark.parametrize("eps5", [1, -1])
def test_known_commutators(eps5):
    nf = lambda e: normal_form(e, eps5)
    assert nf(commutator(word("p0"), word("x0"))) == word(C_TOKEN).scale(poly(I))
    assert nf(commutator(word("p1"), word("x1"))) == word(C_TOKEN).scale(poly(-I))
    assert nf(commutator(word("p0"), word("p1"))).is_zero()
    got = nf(commutator(word("x0"), word("x1")))
    assert got == word("M01").scale(poly(-I * eps5) * sym("l", 2))

    # the rewriting rules come from the flat table, matched by position
    table = contract(build_deformed_algebra(1, eps5), rho_to_zero=True)
    gens = TOKENS[:table.dim()]
    assert [t.replace("p", "P") for t in gens] == list(DEFORMED_BASIS)
    # all 15 x 14 ordered pairs: the normal form of [a, b] is the bracket
    for i, a in enumerate(gens):
        for j, b in enumerate(gens):
            if i == j:
                continue
            bracket = NCExpression(
                {(gens[k],): c for k, c in table.bracket(i, j).items()}
            )
            assert nf(commutator(word(a), word(b))) == bracket, (a, b)
    # d_mu = -i [p_mu, .] on every generator, the formal inverse included
    for mu, p in enumerate(P_TOKENS):
        action = Derivation(eps5, mu).action
        for t in TOKENS:
            minus_i_comm = normal_form(commutator(word(p), word(t)), eps5, order=4)
            assert action[t] == minus_i_comm.scale(poly(-I)), (p, t)


@pytest.mark.parametrize("leftmost", [True, False])
@pytest.mark.parametrize("eps5", [1, -1])
def test_confluence_on_hard_words(eps5, leftmost):
    # reducing in either direction must land on the same normal form
    samples = [
        word("x0", "p0", "x0"),
        word("x1", "x0", "p1", "p0"),
        word(CINV_TOKEN, "x0", "x1"),
        word("x2", "M01", "p1", C_TOKEN),
        word(CINV_TOKEN, CINV_TOKEN, "x3", "p3"),
    ]
    for s in samples:
        a = normal_form(s, eps5, order=6, leftmost=leftmost)
        b = normal_form(s, eps5, order=6, leftmost=not leftmost)
        assert a == b


@given(
    st.lists(st.sampled_from(TOKENS), min_size=2, max_size=5),
    st.sampled_from([1, -1]),
)
@settings(max_examples=60, deadline=None)
def test_confluence_random_words(tokens, eps5):
    s = word(*tokens)
    left = normal_form(s, eps5, order=4, leftmost=True)
    right = normal_form(s, eps5, order=4, leftmost=False)
    assert left == right
    # normal form is a fixed point
    assert normal_form(left, eps5, order=4) == left


@pytest.mark.parametrize("eps5", [1, -1])
def test_derivations_commute_and_leibniz(eps5):
    ds = [Derivation(eps5, a) for a in range(5)]
    probe = word("x0", "x1") + word("M01", "x2").scale(sym("l"))
    for da in ds:
        for db in ds:
            lhs = normal_form(da(db(probe)) - db(da(probe)), eps5, order=6)
            assert lhs.is_zero()
    # Leibniz on a product of two coordinates
    d0 = ds[0]
    lhs = normal_form(d0(word("x0", "x1")), eps5, order=6)
    rhs = normal_form(
        d0(word("x0")) * word("x1") + word("x0") * d0(word("x1")), eps5, order=6
    )
    assert lhs == rhs


@pytest.mark.parametrize("eps5", [1, -1])
def test_derivative_action_values(eps5):
    d0 = Derivation(eps5, 0)
    d4 = Derivation(eps5, 4)
    assert normal_form(d0(word("x0")), eps5) == word(C_TOKEN)
    assert normal_form(d0(word("x1")), eps5).is_zero()
    got = normal_form(d4(word("x2")), eps5)
    assert got == word("p2", C_TOKEN).scale(poly(-eps5) * sym("l"))
    # the inverse letter is annihilated by every derivation
    assert normal_form(d4(word(CINV_TOKEN)), eps5, order=4).is_zero()


@pytest.mark.parametrize("eps5", [1, -1])
def test_exponent_is_antihermitian(eps5):
    a = PlaneWaveExponent(eps5, order=4).expression
    assert (a.conjugate() + a).is_zero()


@pytest.mark.parametrize("eps5", [1, -1])
def test_plane_wave_identities_exact(eps5):
    chk = verify_plane_wave_relations(eps5, order=4)
    assert all(r.is_zero() for r in chk.momentum_remainders)
    assert chk.centrality_remainders == []
    assert chk.derivative_remainder.is_zero()
    assert chk.mixed_remainder.is_zero()
    k_squared = sym("k0", 2) - sym("k1", 2) - sym("k2", 2) - sym("k3", 2)
    expect = poly(ExactScalar(0, Fraction(1, 2)) * eps5) * sym("l") * k_squared
    assert chk.vacuum_scalar == expect


def test_vacuum_projection_rules():
    expr = word("p0").scale(sym("k1")) + NCExpression.unit(poly(3))
    assert project_vacuum(expr) == sym("k1") * sym("k0") + poly(3)
    with pytest.raises(ValueError):
        project_vacuum(word("x0"))


@pytest.mark.parametrize("eps5", [1, -1])
def test_numeric_exponential_model(eps5):
    # the nilpotent model is exact: every residual is the rational 0, also
    # away from the default l and k
    for args in ((), (Fraction(7, 3), (Fraction(2, 5), -1, 3, Fraction(1, 2)))):
        res = lemma_matrix_check(eps5, *args)
        assert set(res) == {
            "momentum_commutator", "derivative_lemma", "plane_wave_derivative",
        }
        assert all(type(v) is Fraction and v == 0 for v in res.values()), res
    with pytest.raises(TypeError, match="convert floats explicitly"):
        lemma_matrix_check(eps5, 0.1)
    with pytest.raises(TypeError, match="convert floats explicitly"):
        lemma_matrix_check(eps5, Fraction(1, 10), (1.0, 0, 0, 0))
