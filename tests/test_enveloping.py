"""Word rewriting engine and the plane-wave exponent identities."""

import importlib.util
import json
import random
from fractions import Fraction

import lemma_oracle
import pytest
from conjugation import conjugate_poly
from hypothesis import given, settings, strategies as st

from ncdirac import checks, enveloping
from ncdirac.cli import main
from ncdirac.enveloping import (
    CINV_TOKEN,
    C_TOKEN,
    P_TOKENS,
    TOKENS,
    NCExpression,
    _bracket_expansion,
    _d4,
    lemma_matrix_check,
    normal_form,
    plane_wave_exponent,
    project_vacuum,
    verify_plane_wave_relations,
)
from ncdirac.lie_algebra import DEFORMED_BASIS, build_deformed_algebra, contract
from ncdirac.scalars import I, ExactScalar, poly, sym


def commutator(a: NCExpression, b: NCExpression) -> NCExpression:
    """a*b - b*a, the definition: the oracle of ``_bracket_expansion``,
    which the package brackets words with instead."""
    return a * b - b * a


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


def test_inverse_words_need_no_truncation_order():
    # every rule is exact, so a Cinv word normal-orders with no order, and
    # an order large enough drops nothing
    expr = word(CINV_TOKEN, CINV_TOKEN, "x0", "x1")
    got = normal_form(expr, -1)
    assert any(CINV_TOKEN in w for w in got.terms)
    assert got == normal_form(expr, -1, order=9)
    assert normal_form(word(CINV_TOKEN, "x0"), -1) == word("x0", CINV_TOKEN) + word(
        "p0", CINV_TOKEN, CINV_TOKEN).scale(poly(-I) * sym("l", 2))


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
    # d_a = -i [Y_a, .] with Y = (p_0, ..., p_3, C^2/(2l)): the derivations
    # commute because the Y_a do
    frame = [word(p) for p in P_TOKENS] + [word(C_TOKEN, C_TOKEN)]
    for ya in frame:
        for yb in frame:
            assert normal_form(commutator(ya, yb), eps5).is_zero()
    # Leibniz on a product of two coordinates
    lhs = _d4(word("x0", "x1"), eps5)
    rhs = normal_form(_d4(word("x0"), eps5) * word("x1") + word("x0") * _d4(word("x1"), eps5),
                      eps5)
    assert lhs == rhs


@pytest.mark.parametrize("eps5", [1, -1])
def test_derivative_action_values(eps5):
    assert _d4(word("x2"), eps5) == word("p2", C_TOKEN).scale(poly(-eps5) * sym("l"))
    assert _d4(word("x2"), eps5, order=0).is_zero()  # truncated after the division by l
    # momenta, rotations, C and the inverse letter are annihilated
    assert all(_d4(word(t), eps5).is_zero() for t in TOKENS if t[0] != "x")


def test_d4_needs_l_in_every_term_of_the_bracket(monkeypatch):
    # with [C, x_0] read as -i p_0, [C^2, x_0] has no l to divide by
    rules = enveloping._swap_rules(1)
    monkeypatch.setitem(rules, (C_TOKEN, "x0"), {("p0",): poly(-I)})
    enveloping._nf_word.cache_clear()
    try:
        with pytest.raises(ValueError, match="without l"):
            _d4(word("x0"), 1)
    finally:
        enveloping._nf_word.cache_clear()


def _adjoint(expr: NCExpression) -> NCExpression:
    """The formal adjoint: every generator is self-conjugate, so a word
    conjugates to its reversal and i goes to -i in the coefficients."""
    return NCExpression({tuple(reversed(w)): conjugate_poly(c) for w, c in expr.terms.items()})


@pytest.mark.parametrize("eps5", [1, -1])
def test_exponent_is_antihermitian(eps5):
    a = plane_wave_exponent()
    assert (_adjoint(a) + a).is_zero()
    assert normal_form(_adjoint(a) + a, eps5).is_zero()


@pytest.mark.parametrize("eps5", [1, -1])
def test_plane_wave_identities_exact(eps5):
    chk = verify_plane_wave_relations(eps5)
    assert all(r.is_zero() for r in chk.momentum_remainders)
    assert chk.centrality_remainders == []
    assert chk.derivative_remainder.is_zero()
    assert chk.mixed_remainder.is_zero()
    k_squared = sym("k0", 2) - sym("k1", 2) - sym("k2", 2) - sym("k3", 2)
    expect = poly(ExactScalar(0, Fraction(1, 2)) * eps5) * sym("l") * k_squared
    assert chk.vacuum_scalar == expect
    assert chk.vacuum_remainder.is_zero()


def test_vacuum_projection_rules():
    expr = word("p0").scale(sym("k1")) + NCExpression.unit(poly(3))
    assert project_vacuum(expr) == sym("k1") * sym("k0") + poly(3)
    with pytest.raises(ValueError):
        project_vacuum(word("x0"))


@pytest.mark.parametrize("eps5", [1, -1])
def test_numeric_exponential_model(eps5):
    # the nilpotent model is exact: every residual is the rational 0
    res = lemma_matrix_check(eps5)
    assert set(res) == {
        "momentum_commutator", "derivative_lemma", "plane_wave_derivative",
    }
    assert all(type(v) is Fraction and v == 0 for v in res.values()), res


def _typed(residuals: dict) -> list:
    return [(key, type(value), value) for key, value in residuals.items()]


@pytest.mark.parametrize("eps5", [1, -1])
def test_lemma_matches_the_param_poly_model(eps5):
    # the coefficient-list kernel gives the residual dict of the model
    # written on ParamPoly in x: keys in order, types and values
    assert _typed(lemma_matrix_check(eps5)) == _typed(lemma_oracle.lemma_matrix_check(eps5))


@pytest.mark.parametrize("eps5", [1, -1])
@pytest.mark.parametrize("square", [
    lambda k: k[0] * k[0],
    lambda k: k[0] * k[0] - k[3] * k[3] + k[1] * k[2],
])
def test_lemma_residuals_match_the_model_when_they_are_not_zero(monkeypatch, eps5, square):
    # a wrong k^2 in c = -i eps5 l k^2 leaves the model's lemma exact but
    # breaks dA = i eps5 l k.p: both kernels report the same nonzero value
    for module in (enveloping, lemma_oracle):
        monkeypatch.setattr(module, "minkowski_square", square)
    got = lemma_matrix_check(eps5)
    assert got["plane_wave_derivative"] > 0
    assert _typed(got) == _typed(lemma_oracle.lemma_matrix_check(eps5))


def test_a_negated_plane_wave_scale_fails_its_three_rows(monkeypatch, capsys):
    # i eps5 l is formed once, in plane_wave_scale: negated there, the rows
    # that compare with it fail for both eps5, while the lemma row passes,
    # since the lemma holds for any central [A, dA]
    scale = enveloping.plane_wave_scale
    monkeypatch.setattr(enveloping, "plane_wave_scale", lambda eps5: -scale(eps5))
    assert main(["check", "all", "--seed", "42"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["total"] == 49
    # the rows run at eps5 = 1, and the scale at -1 is the twist of the one
    # at +1, so the negation reaches both signs alike
    failed = {(r["check"], r["params"]["eps5"]) for r in doc["reports"] if r["status"] == "fail"}
    assert failed == {(check, 1) for check in (
        "planewave_derivative", "planewave_mixed", "planewave_vacuum")}


def random_expression(rng: random.Random) -> NCExpression:
    """Up to three words of length <= 3 over all 16 tokens, with
    coefficients in Q(i)[l, k0..k3]."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        word = tuple(rng.choice(TOKENS) for _ in range(rng.randint(0, 3)))
        scalar = ExactScalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2))
        terms[word] = (poly(scalar) * sym("l", rng.randint(0, 2))
                       * sym(f"k{rng.randrange(4)}", rng.randint(0, 2)))
    return NCExpression(terms)


@pytest.mark.parametrize("leftmost", [True, False])
@pytest.mark.parametrize("order", [4, 6])
@pytest.mark.parametrize("eps5", [1, -1])
def test_bracket_expansion_matches_the_definition(eps5, order, leftmost):
    rng = random.Random(f"bracket-expansion:{eps5}:{order}:{leftmost}")
    for _ in range(20):
        a, b = random_expression(rng), random_expression(rng)
        got = normal_form(_bracket_expansion(a, b, eps5), eps5, order, leftmost)
        assert got == normal_form(commutator(a, b), eps5, order, leftmost), (a, b)


def _own_enveloping():
    """A second copy of the module, with its own swap rules and memo, so a
    tampered rule neither meets a memoised normal form nor leaves one."""
    spec = importlib.util.spec_from_file_location("ncdirac._own_enveloping",
                                                  enveloping.__file__)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mu", [0, 2])
@pytest.mark.parametrize("eps5", [1, -1])
def test_flipped_swap_rule_fails_the_plane_wave_rows(monkeypatch, eps5, mu):
    # [x_mu, p_mu] is the rule the momentum and mixed identities rest on;
    # the Cinv rule cancels out of every plane-wave row.
    # Flipped at eps5 it breaks those identities there, run directly; the
    # rows run at eps5 = 1 and fail when it is flipped there.  The rules at
    # -1 are read off the twist of the table at +1, and no row reads them
    own = _own_enveloping()
    rules = own._swap_rules(eps5)
    key = (f"x{mu}", f"p{mu}")
    monkeypatch.setitem(rules, key, {w: -c for w, c in rules[key].items()})
    direct = own.verify_plane_wave_relations(eps5)
    assert not all(r.is_zero() for r in direct.momentum_remainders)
    assert not direct.mixed_remainder.is_zero()
    monkeypatch.setattr(checks, "verify_plane_wave_relations", own.verify_plane_wave_relations)
    rows = checks.cmd_verify_planewave(checks.RunConfig())
    failed = {r.check for r in rows if not r.passed}
    assert ({"planewave_momentum", "planewave_mixed"} <= failed) if eps5 == 1 else not failed


@pytest.mark.parametrize("mu", range(4))
def test_flipped_c_rule_fails_the_rows_that_read_d4(mu):
    # d_4 = -(i/2l)[C^2, .] is read off [C, x_mu], so the report's rows that
    # read d_4(A) fail when that rule is flipped in the shared rules
    rules, key = enveloping._swap_rules(1), (C_TOKEN, f"x{mu}")
    rule = rules[key]
    rules[key] = {w: -c for w, c in rule.items()}
    enveloping._nf_word.cache_clear()
    try:
        rows = list(checks.cmd_verify_planewave(checks.RunConfig()))
    finally:
        rules[key] = rule
        enveloping._nf_word.cache_clear()
    failed = {r.check for r in rows if not r.passed}
    assert {"planewave_derivative", "planewave_mixed", "planewave_vacuum"} <= failed


def _overlaps(module, eps5) -> tuple:
    """(overlaps, unresolved) of the rewriting system in ``module``: the
    words abc in which ab and bc are both reducible, and those of them whose
    normal forms after reducing ab first and bc first differ.  By Bergman's
    diamond lemma (Adv. Math. 29 (1978) 178) the normal form is unique, and
    the normal words are a basis, exactly when every overlap resolves."""
    cinv = {C_TOKEN, CINV_TOKEN}

    def reducible(a, b):
        return module._RANK[a] > module._RANK[b] or (a, b) == (C_TOKEN, CINV_TOKEN)

    def reduce_at(word, i):
        a, b = word[i], word[i + 1]
        head, tail = word[:i], word[i + 2:]
        if {a, b} == cinv:
            return module.NCExpression({head + tail: 1})
        rule = module._swap_rules(eps5).get((a, b), {})
        return (module.NCExpression({head + (b, a) + tail: 1})
                + module.NCExpression({head + w + tail: c for w, c in rule.items()}))

    overlaps = [(a, b, c) for a in TOKENS for b in TOKENS for c in TOKENS
                if reducible(a, b) and reducible(b, c)]
    unresolved = [w for w in overlaps
                  if module.normal_form(reduce_at(w, 0), eps5)
                  != module.normal_form(reduce_at(w, 1), eps5)]
    return len(overlaps), unresolved


@pytest.mark.parametrize("eps5", [1, -1])
def test_every_overlap_resolves(eps5):
    assert _overlaps(enveloping, eps5) == (576, [])


@pytest.mark.parametrize("key,count,witnesses", [
    # the derived [Cinv, x1] = -Cinv [C, x1] Cinv
    ((CINV_TOKEN, "x1"), 8, {(C_TOKEN, CINV_TOKEN, "x1"), (CINV_TOKEN, C_TOKEN, "x1")}),
    # [C, x1], with the derived Cinv rule left as it was
    ((C_TOKEN, "x1"), 11, {("x1", "x0", "p0"), (C_TOKEN, "x0", "M01")}),
])
@pytest.mark.parametrize("eps5", [1, -1])
def test_a_negated_c_rule_leaves_overlaps_unresolved(eps5, key, count, witnesses):
    # both rules cancel out of every plane-wave row; the overlaps see them
    own = _own_enveloping()
    rules = own._swap_rules(eps5)
    rules[key] = {w: -c for w, c in rules[key].items()}
    overlaps, unresolved = _overlaps(own, eps5)
    assert (overlaps, len(unresolved)) == (576, count)
    assert witnesses <= set(unresolved)


@pytest.mark.parametrize("eps5", [1, -1])
def test_a_remainder_of_high_ell_degree_fails_its_row(monkeypatch, eps5):
    # the identities are exact: a row passes on a zero remainder only,
    # however high the l-degree of what is left
    class Tampered(enveloping.PlaneWaveCheck):
        @property
        def mixed_remainder(self):
            return super().mixed_remainder + NCExpression.unit(sym("l", 9))

        @property
        def vacuum_scalar(self):
            return super().vacuum_scalar + sym("l", 9)

    monkeypatch.setattr(checks, "verify_plane_wave_relations",
                        lambda e5, *order: Tampered(e5))
    rows = {r.check: r for r in checks.cmd_verify_planewave(checks.RunConfig(eps5=eps5))}
    assert not rows["planewave_mixed"].passed
    assert rows["planewave_mixed"].details == {"exactly_zero": False}
    assert not rows["planewave_vacuum"].passed
    assert str(rows["planewave_vacuum"].details["value"]).endswith("l^9")
    assert rows["planewave_momentum"].passed


@pytest.mark.parametrize("eps5", [7, "a", 0, -2])
def test_normal_form_refuses_a_bad_sign_before_the_memo(eps5):
    # a word no swap rule reads once came back as itself at any eps5, and
    # the memo kept an entry under the bad key
    enveloping._nf_word.cache_clear()
    for expr in (NCExpression({("p0", "x1"): 1}), NCExpression({("x1", "p0"): 1})):
        with pytest.raises(ValueError, match="eps5 must be"):
            normal_form(expr, eps5)
    assert enveloping._nf_word.cache_info().currsize == 0


def test_normal_form_memo_has_an_owner():
    enveloping._nf_word.cache_clear()
    assert enveloping._nf_word.cache_info().currsize == 0
    verify_plane_wave_relations(-1).momentum_remainders
    assert enveloping._nf_word.cache_info().currsize > 0
    enveloping._nf_word.cache_clear()
    assert enveloping._nf_word.cache_info().currsize == 0


def test_normal_form_hands_out_fresh_expressions():
    expr = word(CINV_TOKEN, "x0")
    first = normal_form(expr, 1, order=4)
    expect = NCExpression(first.terms)
    first.terms.clear()
    assert normal_form(expr, 1, order=4) == expect != first
    # a word already in normal form comes back as a new expression too
    single = normal_form(word("x0"), 1)
    single.terms[("x0",)] = poly(7)
    assert normal_form(word("x0"), 1) == word("x0")
