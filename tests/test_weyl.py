"""Differential-operator realization closes on the flat-momentum algebra."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st
from substitution import substitute

from ncdirac import weyl
from ncdirac.checks import RunConfig, cmd_verify_rep
from ncdirac.lie_algebra import (DEFORMED_BASIS, build_deformed_algebra, contract,
                                 flat_deformed_algebra)
from ncdirac.scalars import I, ExactScalar, poly, sym
from ncdirac.weyl import (
    BRACKET_FAMILIES,
    WeylOperator,
    build_rep,
    verify_rep_closure,
)

_Z5 = (0,) * 5
_E = [tuple(int(i == a) for i in range(5)) for a in range(5)]


def _unit():
    return WeylOperator({(_Z5, _Z5): 1})


def _coordinate(a):
    """xi^a."""
    return WeylOperator({(_E[a], _Z5): 1})


def _derivative(a):
    """d/dxi^a."""
    return WeylOperator({(_Z5, _E[a]): 1})


FAMILY_SIZES = {
    "MM": 21, "MP": 24, "Mx": 24, "PP": 6, "Px": 16, "PC": 4, "xx": 6, "xC": 4,
}


@pytest.mark.parametrize("eps5", [1, -1])
def test_closure_all_families(eps5):
    table = verify_rep_closure(eps5)
    assert set(table) == set(BRACKET_FAMILIES)
    for family, rows in table.items():
        assert len(rows) == FAMILY_SIZES[family]
        for (a, b), remainder in rows:
            assert remainder.is_zero(), f"[{a},{b}] fails for eps5={eps5}"
    assert sum(FAMILY_SIZES.values()) == 105


@pytest.mark.parametrize("eps5", [1, -1])
def test_operator_shapes(eps5):
    rep = build_rep(eps5)
    # momentum is a pure derivative, the central element a shifted derivative
    assert rep["P2"] == _derivative(2).scale(poly(I))
    assert rep["C"] == _unit() + _derivative(4).scale(
        poly(I) * sym("l")
    )
    # coordinate operator: lowered-index multiplication plus an l-sized
    # rotation into the extra direction; eta11 = -1 flips the first two terms
    expected_x1 = (
        _coordinate(1).scale(poly(-1))
        + (_coordinate(1) @ _derivative(4)).scale(
            poly(-I) * sym("l")
        )
        - (_coordinate(4) @ _derivative(1)).scale(
            poly(I * eps5) * sym("l")
        )
    )
    assert rep["x1"] == expected_x1


@pytest.mark.parametrize("eps5", [1, -1])
def test_commutators_match_flat_table(eps5):
    rep = build_rep(eps5)
    got = rep["P0"].commutator(rep["x0"])
    assert (got - rep["C"].scale(poly(I))).is_zero()
    got = rep["x0"].commutator(rep["x1"])
    assert (got - rep["M01"].scale(poly(-I * eps5) * sym("l", 2))).is_zero()
    # momenta commute in the flat-momentum realization
    assert rep["P0"].commutator(rep["P3"]).is_zero()
    got = rep["x0"].commutator(rep["C"])
    assert (got - rep["P0"].scale(poly(I * eps5) * sym("l", 2))).is_zero()


@pytest.mark.parametrize("eps5", [1, -1])
def test_target_is_flat_contraction(eps5):
    # the closure target table equals the rho -> 0 limit of the full algebra,
    # so the realization represents the tangent-space algebra, not the full one
    flat = contract(build_deformed_algebra(1, eps5), rho_to_zero=True)
    ix = {n: k for k, n in enumerate(flat.basis)}
    assert not flat.bracket(ix["P0"], ix["P1"])
    assert flat.bracket(ix["x0"], ix["x1"])


def test_ell_to_zero_restores_multiplication_operator():
    rep = build_rep(-1)

    def at_ell_zero(op):
        return WeylOperator({key: substitute(c, {"l": 0}) for key, c in op.terms.items()})

    # lowered index: eta33 = -1
    assert at_ell_zero(rep["x3"]) == _coordinate(3).scale(poly(-1))
    assert at_ell_zero(rep["C"]) == _unit()


def test_weyl_product_is_associative_on_samples():
    rep = build_rep(1)
    a, b, c = rep["x0"], rep["M01"], rep["C"]
    assert ((a @ b) @ c - a @ (b @ c)).is_zero()


# -- the contraction-only commutator against the full compositions ----------

_ORDERS = st.tuples(*[st.integers(0, 3)] * 5)
_COEFFS = st.builds(
    lambda re, im, a: poly(ExactScalar(re, im)) * sym("l", a),
    st.integers(-4, 4), st.integers(-4, 4), st.integers(0, 3),
)
_OPERATORS = st.dictionaries(st.tuples(_ORDERS, _ORDERS), _COEFFS, max_size=4).map(
    WeylOperator
)


@settings(max_examples=60, deadline=None)
@given(_OPERATORS, _OPERATORS)
def test_commutator_equals_difference_of_compositions(a, b):
    assert a.commutator(b) == (a @ b) - (b @ a)
    assert b.commutator(a) == (b @ a) - (a @ b)


def _reference_closure(rep, eps5):
    """verify_rep_closure's residuals with (a@b) - (b@a) commutators."""
    table = contract(build_deformed_algebra(1, eps5), rho_to_zero=True)
    out = {}
    for i, a in enumerate(DEFORMED_BASIS):
        for j in range(i + 1, len(DEFORMED_BASIS)):
            b = DEFORMED_BASIS[j]
            rhs = WeylOperator()
            for k, coeff in table.bracket(i, j).items():
                rhs = rhs + rep[DEFORMED_BASIS[k]].scale(coeff)
            out[(a, b)] = (rep[a] @ rep[b]) - (rep[b] @ rep[a]) - rhs
    return out


_EDITS = ("negated", "times_l", "extra")


def _edited(rep, rng, kind):
    """(name, rep with one seeded edit of the image of name): one term
    negated, one term times l, or one extra term."""
    name = rng.choice(DEFORMED_BASIS)
    terms = dict(rep[name].terms)
    key = rng.choice(sorted(terms))
    if kind == "negated":
        terms[key] = -terms[key]
    elif kind == "times_l":
        terms[key] = terms[key] * sym("l")
    else:
        while key in terms:
            key = tuple(tuple(rng.randint(0, 2) for _ in range(5)) for _ in range(2))
        terms[key] = poly(ExactScalar(rng.randint(1, 5), rng.randint(-5, 5))) * sym(
            "l", rng.randint(0, 2))
    return name, {**rep, name: WeylOperator(terms)}


def _holds(table, pair, name) -> bool:
    """Whether the image of name enters the residual of pair: as one of its
    generators, or as a term of their bracket in ``table``."""
    i, j = (DEFORMED_BASIS.index(g) for g in pair)
    return name in pair or DEFORMED_BASIS.index(name) in table.bracket(i, j)


@pytest.mark.parametrize("eps5", [1, -1])
@pytest.mark.parametrize("kind", _EDITS)
@pytest.mark.parametrize("seed", range(4))
def test_tampered_realization_gives_the_same_residuals(monkeypatch, eps5, kind, seed):
    name, rep = _edited(build_rep(eps5), random.Random(f"{eps5} {kind} {seed}"), kind)
    monkeypatch.setattr(weyl, "build_rep", lambda e: dict(rep))
    got = {pair: r for rows in verify_rep_closure(eps5).values() for pair, r in rows}
    want = _reference_closure(rep, eps5)
    assert got == want
    # the edit shows, and only in pairs the edited image enters
    broken = [pair for pair, r in got.items() if not r.is_zero()]
    table = flat_deformed_algebra(eps5)
    assert broken and all(_holds(table, pair, name) for pair in broken)


@pytest.mark.parametrize("eps5", [1, -1])
@pytest.mark.parametrize("seed", range(4))
def test_a_flipped_image_fails_exactly_the_families_it_breaks(monkeypatch, eps5, seed):
    # a flipped term of one image: each closure family fails exactly when
    # the oracle breaks one of its pairs, and at eps5 = 1, where the
    # rep_closure rows run, each row counts and names those pairs; every
    # family that fails holds a pair the image enters
    name, rep = _edited(build_rep(eps5), random.Random(f"flip {eps5} {seed}"), "negated")
    table = flat_deformed_algebra(eps5)
    broken = {}
    for (a, b), r in _reference_closure(rep, eps5).items():
        if not r.is_zero():
            broken.setdefault(weyl._family(a, b), []).append((a, b))
    real = weyl.build_rep
    monkeypatch.setattr(weyl, "build_rep", lambda e: dict(rep) if e == eps5 else real(e))
    families = dict(weyl.closure_families(eps5))
    assert {fam: [pair for pair, r in rows if not r.is_zero()]
            for fam, rows in families.items()} == {fam: broken.get(fam, []) for fam in families}
    reports = cmd_verify_rep(RunConfig())
    rows = [r for r in reports if r.check.startswith("rep_closure_")]
    assert [r.params["family"] for r in rows] == sorted(BRACKET_FAMILIES)
    for report in rows:
        bad = broken.get(report.params["family"], []) if eps5 == 1 else []
        assert report.passed == (not bad)
        assert report.details["violations"] == len(bad)
        assert report.details["first_violation"] == (bad[0] if bad else None)
    entered = {weyl._family(*pair) for pair in itertools.combinations(DEFORMED_BASIS, 2)
               if _holds(table, pair, name)}
    assert broken and set(broken) <= entered


# -- malformed keys ----------------------------------------------------------


@pytest.mark.parametrize("key, error", [
    (((0,) * 4, _Z5), ValueError),                  # alpha too short
    ((_Z5, (0,) * 6), ValueError),                  # beta too long
    ((_Z5, (-1, 0, 0, 0, 0)), ValueError),          # negative derivative order
    (((0, 0, -2, 0, 0), _Z5), ValueError),          # negative coordinate order
    (((0.5, 0, 0, 0, 0), _Z5), TypeError),          # float order
    ((_Z5, (0, 1.0, 0, 0, 0)), TypeError),          # integral float order
    (((True, 0, 0, 0, 0), _Z5), TypeError),         # bool order
])
def test_malformed_key_is_rejected(key, error):
    with pytest.raises(error):
        WeylOperator({key: 1})


# -- composition against direct differentiation ------------------------------

def _apply(op, f):
    """op applied to f, a dict exponent 5-tuple -> ParamPoly coefficient:
    each term differentiates f one variable, one order at a time, then
    multiplies by its coordinate monomial."""
    out = {}
    for (alpha, beta), coeff in op.terms.items():
        for gamma, c in f.items():
            gamma, c = list(gamma), c * coeff
            for var, order in enumerate(beta):
                for _ in range(order):
                    c = c * gamma[var]
                    gamma[var] -= 1
            if c.is_zero():
                continue
            key = tuple(g + a for g, a in zip(gamma, alpha))
            out[key] = out.get(key, poly(0)) + c
    return {k: c for k, c in out.items() if not c.is_zero()}


@settings(max_examples=60, deadline=None)
@given(_OPERATORS, _OPERATORS, st.lists(st.tuples(*[st.integers(0, 6)] * 5),
                                        min_size=1, max_size=4))
def test_composition_matches_applying_each_factor(a, b, gammas):
    # the oracle never forms a normal-ordered product: it applies b, then
    # a, to each monomial xi^gamma
    composed = a @ b
    for gamma in gammas:
        f = {gamma: poly(1)}
        assert _apply(composed, f) == _apply(a, _apply(b, f))
