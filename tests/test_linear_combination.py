"""The laws NCExpression and WeylOperator share through LinearCombination.

Each law is checked against a plain-dict oracle that adds ParamPoly
coefficients key by key and never calls the classes' own arithmetic.
"""

import pytest
from hypothesis import given, settings, strategies as st

from ncdirac.enveloping import NCExpression, _d4, normal_form
from ncdirac.scalars import P_ZERO, ExactScalar, poly, sym
from ncdirac.weyl import LinearCombination, WeylOperator

_Z5 = (0,) * 5
_E0 = (1, 0, 0, 0, 0)

# few keys and small coefficients, so that sums often cancel
_KEYS = {
    NCExpression: st.lists(st.sampled_from(("x0", "p0", "C")), max_size=2).map(tuple),
    WeylOperator: st.tuples(st.sampled_from((_Z5, _E0)), st.sampled_from((_Z5, _E0))),
}
_COEFFS = st.builds(
    lambda re, im, a: poly(ExactScalar(re, im)) * sym("l", a),
    st.integers(-2, 2), st.integers(-1, 1), st.integers(0, 1),
)
_CLASSES = pytest.mark.parametrize("cls", [NCExpression, WeylOperator])
_UNIT_KEYS = {NCExpression: (), WeylOperator: (_Z5, _Z5)}


def _terms(cls):
    return st.dictionaries(_KEYS[cls], _COEFFS, max_size=4)


def _oracle(*scaled):
    """sum of factor * dict over (factor, dict) pairs, zeros dropped."""
    out = {}
    for factor, terms in scaled:
        for key, coeff in terms.items():
            out[key] = out.get(key, P_ZERO) + poly(factor) * coeff
    return {key: coeff for key, coeff in out.items() if not coeff.is_zero()}


def _zero_free(value: LinearCombination) -> bool:
    return all(not c.is_zero() for c in value.terms.values())


@_CLASSES
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_shared_laws(cls, data):
    ta, tb = data.draw(_terms(cls)), data.draw(_terms(cls))
    f = data.draw(_COEFFS)
    a, b = cls(ta), cls(tb)
    results = [a, b, a + b, a - b, -a, a + (-a), (a + b) - b, a.scale(f), a.scale(0)]
    assert all(_zero_free(r) for r in results)

    assert a.terms == _oracle((1, ta))
    assert (a + b).terms == _oracle((1, ta), (1, tb))
    assert (a - b).terms == _oracle((1, ta), (-1, tb))
    assert (-a).terms == _oracle((-1, ta))
    assert (a + b) - b == a
    assert (a + (-a)).terms == {}
    assert a.scale(0).terms == {} and a.scale(0).is_zero()
    assert (a + b).scale(f) == a.scale(f) + b.scale(f)
    assert a.scale(f).terms == _oracle((f, ta))

    # equal values hash equally, whatever order their terms were made in
    assert a + b == b + a and hash(a + b) == hash(b + a)
    reordered = cls(dict(reversed(list(ta.items()))))
    assert reordered == a and hash(reordered) == hash(a)


@_CLASSES
@pytest.mark.parametrize("operand", [None, 0, 1, poly(1), "x0"])
def test_foreign_operands(cls, operand):
    value = cls({_UNIT_KEYS[cls]: 1})
    assert (value == operand) is False
    assert (value != operand) is True
    for apply in (lambda: value + operand, lambda: value - operand,
                  lambda: operand + value, lambda: operand - value):
        with pytest.raises(TypeError):
            apply()


def test_the_two_classes_do_not_mix():
    weyl_unit = WeylOperator({(_Z5, _Z5): 1})
    assert NCExpression.unit() != weyl_unit
    with pytest.raises(TypeError):
        NCExpression.unit() + weyl_unit


@pytest.mark.parametrize("cls, key", [
    (NCExpression, ("foo",)),
    (NCExpression, ("x0", "bogus")),
    (NCExpression, "x0"),  # a string is not a word of tokens
    (WeylOperator, ((0,) * 4, _Z5)),
    (WeylOperator, (_Z5, (-1, 0, 0, 0, 0))),
])
def test_unknown_key_raises_at_construction(cls, key):
    with pytest.raises(ValueError):
        cls({key: 1})


def test_unknown_tokens_never_reach_the_rewriting():
    with pytest.raises(ValueError, match="unknown generator 'foo'"):
        normal_form(NCExpression({("foo",): 1}), 1)
    with pytest.raises(ValueError, match="unknown generator 'bogus'"):
        _d4(NCExpression({("x0", "bogus"): 1}), 1)
    with pytest.raises(ValueError, match="unknown generator"):
        NCExpression.gen("bogus")


@pytest.mark.parametrize("operand", [2, poly(2)])
def test_scalars_act_through_scale_only(operand):
    x = NCExpression.gen("x0")
    for apply in (lambda: x * operand, lambda: operand * x):
        with pytest.raises(TypeError):
            apply()
    assert x.scale(operand) == NCExpression.gen("x0", 2)


def test_words_reads_the_terms():
    x = NCExpression({("x0", "p0"): 3})
    assert x.words is x.terms
    assert x.words == {("x0", "p0"): poly(3)}
