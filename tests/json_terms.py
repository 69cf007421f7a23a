"""Term-level cases of the ParamPoly JSON form, ``[[exponents, re, im], ...]``.

``ParamPoly.from_json`` and ``StructureConstants.from_json`` read a
coefficient with one reader, so each case must get the same verdict from
both: ``tests/test_scalars.py`` reads the cases as a ParamPoly and
``tests/test_lie_algebra.py`` as the coefficient of one bracket.
"""

from fractions import Fraction

from ncdirac.scalars import MAX_DEGREE, DegreeBoundError, ExactScalar

# (coefficient part, error, message) of a part that is rejected
BAD_PARTS = [
    ("1/0", ValueError, "coefficient '1/0' has a zero denominator"),
    ("-3/000", ValueError, "zero denominator"),
    ("x", ValueError, "Invalid literal for Fraction: 'x'"),
    ("", ValueError, "Invalid literal for Fraction: ''"),
    ("1/", ValueError, "Invalid literal"),
    (0.5, TypeError, "expected a str or int coefficient, got float"),
    (True, TypeError, "got bool"),
    (None, TypeError, "got NoneType"),
    ("1/00", ValueError, "coefficient '1/00' has a zero denominator"),
]

# (exponent list, error, full message) of an exponent list that is rejected
BAD_EXPONENTS = [
    ([True] + [0] * 9, TypeError, "exponent True is not an integer"),
    ([0.0] * 10, TypeError, "exponent 0.0 is not an integer"),
    ([0] * 9, ValueError, "exponent tuple has wrong length"),
    ([MAX_DEGREE + 1] + [0] * 9, DegreeBoundError,
     f"l^{MAX_DEGREE + 1} exceeds the degree bound {MAX_DEGREE}"),
    ([0, -1] + [0] * 8, ValueError, "negative symbol powers are not stored"),
]

RHO2 = [0, 2] + [0] * 8  # rho^2
_RHO2 = tuple(RHO2)

# (coefficient, error, full message) of a coefficient that is not a list of
# [exponents, re, im] terms; {} and "" are iterable, so a loop over the
# terms alone would read them as zero
BAD_COEFFICIENTS = [
    ({}, TypeError, "coefficient {} is not a list of terms"),
    ("", TypeError, "coefficient '' is not a list of terms"),
    ("x", TypeError, "coefficient 'x' is not a list of terms"),
    (None, TypeError, "coefficient None is not a list of terms"),
    ([[RHO2, "1"]], ValueError, f"term {[RHO2, '1']!r} is not [exponents, re, im]"),
    ([[RHO2, "1", "0", "0"]], ValueError,
     f"term {[RHO2, '1', '0', '0']!r} is not [exponents, re, im]"),
    ([5], ValueError, "term 5 is not [exponents, re, im]"),
]

# name -> (terms, the {exponent tuple: ExactScalar} they read as)
ACCEPTED = {
    # forms to_json never writes that the Fraction fallback accepts
    "plus-sign": ([[RHO2, "+1", "0"]], {_RHO2: ExactScalar(1)}),
    "leading-space": ([[RHO2, " 1", "0"]], {_RHO2: ExactScalar(1)}),
    "underscore": ([[RHO2, "1_0", "0"]], {_RHO2: ExactScalar(10)}),
    "arabic-indic-one": ([[RHO2, "١", "0"]], {_RHO2: ExactScalar(1)}),
    "int-parts": ([[RHO2, 3, -2]], {_RHO2: ExactScalar(3, -2)}),
    # stored in lowest terms
    "two-quarters": ([[RHO2, "2/4", "-6/8"]],
                     {_RHO2: ExactScalar(Fraction(1, 2), Fraction(-3, 4))}),
    # a later term with the same exponents replaces an earlier one
    "repeated-monomial": ([[RHO2, "1", "0"], [RHO2, "5/3", "-7"]],
                          {_RHO2: ExactScalar(Fraction(5, 3), -7)}),
    "repeated-monomial-zeroed": ([[RHO2, "1", "0"], [RHO2, "0", "0/4"]], {}),
    "all-zero": ([[RHO2, "0", "0"], [[0] * 10, "0", "-0"]], {}),
}
