"""Entrywise complex conjugation of exact polynomials and matrices, for
the tests: the package reads a reality class off a canonical kernel basis
and conjugates only scalars."""

from ncdirac.matrices import ExactMatrix
from ncdirac.scalars import ParamPoly


def conjugate_poly(p: ParamPoly) -> ParamPoly:
    """p with every coefficient conjugated: the symbols are real."""
    return ParamPoly({exps: c.conjugate() for exps, c in p.terms()})


def conjugate(m: ExactMatrix) -> ExactMatrix:
    """m with every entry conjugated."""
    return ExactMatrix([[conjugate_poly(x) for x in row] for row in m.rows])
