"""Substitution of symbols by exact values or polynomials, coefficient by
coefficient: the tests' reference for the engine's twists and limits,
which substitute nothing themselves.

``substitute(p, bindings)`` sends each bound symbol s of ``p`` to its
value, all at once; ``substituted_table`` does the same to every
coefficient of a structure-constant table.  A value that mentions a bound
symbol would reintroduce what the substitution eliminates, and raises
``SubstitutionError``; an unknown symbol raises ``UnknownSymbolError``.
"""

from table_edits import set_bracket

from ncdirac.lie_algebra import StructureConstants
from ncdirac.scalars import SYMBOLS, ParamPoly, UnknownSymbolError, poly, sym


class SubstitutionError(ValueError):
    """A substitution whose value mentions a bound symbol."""


def _checked(bindings) -> dict:
    """symbol index -> ParamPoly value of each binding, checked."""
    values = {}
    for name, value in bindings.items():
        if name not in SYMBOLS:
            raise UnknownSymbolError(f"unknown symbol {name!r}")
        values[SYMBOLS.index(name)] = poly(value)
    for value in values.values():
        if any(exps[i] for exps, _ in value.terms() for i in values):
            raise SubstitutionError("substitution value reintroduces a bound symbol")
    return values


def substitute(p: ParamPoly, bindings) -> ParamPoly:
    """``p`` with each symbol of ``bindings`` sent to its value at once."""
    values = _checked(bindings)
    total = ParamPoly()
    for exps, coeff in p.terms():
        term = poly(coeff)
        for i, e in enumerate(exps):
            if e:
                term = term * (values[i] ** e if i in values else sym(SYMBOLS[i], e))
        total = total + term
    return total


def substituted_table(table: StructureConstants, bindings) -> StructureConstants:
    """A new table, each coefficient of ``table`` through ``substitute``."""
    _checked(bindings)  # an empty table checks them too
    out = StructureConstants(table.basis)
    for i, j in table.pairs():
        set_bracket(out, i, j, {k: substitute(c, bindings)
                                for k, c in table.bracket(i, j).items()})
    return out
