"""The fixture file format: a structure-constant table, and each ParamPoly
coefficient in it, as JSON.

A table is an object ``{"basis": [names], "brackets": {"i,j": entries}}``
with a key for each pair i < j of a nonzero bracket; its entries are
[q, coefficient] pairs, and a coefficient is a list of [exponents, re, im]
terms, the exponents aligned with ``scalars.SYMBOLS`` and each part a
rational as ``str(Fraction)`` writes it.  This module writes and reads
both forms; ``StructureConstants.to_json``/``from_json`` and
``ParamPoly.to_json``/``from_json`` call it, and import it on first use,
so only a command given ``--fixture`` loads it.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import cache
from math import gcd

from .scalars import ParamPoly, _GUARDS, _NSYM, _make, _pack, _packed_poly
from .lie_algebra import StructureConstants

_INT_FIELDS = (int,) * _NSYM
# the coefficient parts str(Fraction) writes: -?digits, -?digits/nonzero
_PLAIN = re.compile(r"-?[0-9]+(?:/0*[1-9][0-9]*)?")


def write_poly(p: ParamPoly) -> list:
    return [
        [list(e), str(c.re), str(c.im)] for e, c in p.terms()
    ]


def read_poly(data: list) -> ParamPoly:
    """Inverse of ``write_poly``.  Exponents are JSON integers (``int``,
    never ``bool`` or ``float``); coefficient parts are str or int.  A
    later term with the same exponents replaces an earlier one."""
    return _packed_poly({m: _make(a, b, d) for _, m, a, b, d in _json_int_terms([[0, data]])})


def write_table(table: StructureConstants) -> dict:
    brackets = {f"{i},{j}": [[k, write_poly(c)] for k, c in table.bracket(i, j).items()]
                for i, j in table.pairs()}
    return {"basis": list(table.basis), "brackets": brackets}


def read_table(data: dict) -> StructureConstants:
    """Parse the fixture format straight into the table's store.  A basis
    that is not a list of strings or is empty, a bracket that is not a list
    of [index, coefficient] pairs, a coefficient that is not a list of
    [exponents, re, im] terms, a malformed entry or term, a key not written
    as ``write_table`` writes it ("i,j" in ASCII digits), an output index or
    exponent that is not a JSON integer, an index outside the basis or a
    pair given twice raises ValueError naming the bracket key."""
    try:
        basis, brackets = data["basis"], data["brackets"].items()
        if type(basis) is not list or not all(type(name) is str for name in basis):
            raise TypeError
    except (AttributeError, KeyError, TypeError):
        raise ValueError("a structure-constant table is an object with a "
                         "'basis' list and a 'brackets' object") from None
    alg = StructureConstants(basis)
    n = len(basis)
    keys = _bracket_keys(n) if n <= _KEYED_BASIS else {}
    seen = {}
    for key, entries in brackets:
        try:
            found = keys.get(key)
            if found is None:  # not a key write_table writes, or a large basis
                if type(key) is not str:
                    raise TypeError("is not a string")
                i, j = map(int, key.split(","))
                # int() also reads "+1", " 1", "1_0", "01" and non-ASCII digits
                if key != f"{i},{j}":
                    raise ValueError(f"is not written as {i},{j}")
                # _store only to raise the error that names the culprit
                if i == j or not (0 <= i < n and 0 <= j < n):
                    alg._store(i, j, [])
                found = i, j
            i, j = found
            pair = found if i < j else (j, i)
            if pair in seen:
                raise ValueError(f"repeats the pair of key {seen[pair]!r}")
            seen[pair] = key
            alg._write(i, j, _json_int_terms(entries, n, key))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bracket key {key!r}: {exc}") from None
    return alg


# the largest basis whose bracket keys ``read_table`` looks up in a map
_KEYED_BASIS = 64


@cache
def _bracket_keys(n: int) -> dict:
    """(i, j) by its key "i,j" for each pair of distinct indices in 0..n-1."""
    return {f"{i},{j}": (i, j) for i, j in itertools.permutations(range(n), 2)}


_PAIRS = "entries must be a list of [index, coefficient] pairs"


def _json_int_terms(entries: list, n: int = 1, bracket: str = "0,0") -> list:
    """The canonical (q, packed monomial, a, b, d) ints of each nonzero term
    (a + b*i)/d of each [q, coefficient] entry of the bracket keyed
    ``bracket``, the coefficient a ParamPoly in its ``write_poly`` form and q a
    distinct int in 0..n-1, read with no ExactScalar built.  A list of ten
    int exponents and the parts "0" and "-?digits(/digits)?" are read here;
    ``_pack`` and ``_rational_parts`` read other lists and parts and raise
    the error of a malformed term."""
    if type(entries) is not list:
        raise TypeError(_PAIRS)
    read = []
    seen = 0  # a bit per output index read
    tidy = False  # whether a term may repeat or be zero
    for entry in entries:
        try:
            q, data = entry
        except (TypeError, ValueError):
            raise TypeError(_PAIRS) from None
        if type(q) is not int:
            raise TypeError(f"output index {q!r} is not an integer")
        if not 0 <= q < n:
            raise ValueError(f"output index {q} of bracket [{bracket}] is outside 0..{n - 1}")
        if seen >> q & 1:
            raise ValueError(f"lists output index {q} twice")
        seen |= 1 << q
        if type(data) is not list:
            raise TypeError(f"coefficient {data!r} is not a list of terms")
        tidy = tidy or len(data) > 1
        for term in data:
            try:
                exps, re_s, im_s = term
            except (TypeError, ValueError):
                raise ValueError(f"term {term!r} is not [exponents, re, im]") from None
            key = _GUARDS  # marks an exponent list left to _pack
            if type(exps) is list and tuple(map(type, exps)) == _INT_FIELDS:
                try:
                    key = int.from_bytes(bytes(exps), "big")
                except ValueError:  # a field below 0 or above 255
                    pass
            elif type(exps) is not list:
                raise TypeError(f"exponents {exps!r} of term {term!r} are not a list")
            elif {*map(type, exps)} != {int}:  # the loop names the culprit
                for e in exps:
                    if type(e) is not int:
                        raise TypeError(f"exponent {e!r} is not an integer")
            # each part read inline: this loop is the hot path of a fixture read
            if re_s == "0":
                rn, rd = 0, 1
            elif type(re_s) is str and _PLAIN.fullmatch(re_s):
                num, _, den = re_s.partition("/")
                rn, rd = int(num), int(den or 1)
            else:
                rn, rd = _rational_parts(re_s)
            if im_s == "0":
                jn, jd = 0, 1
            elif type(im_s) is str and _PLAIN.fullmatch(im_s):
                num, _, den = im_s.partition("/")
                jn, jd = int(num), int(den or 1)
            else:
                jn, jd = _rational_parts(im_s)
            if key & _GUARDS:
                key = _pack(exps)
            a, b, d = rn * jd, jn * rd, rd * jd
            g = gcd(a, b, d)
            read.append((q, key, a, b, d) if g == 1 else (q, key, a // g, b // g, d // g))
            if not (a or b):
                tidy = True
    if tidy:  # a later term with the same (q, exponents) replaces an earlier one
        read = [term for term in {term[:2]: term for term in read}.values() if term[2] or term[3]]
    return read


def _rational_parts(value) -> tuple:
    """(numerator, denominator > 0) of a JSON coefficient part in a form
    ``_json_int_terms`` leaves to it: an int, or a str that ``Fraction``
    accepts.  Floats are rejected, as by ``as_fraction``."""
    if type(value) is int:
        return value, 1
    if type(value) is not str:
        raise TypeError(
            f"expected a str or int coefficient, got {type(value).__name__}"
        )
    try:
        q = Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"coefficient {value!r} has a zero denominator") from None
    return q.numerator, q.denominator
