"""The twist: each table is built at the sign pair (1, 1), and the other
pairs and the contractions are its exact twists.

The references are ``table_oracle``'s per-sign builds and, on arbitrary
tables and polynomials, a change of basis and two substitutions through a
spare symbol (``substitution``, the tests' coefficient-by-coefficient
oracle: the engine substitutes nothing).
"""

import itertools
import random

import pytest
from table_edits import set_bracket
from substitution import substitute, substituted_table
from table_oracle import deformed_table, isomorphism_source, orthogonal_table
from test_lie_algebra import SIGNS, _arbitrary_poly, _assert_same_table, _rescaled

import ncdirac.lie_algebra as lie
from ncdirac.checks import RunConfig, cmd_check_all, cmd_verify_algebra
from ncdirac.lie_algebra import (StructureConstants, build_deformed_algebra,
                                 build_orthogonal_algebra, contract, flat_deformed_algebra)
from ncdirac.scalars import I, UnknownSymbolError, sym


def _clear_tables():
    for builder in (lie._deformed_base, lie._deformed_table, lie._flat_table,
                    lie._orthogonal_base, lie._orthogonal_table):
        builder.cache_clear()


@pytest.fixture
def cold_tables():
    """Empty table caches for the test, and again after it."""
    _clear_tables()
    yield
    _clear_tables()


@pytest.mark.parametrize("eps4,eps5", SIGNS)
def test_every_twisted_table_equals_its_per_sign_build(eps4, eps5):
    deformed = deformed_table(eps4, eps5)
    _assert_same_table(build_deformed_algebra(eps4, eps5), deformed)
    _assert_same_table(build_orthogonal_algebra(eps4, eps5), orthogonal_table(eps4, eps5))
    _assert_same_table(lie._isomorphism_source(eps4, eps5), isomorphism_source(eps4, eps5))
    _assert_same_table(flat_deformed_algebra(eps5), substituted_table(deformed, {"rho": 0}))
    for limit, bindings in (({"rho_to_zero": True}, {"rho": 0}),
                            ({"ell_to_zero": True}, {"l": 0}),
                            ({"rho_to_zero": True, "ell_to_zero": True}, {"rho": 0, "l": 0})):
        _assert_same_table(contract(build_deformed_algebra(eps4, eps5), **limit),
                           substituted_table(deformed, bindings))


def _seeded_table(rng):
    """Six generators, about 70 % of the pairs set to up to three
    coefficients in l, rho, r, m and k0; v is left free."""
    table = StructureConstants(tuple(f"e{a}" for a in range(6)))
    for i, j in itertools.combinations(range(6), 2):
        if rng.random() < 0.7:
            set_bracket(table, i, j, {k: _arbitrary_poly(rng)
                                      for k in rng.sample(range(6), rng.randint(1, 3))})
    return table


def _reference_twist(table, phases, symbols, zero):
    """The basis i^p_k e_k, then each symbol s -> i^e s through the spare
    symbol v, then each symbol of ``zero`` -> 0."""
    out = _rescaled(table, [I ** (p % 4) for p in phases])
    for name, e in symbols.items():
        out = substituted_table(substituted_table(out, {name: sym("v") * I ** (e % 4)}),
                                {"v": sym(name)})
    return substituted_table(out, dict.fromkeys(zero, 0)) if zero else out


def test_twist_matches_a_change_of_basis_and_substitutions():
    rng = random.Random("twist")
    for _ in range(30):
        table = _seeded_table(rng)
        phases = [rng.randint(-5, 5) for _ in table.basis]
        symbols = {name: rng.randint(-3, 6)
                   for name in rng.sample(("l", "rho", "r", "m", "k0"), rng.randint(0, 3))}
        zero = tuple(rng.sample(("l", "rho", "r", "m"), rng.randint(0, 2)))
        got = table.twist(phases, symbols, zero)
        _assert_same_table(got, _reference_twist(table, phases, symbols, zero))
        for row in got.rows:  # canonical terms in store order
            for terms in row.values():
                assert terms and list(terms) == sorted(terms)
                assert all(d > 0 and (a or b) for _, _, a, b, d in terms)


def test_an_untouched_pair_keeps_its_term_tuples():
    table = build_deformed_algebra(1, -1)
    same = table.twist()
    assert same is not table and same.rows is not table.rows
    assert all(same.rows[i][j] is terms for i, row in enumerate(table.rows)
               for j, terms in row.items())
    # l -> i l turns only the pairs whose terms hold l^2, and the limit
    # rho -> 0 drops only those that hold rho
    turned = table.twist(symbols={"l": 1}, zero=("rho",))
    ell2, rho = (lie._int_terms(sym(*s))[0][0] for s in (("l", 2), ("rho",)))
    for i, row in enumerate(table.rows):
        for j, terms in row.items():
            monos = {mono for _, mono, *_ in terms}
            if monos == {0}:
                assert turned.rows[i][j] is terms
            elif monos == {rho}:
                assert j not in turned.rows[i]
            else:
                assert monos == {ell2}
                assert turned.rows[i][j] == tuple((q, m, -a, -b, d) for q, m, a, b, d in terms)


def test_a_symbol_named_twice_in_zero_is_sent_to_zero_once():
    # the seeded tables hold l to the powers 0..3, odd ones included
    rng = random.Random("zero twice")
    for _ in range(5):
        table = _seeded_table(rng)
        _assert_same_table(table.twist(zero=("l", "rho", "l")),
                           substituted_table(table, {"l": 0, "rho": 0}))


def test_twist_checks_its_phases_and_symbols():
    table = build_deformed_algebra(1, 1)
    with pytest.raises(ValueError, match="14 phases for a basis of 15"):
        table.twist([0] * 14)
    with pytest.raises(UnknownSymbolError):
        table.twist(symbols={"zzz": 1})
    with pytest.raises(UnknownSymbolError):
        table.twist(zero=("zzz",))


def _wrong_phase(monkeypatch, which):
    """Give the orthogonal twist of M04, or the source twist of r, one
    quarter turn too many."""
    twist = StructureConstants.twist

    def wrong(self, phases=None, symbols=None, zero=()):
        if which == "M04" and phases is not None:
            phases = [p + (k == 3) for k, p in enumerate(phases)]  # M04 is index 3
        if which == "r" and symbols and "r" in symbols:
            symbols = {**symbols, "r": symbols["r"] + 1}
        return twist(self, phases, symbols, zero)

    monkeypatch.setattr(StructureConstants, "twist", wrong)


@pytest.mark.parametrize("which", ["M04", "r"])
def test_a_wrong_phase_fails_the_per_sign_builds_and_the_isomorphism_row(
        monkeypatch, cold_tables, which):
    _wrong_phase(monkeypatch, which)
    assert lie._SIX_PAIRS[3] == (0, 4)
    for eps4, eps5 in SIGNS:
        got, want = ((lie._orthogonal_table(eps4, eps5), orthogonal_table(eps4, eps5))
                     if which == "M04" else
                     (lie._isomorphism_source(eps4, eps5), isomorphism_source(eps4, eps5)))
        assert got.rows != want.rows
    # the isomorphism row runs once, at (1, 1), and the wrong turn reaches it
    rows = [r for r in cmd_verify_algebra(RunConfig()) if r.check == "isomorphism"]
    assert len(rows) == 1 and not rows[0].passed


def test_the_curvature_r_squared_base_is_the_substituted_one(cold_tables):
    # the isomorphism's source is built with r^2 for rho, not substituted
    _assert_same_table(lie._deformed_base(lie._R2),
                       substituted_table(lie._deformed_base(lie._RHO), {"rho": sym("r", 2)}))


def test_poly_twist_matches_substitutions_through_a_spare_symbol():
    rng = random.Random("poly twist")
    for _ in range(40):
        p = _arbitrary_poly(rng)
        symbols = {name: rng.randint(-3, 6)
                   for name in rng.sample(("l", "rho", "r", "m", "k0"), rng.randint(0, 3))}
        turn = rng.randint(-5, 5)
        want = p * I ** (turn % 4)
        for name, e in symbols.items():
            want = substitute(substitute(want, {name: sym("v") * I ** (e % 4)}),
                              {"v": sym(name)})
        assert p.twist(symbols, turn) == want


def test_a_cold_check_all_sets_three_rotation_tables_and_one_l_limit(monkeypatch, cold_tables):
    # the deformed table at (1, 1), with rho and with r^2 for rho, and the
    # orthogonal one each set their rotations once, and nothing is
    # substituted: every other sign pair and every limit is a twist.  The
    # contraction row runs once, so one twist sends l to 0
    calls = {"rotations": 0, "l_limits": 0}

    def counted(name, function):
        def run(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return run

    twist = StructureConstants.twist

    def counted_twist(self, phases=None, symbols=None, zero=()):
        calls["l_limits"] += "l" in zero
        return twist(self, phases, symbols, zero)

    monkeypatch.setattr(lie, "_rotation_brackets", counted("rotations", lie._rotation_brackets))
    monkeypatch.setattr(StructureConstants, "twist", counted_twist)
    assert all(r.passed for r in cmd_check_all(RunConfig(seed=42)))
    assert calls == {"rotations": 3, "l_limits": 1}
    assert not hasattr(StructureConstants, "substitute")
