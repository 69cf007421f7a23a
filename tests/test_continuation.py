"""The sign-free families: each runs once, at eps5 = 1 (eps4 = eps5 = 1 for
the algebra), and a continuation row carries it to the other signs.

Here every such check also runs directly at the signs the report no longer
prints, and passes; the twist of each continuation row is the only one of
its kind that holds; and a sign flip in the eps5 = -1 data, made in a copy
of its module, fails the continuation row while every row decided at
eps5 = 1 still passes.
"""

import importlib.util
import itertools
import sys
from pathlib import Path

import pytest

from ncdirac import checks, clifford, enveloping, modes, weyl
from ncdirac.checks import RunConfig
from ncdirac.clifford import (clifford_relations, gamma5_product_check,
                              majorana_imaginary_check)
from ncdirac.enveloping import Derivation, lemma_matrix_check, verify_plane_wave_relations
from ncdirac.lie_algebra import (DEFORMED_BASIS, P_LABELS, X_LABELS, build_deformed_algebra,
                                 contract, flat_deformed_algebra, jacobi_residual)
from ncdirac.modes import (dirac_matrix, lorentz_covariance, scaling_residual,
                           squared_identity_residual)
from ncdirac.scalars import P_I, sym
from ncdirac.weyl import build_rep, closure_families

OTHER_PAIRS = [(1, -1), (-1, 1), (-1, -1)]


# -- each carried check, run at the signs the report does not print ----------


@pytest.mark.parametrize("eps4,eps5", OTHER_PAIRS)
def test_jacobi_and_the_limits_hold_at_every_other_sign_pair(eps4, eps5):
    table = build_deformed_algebra(eps4, eps5)
    assert jacobi_residual(table) == []
    for flat, labels in ((flat_deformed_algebra(eps5), P_LABELS),
                         (contract(table, ell_to_zero=True), X_LABELS)):
        index = [flat.index[name] for name in labels]
        assert not any(flat.bracket(i, j) for i, j in itertools.combinations(index, 2))


def test_the_carried_checks_pass_at_eps5_minus_one():
    assert all(r.is_zero() for _, rows in closure_families(-1) for _, r in rows)
    relations = [*clifford_relations(-1), gamma5_product_check(-1), majorana_imaginary_check(-1)]
    assert len(relations) == 17 and all(rc.ok for rc in relations)
    plane_wave = verify_plane_wave_relations(-1)
    assert all(r.is_zero() for r in plane_wave.all_remainders())
    assert plane_wave.vacuum_remainder.is_zero()
    assert all(value == 0 for value in lemma_matrix_check(-1).values())
    assert squared_identity_residual(-1).is_zero()
    assert scaling_residual(-1).is_zero()
    assert lorentz_covariance(-1)["failure"] is None


def test_the_continuation_rows_pass_and_the_carried_rows_say_so():
    rows = checks.cmd_check_all(RunConfig())
    continuation = {r.check: r for r in rows if r.check.endswith("_continuation")}
    assert sorted(continuation) == ["clifford_continuation", "modes_continuation",
                                    "planewave_continuation", "rep_continuation"]
    assert all(r.passed and r.params == {"eps5": -1} and r.details["mismatches"] == 0
               for r in continuation.values())
    once = [r for r in rows if r.check not in continuation and "eps4" not in r.params
            and r.params.get("eps5") == 1 and not r.check.startswith(
                ("dispersion_roots", "modes_reference_", "seesaw_"))]
    assert len(once) == 33  # 8 rep, 17 clifford, 5 planewave and 3 modes rows
    for r in once:
        family = r.check.split("_")[0].replace("dispersion", "modes")
        assert r.relation.endswith(f"; at eps5 = 1, {family}_continuation carries it to "
                                   "eps5 = -1"), r.check


# -- the twist that holds, and the ones that do not ---------------------------


def test_only_l_to_minus_i_l_takes_d_at_plus_one_to_d_at_minus_one():
    minus = dirac_matrix(-1)
    assert [e for e in range(4) if dirac_matrix(1, ell=P_I ** e * sym("l")) == minus] == [3]


def test_only_one_phase_choice_takes_the_realization_at_plus_one_to_minus_one():
    # l -> i l is the twist that takes the flat table at eps5 = 1 to the one
    # at -1; with it, of the quarter turns of xi^4 and d_4 only (1, -1)
    # maps every image
    plus, minus = build_rep(1), build_rep(-1)
    passing = [(xi, d) for xi, d in itertools.product(range(4), repeat=2)
               if all(minus[name] == plus[name].twist(
                   {"l": 1}, lambda key: xi * key[0][4] + d * key[1][4])
                      for name in DEFORMED_BASIS)]
    assert passing == [(1, 3)]
    assert flat_deformed_algebra(1).twist(symbols={"l": 1}).rows == flat_deformed_algebra(-1).rows


def test_only_the_factor_i_takes_d4_at_plus_one_to_minus_one():
    plus, minus = Derivation(1, 4).action, Derivation(-1, 4).action
    for turn in range(4):
        same = all(minus[t] == plus[t].twist({"l": 1}, lambda w: turn) for t in enveloping.TOKENS)
        assert same == (turn == 1), turn


def test_g4_at_minus_one_is_i_g4_at_plus_one_and_no_other_turn():
    plus, minus = clifford._gamma_perms(1), clifford._gamma_perms(-1)
    assert plus[:4] == minus[:4]
    assert [turn for turn in range(4)
            if clifford._perm_product(plus[4], turn=turn) == minus[4]] == [1]


# -- a sign flip in the eps5 = -1 data fails its continuation row -------------


def _mutant(module, old: str, new: str):
    """A copy of ``module`` with the one occurrence of ``old`` in its source
    replaced by ``new``, imported as a sibling in the package, with its own
    caches."""
    source = Path(module.__file__).read_text()
    assert source.count(old) == 1
    name = f"{module.__name__}_mutant"
    spec = importlib.util.spec_from_loader(name, loader=None)
    copy = importlib.util.module_from_spec(spec)
    copy.__package__ = module.__package__
    sys.modules[name] = copy
    try:
        exec(compile(source.replace(old, new), module.__file__, "exec"), copy.__dict__)
    finally:
        del sys.modules[name]
    return copy


MUTANTS = {
    # the eps5 < 0 branch of x_mu's xi^4 d_mu term
    "rep": (weyl, "rep_continuation", "(e[4], e[mu]): il if eps5 < 0 else -il",
            "(e[4], e[mu]): -il if eps5 < 0 else -il"),
    # the eps5 = -1 coefficient of d_4(x_mu), l where it is due
    "planewave": (enveloping, "planewave_continuation",
                  '{(f"p{mu}", C_TOKEN): -eps5 * sym("l")}',
                  '{(f"p{mu}", C_TOKEN): -abs(eps5) * sym("l")}'),
    # g^4 at eps5 = -1 as -i gamma5: it still squares to -1
    "clifford": (clifford, "clifford_continuation",
                 "g5 if eps5 == 1 else _perm_product(g5, turn=1)",
                 "g5 if eps5 == 1 else _perm_product(g5, turn=3)"),
}


@pytest.mark.parametrize("family", sorted(MUTANTS))
def test_a_sign_flip_at_minus_one_fails_only_the_continuation_row(monkeypatch, family):
    module, function, old, new = MUTANTS[family]
    copy = _mutant(module, old, new)
    monkeypatch.setattr(checks, function, getattr(copy, function))
    rows = checks.command(checks.FAMILIES[family][0])(RunConfig())
    assert [r.check for r in rows if not r.passed] == [f"{family}_continuation"]
    [row] = [r for r in rows if not r.passed]
    assert row.residual == row.details["mismatches"] > 0


def test_the_gamma_flip_fails_the_modes_continuation_too(monkeypatch):
    # D(k) at eps5 = -1 reads g^4 there, so the same flip shows in D
    copy = _mutant(clifford, *MUTANTS["clifford"][2:])
    monkeypatch.setattr(clifford, "_gamma_perms", copy._gamma_perms)
    assert modes.modes_continuation() == (2, ["D(k)"])
