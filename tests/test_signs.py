"""The two signs of eps5: the data at eps5 = -1 is built as the twist of the
data at +1, and each identity that holds at every sign is decided once,
at eps5 = 1 (eps4 = eps5 = 1 for the algebra).

Here every such check also runs directly at the signs the report no longer
prints, and passes; each datum the engine derives equals its per-sign
typed copy in ``sign_oracle``, and a sign edit in the oracle fails that
comparison; the twist the engine uses is the only one of its kind that
takes +1 to the typed -1; a sign flip in the +1 data, made in a copy of
the package, fails a row of check all; and every public definition with
an eps5 parameter refuses any value but +1 and -1.
"""

import importlib.util
import itertools
from fractions import Fraction
from pathlib import Path

import pytest
import sign_oracle
from exact_gammas import exact_gammas
from package_mutant import failed_rows
from signed_calls import SIGNED

from ncdirac import checks, enveloping, modes
from ncdirac.checks import RunConfig
from ncdirac.clifford import (clifford_relations, gamma5_product_check,
                              majorana_imaginary_check)
from ncdirac.enveloping import _d4, lemma_matrix_check, normal_form, verify_plane_wave_relations
from ncdirac.lie_algebra import (DEFORMED_BASIS, P_LABELS, X_LABELS, build_deformed_algebra,
                                 contract, flat_deformed_algebra, jacobi_residual, quarter,
                                 solve_isomorphism_scalings, verify_linear_isomorphism)
from ncdirac.modes import (dirac_matrix, lorentz_covariance, operator_residual,
                           reference_solutions, scaling_residual, squared_identity_residual)
from ncdirac.scalars import P_I, sym
from ncdirac.weyl import build_rep, closure_families

OTHER_PAIRS = [(1, -1), (-1, 1), (-1, -1)]


def _row(command, check: str):
    """The one row ``check`` of ``command``'s report, run at its defaults."""
    [row] = [r for r in command(RunConfig()) if r.check == check]
    return row


# -- each carried check, run at the signs the report does not print ----------


@pytest.mark.parametrize("eps4,eps5", OTHER_PAIRS)
def test_jacobi_and_the_limits_hold_at_every_other_sign_pair(eps4, eps5):
    table = build_deformed_algebra(eps4, eps5)
    assert jacobi_residual(table) == []
    for flat, labels in ((flat_deformed_algebra(eps5), P_LABELS),
                         (contract(table, ell_to_zero=True), X_LABELS)):
        index = [flat.index[name] for name in labels]
        assert not any(flat.bracket(i, j) for i, j in itertools.combinations(index, 2))
    # the isomorphism row, decided at (1, 1), holds here with the same map
    sol, row = solve_isomorphism_scalings(eps4, eps5), _row(checks.cmd_verify_algebra, "isomorphism")
    assert row.params == {"eps4": 1, "eps5": 1}
    assert {"alpha": sol.alpha, "beta": sol.beta, "gamma": sol.gamma,
            "passing_sign_choices": sol.passing_sign_choices} == {
        key: row.details[key] for key in ("alpha", "beta", "gamma", "passing_sign_choices")}
    assert verify_linear_isomorphism(sol.map).ok


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
    # the massless kernel, decided at eps5 = 1, is the same at -1
    sol, row = reference_solutions(Fraction(2), -1, "massless"), _row(
        checks.cmd_modes, "modes_reference_massless")
    assert row.params == {"eps5": 1}
    assert {"k": [str(c) for c in sol.k], "nullspace_dim": len(sol.basis),
            "class": sol.spinor_class} == row.details
    assert max(operator_residual(sol.operator, u) for u in sol.basis) == 0 == row.residual


TWISTS = {"rep": "l -> i*l, xi4 -> i*xi4, d4 -> -i*d4", "clifford": "g4 -> i*g4",
          "planewave": "l -> i*l, d4 -> i*d4", "modes": "l -> -i*l"}

# what carries each algebra row from (1, 1) to the other sign pairs
ALGEBRA_TWISTS = {
    "jacobi_deformed": "every other sign pair's table is its twist rho -> eps4*rho, "
                       "l -> i*l, which keeps it",
    "contraction": "every other sign pair's table is its twist rho -> eps4*rho, "
                   "l -> i*l, which keeps it",
    "isomorphism": "every other sign pair's source is its twist r -> i*r (eps4 = -1), "
                   "l -> i*l (eps5 = -1), its target the twist M_a4 -> i*M_a4 "
                   "(eps4 = -1), M_a5 -> i*M_a5 (eps5 = -1), and the map keeps its formula",
}


def test_the_carried_rows_name_the_twist_that_carries_them():
    rows = checks.cmd_check_all(RunConfig())
    assert len(rows) == 49 and not [r for r in rows if r.check.endswith("_continuation")]
    algebra = [r for r in rows if "eps4" in r.params]
    assert sorted(r.check for r in algebra) == sorted(ALGEBRA_TWISTS)
    for r in algebra:
        assert r.params == {"eps4": 1, "eps5": 1}, r.check
        assert r.relation.endswith(f"; at eps4 = eps5 = 1: {ALGEBRA_TWISTS[r.check]}"), r.check
    once = [r for r in rows if "eps4" not in r.params and r.params.get("eps5") == 1
            and not r.check.startswith(("dispersion_roots", "modes_reference_heavy", "seesaw_"))]
    assert len(once) == 34  # 8 rep, 17 clifford, 5 planewave and 4 modes rows
    for r in once:
        family = r.check.split("_")[0].replace("dispersion", "modes")
        assert r.relation.endswith(f"; at eps5 = 1: the eps5 = -1 data is its twist "
                                   f"{TWISTS[family]}, which keeps it"), r.check


# -- each derived datum is its typed copy ---------------------------------------


_K, _ELL = (3, 1, 0, Fraction(2, 5)), Fraction(1, 3)


def _d4_action(eps5: int) -> dict:
    """Token -> d_4 of that one letter, as the engine forms it."""
    return {t: _d4(enveloping.NCExpression.gen(t), eps5) for t in enveloping.TOKENS}


# name -> (the engine's datum at eps5, the same datum read off an oracle module)
DERIVED = {
    "weyl images": (build_rep, lambda oracle, e: oracle.weyl_images(e)),
    "d4": (_d4_action, lambda oracle, e: {
        t: normal_form(image, e) for t, image in oracle.d4_action(e).items()}),
    "plane-wave scale": (enveloping.plane_wave_scale,
                         lambda oracle, e: oracle.plane_wave_scale(e)),
    "g4": (lambda e: exact_gammas(e)[4], lambda oracle, e: oracle.g4(e)),
    "D(k)": (dirac_matrix, lambda oracle, e: oracle.dirac_matrix(e)),
    "D(k) at numbers": (lambda e: dirac_matrix(e, _K, _ELL),
                        lambda oracle, e: oracle.dirac_matrix(e, _K, _ELL)),
    "dispersion polynomial": (lambda e: modes.dispersion_polynomial(sym("l"), e),
                              lambda oracle, e: oracle.dispersion_polynomial(sym("l"), e)),
    "dispersion polynomial at a number": (
        lambda e: modes.dispersion_polynomial(_ELL, e),
        lambda oracle, e: oracle.dispersion_polynomial(_ELL, e)),
}


@pytest.mark.parametrize("eps5", [1, -1])
@pytest.mark.parametrize("name", DERIVED)
def test_each_datum_is_its_typed_copy(name, eps5):
    engine, typed = DERIVED[name]
    assert engine(eps5) == typed(sign_oracle, eps5)


def _mutant(module, old: str, new: str):
    """A copy of ``module`` with the one occurrence of ``old`` in its source
    replaced by ``new``, imported under its own name."""
    source = Path(module.__file__).read_text()
    assert source.count(old) == 1, old
    name = f"{module.__name__}_mutant"
    copy = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader=None))
    exec(compile(source.replace(old, new), module.__file__, "exec"), copy.__dict__)
    return copy


# a sign edit in the oracle's copy of each datum at eps5 = -1
ORACLE_EDITS = {
    "weyl images": ("il if eps5 < 0 else -il", "-il if eps5 < 0 else -il"),
    "d4": ("-eps5 * sym", "-abs(eps5) * sym"),
    "plane-wave scale": ("I * eps5 * sym", "I * abs(eps5) * sym"),
    "g4": ("else gamma5.scale(P_I)", "else gamma5.scale(-P_I)"),
    "D(k)": ("Fraction(-eps5, 2)", "Fraction(-abs(eps5), 2)"),
    "D(k) at numbers": ("Fraction(-eps5, 2)", "Fraction(-abs(eps5), 2)"),
    "dispersion polynomial": ("Fraction(eps5, 4)", "Fraction(abs(eps5), 4)"),
    "dispersion polynomial at a number": ("Fraction(eps5, 4)", "Fraction(abs(eps5), 4)"),
}


@pytest.mark.parametrize("name", DERIVED)
def test_a_sign_edit_in_the_oracle_fails_the_comparison(name):
    engine, typed = DERIVED[name]
    edited = _mutant(sign_oracle, *ORACLE_EDITS[name])
    assert engine(1) == typed(edited, 1)
    assert engine(-1) != typed(edited, -1)


# -- the twist that holds, and the ones that do not ---------------------------


def test_only_l_to_minus_i_l_takes_d_at_plus_one_to_d_at_minus_one():
    minus = sign_oracle.dirac_matrix(-1)
    assert [e for e in range(4) if dirac_matrix(1, ell=P_I ** e * sym("l")) == minus] == [3]


def test_only_one_phase_choice_takes_the_realization_at_plus_one_to_minus_one():
    # l -> i l is the twist that takes the flat table at eps5 = 1 to the one
    # at -1; with it, of the quarter turns of xi^4 and d_4 only (1, -1)
    # maps every image
    plus, minus = build_rep(1), sign_oracle.weyl_images(-1)
    passing = [(xi, d) for xi, d in itertools.product(range(4), repeat=2)
               if all(minus[name] == plus[name].twist(
                   {"l": 1}, lambda key: xi * key[0][4] + d * key[1][4])
                      for name in DEFORMED_BASIS)]
    assert passing == [(1, 3)]
    assert flat_deformed_algebra(1).twist(symbols={"l": 1}).rows == flat_deformed_algebra(-1).rows


def test_only_the_factor_i_takes_d4_at_plus_one_to_minus_one():
    plus, minus = _d4_action(1), sign_oracle.d4_action(-1)
    for turn in range(4):
        same = all(minus[t] == plus[t].twist({"l": 1}, lambda w: turn) for t in enveloping.TOKENS)
        assert same == (turn == 1), turn


def test_g4_at_minus_one_is_i_g4_at_plus_one_and_no_other_turn():
    plus, minus = exact_gammas(1), sign_oracle.g4(-1)
    assert plus[:4] == exact_gammas(-1)[:4]
    assert [turn for turn in range(4) if plus[4].scale(P_I ** turn) == minus] == [1]


# -- a sign flip in the +1 data fails a row of check all ------------------------


# module, the +1 datum, its sign flip, and the rows of check all that fail
BASE_EDITS = {
    "weyl images": ("weyl.py", "(e[4], e[mu]): -il}", "(e[4], e[mu]): il}",
                    {("rep_closure_xC", 1), ("rep_closure_xx", 1)}),
    # Y_4 = C^2/(2l) read as C^2/l
    "d4": ("enveloping.py", "ExactScalar(0, Fraction(-1, 2))", "ExactScalar(0, Fraction(-1))",
           {("planewave_derivative", 1), ("planewave_mixed", 1), ("planewave_vacuum", 1)}),
    "plane-wave scale": ("enveloping.py", 'return (I * sym("l"))', 'return (-I * sym("l"))',
                         {("planewave_derivative", 1), ("planewave_mixed", 1),
                          ("planewave_vacuum", 1)}),
    "g4": ("clifford.py", "_GAMMA_PERMS, turn=1)", "_GAMMA_PERMS, turn=3)",
           {("clifford_gamma5_product", 1)}),
    "dispersion polynomial": ("modes.py", "ell * ell * Fraction(1, 4)",
                              "ell * ell * Fraction(-1, 4)",
                              {("dispersion_identity", 1), ("dispersion_roots", 1),
                               ("dispersion_roots", -1)}),
}


@pytest.mark.parametrize("name", BASE_EDITS)
def test_a_sign_flip_in_the_plus_one_data_fails_check_all(tmp_path, name):
    module, old, new, rows = BASE_EDITS[name]
    assert failed_rows(tmp_path, module, old, new, "check", "all") == rows


# -- every signed definition refuses a value that is no sign --------------------


@pytest.mark.parametrize("eps5", [0, 2, -2])
@pytest.mark.parametrize("name", SIGNED)
def test_every_signed_definition_refuses_a_bad_sign(name, eps5):
    call = SIGNED[name]
    call(1), call(-1)  # the other arguments are valid
    with pytest.raises(ValueError, match=r"must be \+1 or -1"):
        call(eps5)


# the definitions that read their sign before any cache; a cached builder,
# such as gamma_sum or build_deformed_algebra, may answer 1.0 with the +1 data
_UNCACHED = ("checks.RunConfig", "seesaw.CouplingConfig", "modes.heavy_k2",
             "modes.reference_solutions", "modes.dispersion_roots", "weyl.build_rep")


@pytest.mark.parametrize("eps5", [1.0, -1.0, True])
@pytest.mark.parametrize("name", ["lie_algebra.quarter", *_UNCACHED])
def test_a_sign_that_is_no_int_is_refused(name, eps5):
    # a value equal to +1 or -1 once passed: heavy_k2(2, -1.0) gave the
    # float 1.0, and RunConfig(eps5=1.0) failed later with a TypeError
    call = quarter if name == "lie_algebra.quarter" else SIGNED[name]
    with pytest.raises(ValueError, match=r"must be \+1 or -1"):
        call(eps5)
