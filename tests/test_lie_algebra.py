"""Structure constants, Jacobi identities, and the six-dimensional match."""

import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from json_terms import ACCEPTED, BAD_COEFFICIENTS, BAD_EXPONENTS, BAD_PARTS
from table_edits import set_bracket
from table_oracle import deformed_table, isomorphism_source

from ncdirac.cli import main
from ncdirac.lie_algebra import (
    LinearMap,
    build_deformed_algebra,
    build_orthogonal_algebra,
    contract,
    jacobi_residual,
    jacobi_triple_count,
    lower,
    minkowski_square,
    scaling_map,
    solve_isomorphism_scalings,
    verify_linear_isomorphism,
    StructureConstants,
)
from ncdirac.modes import QuadraticScalar
from ncdirac.scalars import (I, MAX_DEGREE, P_ONE, DegreeBoundError, ExactScalar, ParamPoly,
                             UnknownSymbolError, poly, sym)
from substitution import SubstitutionError, substitute, substituted_table

SIGNS = [(1, 1), (1, -1), (-1, 1), (-1, -1)]


def _coeff(table, a, b, target):
    combo = table.bracket(table.basis.index(a), table.basis.index(b))
    return combo.get(table.basis.index(target), poly(0))


def test_one_minkowski_contraction_for_every_scalar_type():
    k = (Fraction(3, 2), -1, 2, Fraction(1, 3))
    want_low = (Fraction(3, 2), 1, -2, Fraction(-1, 3))
    want_square = Fraction(9, 4) - 1 - 4 - Fraction(1, 9)
    assert lower(k) == want_low
    assert minkowski_square(k) == want_square
    assert minkowski_square(tuple(ExactScalar(c) for c in k)) == ExactScalar(want_square)
    assert lower(tuple(poly(c) for c in k)) == tuple(poly(c) for c in want_low)
    assert minkowski_square([sym(f"k{mu}") for mu in range(4)]) == (
        sym("k0", 2) - sym("k1", 2) - sym("k2", 2) - sym("k3", 2))
    # x = 1 + sqrt(2) along z: k^2 = -x^2 = -(3 + 2 sqrt(2))
    zero = QuadraticScalar(0, 0, Fraction(2))
    square = minkowski_square([zero, zero, zero, QuadraticScalar(1, 1, Fraction(2))])
    assert not (square - QuadraticScalar(-3, -2, Fraction(2)))
    with pytest.raises(ValueError):
        lower((1, 0, 0))


@pytest.mark.parametrize("eps4,eps5", SIGNS)
def test_jacobi_deformed(eps4, eps5):
    alg = build_deformed_algebra(eps4, eps5)
    assert jacobi_triple_count(alg) == 455
    assert jacobi_residual(alg) == []


@pytest.mark.parametrize("eps4,eps5", SIGNS)
def test_jacobi_orthogonal(eps4, eps5):
    alg = build_orthogonal_algebra(eps4, eps5)
    assert jacobi_triple_count(alg) == 455
    assert jacobi_residual(alg) == []


@pytest.mark.parametrize("eps4,eps5", SIGNS)
def test_deformed_bracket_values(eps4, eps5):
    alg = build_deformed_algebra(eps4, eps5)
    # metric is (+,-,-,-): timelike and spacelike pairings differ by a sign
    assert _coeff(alg, "P0", "x0", "C") == poly(I)
    assert _coeff(alg, "P1", "x1", "C") == poly(-I)
    assert not alg.bracket(alg.basis.index("P0"), alg.basis.index("x1"))
    assert _coeff(alg, "P0", "P1", "M01") == poly(-I * eps4) * sym("rho")
    assert _coeff(alg, "x0", "x1", "M01") == poly(-I * eps5) * sym("l", 2)
    assert _coeff(alg, "M01", "P0", "P1") == poly(-I)
    assert _coeff(alg, "M12", "x2", "x1") == poly(-I)
    assert _coeff(alg, "P0", "C", "x0") == poly(-I * eps4) * sym("rho")
    assert _coeff(alg, "x0", "C", "P0") == poly(I * eps5) * sym("l", 2)
    assert not alg.bracket(alg.basis.index("M01"), alg.basis.index("C"))


@pytest.mark.parametrize("eps4,eps5", SIGNS)
def test_orthogonal_extra_rows(eps4, eps5):
    alg = build_orthogonal_algebra(eps4, eps5)
    assert _coeff(alg, "M04", "M14", "M01") == poly(-I * eps4)
    assert _coeff(alg, "M05", "M15", "M01") == poly(-I * eps5)
    assert _coeff(alg, "M45", "M04", "M05") == poly(-I * eps4)


def test_tampered_table_fails_jacobi():
    alg = build_deformed_algebra(1, -1)
    ix = {n: k for k, n in enumerate(alg.basis)}
    # double the [P0, x0] constant: iC -> 2iC
    set_bracket(alg, ix["P0"], ix["x0"], {ix["C"]: poly(ExactScalar(0, 2))})
    violations = jacobi_residual(alg)
    assert len(violations) == 12
    names, residual = violations[0]
    assert names == ("M01", "P0", "x1")
    # [[M01,P0],x1] + [[x1,M01],P0] = -C + 2C: the excess of the doubled bracket
    assert residual == {ix["C"]: poly(1)}


@pytest.mark.parametrize("eps4,eps5", SIGNS)
def test_isomorphism_scalings(eps4, eps5):
    sol = solve_isomorphism_scalings(eps4, eps5)
    assert str(sol.alpha) == "r"
    assert str(sol.beta) == "l"
    assert str(sol.gamma) == "-l*r"
    # exactly the sign triples with product -1 extend to the full map
    assert set(sol.passing_sign_choices) == {
        (1, 1, -1), (1, -1, 1), (-1, 1, 1), (-1, -1, -1),
    }
    # the canonical map the search returns is an isomorphism
    check = verify_linear_isomorphism(sol.map)
    assert check.ok and check.invertible
    assert check.mismatches == []


def _double_one_coefficient(monkeypatch, which):
    """Make build_orthogonal_algebra double one coefficient of the
    ``which``-th bracket in sorted order: no rescaling then matches."""
    import ncdirac.lie_algebra as lie

    build = lie.build_orthogonal_algebra

    def tampered(eps4, eps5):
        table = build(eps4, eps5)
        i, j = table.pairs()[which]
        combo = table.bracket(i, j)
        k = min(combo)
        set_bracket(table, i, j, {**combo, k: combo[k] * poly(2)})
        return table

    monkeypatch.setattr(lie, "build_orthogonal_algebra", tampered)


@pytest.mark.parametrize("which", [0, -1])
def test_scaled_coefficient_has_no_isomorphism(monkeypatch, which):
    # the bracket check stops each canonical candidate at its first
    # mismatch; one wrong coefficient, first or last in bracket order, must
    # still defeat both
    _double_one_coefficient(monkeypatch, which)
    with pytest.raises(ArithmeticError):
        solve_isomorphism_scalings(1, -1)


def test_scaled_coefficient_gives_a_failed_isomorphism_row(monkeypatch, capsys):
    # the search's ArithmeticError becomes a fail row; every other row of
    # the run is still reported and the run exits 1
    _double_one_coefficient(monkeypatch, 0)
    code = main(["verify", "algebra"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    rows = {r["check"]: r for r in doc["reports"]}
    assert sorted(rows) == ["contraction", "isomorphism", "jacobi_deformed"]
    iso = rows["isomorphism"]
    assert iso["status"] == "fail"
    assert iso["details"] == {
        "passing_sign_choices": [],
        "error": "no scaling signs satisfy the bracket match",
    }
    assert doc["summary"] == {"failed": 1, "passed": 2, "total": 3}


def _rescaled(table, scales):
    """The same algebra over the basis s_k e_k, ``scales`` the nonzero s_k:
    c_ij^m becomes s_i s_j / s_m c_ij^m."""
    out = StructureConstants(table.basis)
    for i, j in table.pairs():
        set_bracket(out, i, j, {m: c * poly(scales[i] * scales[j] / scales[m])
                                for m, c in table.bracket(i, j).items()})
    return out


def _negated(table, names):
    """The same algebra over the basis with each generator of ``names``
    replaced by its negative: c_ij^m picks up the signs of i, j and m."""
    return _rescaled(table, [ExactScalar(-1 if name in names else 1) for name in table.basis])


def _nonzero_gaussian(rng):
    """A seeded nonzero Gaussian rational, parts of up to two digits over two."""
    while True:
        z = ExactScalar(Fraction(rng.randint(-99, 99), rng.randint(1, 99)),
                        Fraction(rng.randint(-99, 99), rng.randint(1, 99)))
        if z:
            return z


@pytest.mark.parametrize("eps4,eps5", SIGNS)
def test_jacobi_survives_a_rescaled_basis_and_both_contractions(eps4, eps5):
    # the report runs Jacobi on each deformed table only: a change of basis
    # keeps the identity, and so does each contraction, a substitution
    alg = build_deformed_algebra(eps4, eps5)
    rng = random.Random(f"rescaled-jacobi{eps4:+d}{eps5:+d}")
    table = _rescaled(alg, [_nonzero_gaussian(rng) for _ in alg.basis])
    assert any(table.bracket(i, j) != alg.bracket(i, j) for i, j in alg.pairs())
    for limit in ({}, {"rho_to_zero": True}, {"ell_to_zero": True}):
        assert jacobi_residual(contract(table, **limit)) == [], limit


def _assert_solver_matches_verdicts(eps4, eps5, signs_product):
    """The solver against eight explicit verifications of
    scaling_map(s_alpha r, s_beta l, s_gamma r l), on the tables the module
    builds when the test runs."""
    import ncdirac.lie_algebra as lie

    src = lie._isomorphism_source(eps4, eps5)
    dst = lie.build_orthogonal_algebra(eps4, eps5)
    r, ell = sym("r"), sym("l")
    choices = list(itertools.product((1, -1), repeat=3))
    want = sorted(s for s in choices if verify_linear_isomorphism(
        scaling_map(src, dst, poly(s[0]) * r, poly(s[1]) * ell, poly(s[2]) * r * ell)).ok)
    assert want == sorted(s for s in choices if s[0] * s[1] * s[2] == signs_product)
    if not want:
        with pytest.raises(ArithmeticError):
            solve_isomorphism_scalings(eps4, eps5)
        return
    sol = solve_isomorphism_scalings(eps4, eps5)
    assert sol.passing_sign_choices == want
    assert sol.gamma == poly(signs_product) * r * ell
    assert verify_linear_isomorphism(sol.map).ok


@pytest.mark.parametrize("flips,signs_product", [
    ((), -1),
    # C -> gamma M45 now needs the opposite gamma
    (("M45",), 1),
    # beta and gamma both flip: the product stays -1
    (("M05", "M15", "M25", "M35", "M45"), -1),
    # P0 alone changes sign: no choice of alpha fits all four momenta
    (("M04",), None),
])
@pytest.mark.parametrize("eps4,eps5", SIGNS)
def test_sign_search_matches_per_candidate_verdicts(monkeypatch, eps4, eps5, flips,
                                                    signs_product):
    # a relabelled target table moves the passing set, and the solver
    # checks only the canonical maps against it
    import ncdirac.lie_algebra as lie

    build = lie.build_orthogonal_algebra
    monkeypatch.setattr(lie, "build_orthogonal_algebra",
                        lambda e4, e5: _negated(build(e4, e5), flips))
    _assert_solver_matches_verdicts(eps4, eps5, signs_product)


_P = ("P0", "P1", "P2", "P3")


@pytest.mark.parametrize("flips,signs_product", [
    ((), -1),
    # each of alpha, beta or gamma alone flips: the product turns +1
    (_P, 1),
    (("x0", "x1", "x2", "x3"), 1),
    (("C",), 1),
    # P0 alone changes sign: no choice of alpha fits all four momenta
    (("P0",), None),
    # alpha and gamma both flip: the product stays -1
    (_P + ("C",), -1),
])
@pytest.mark.parametrize("eps4,eps5", SIGNS)
def test_sign_rule_matches_per_candidate_verdicts_on_relabelled_sources(
        monkeypatch, eps4, eps5, flips, signs_product):
    # the passing choices are read off the source table's sign
    # automorphisms, so a relabelled source moves them too; a wrong rule
    # fails here
    import ncdirac.lie_algebra as lie

    source = lie._isomorphism_source
    monkeypatch.setattr(lie, "_isomorphism_source",
                        lambda e4, e5: _negated(source(e4, e5), flips))
    _assert_solver_matches_verdicts(eps4, eps5, signs_product)
    monkeypatch.undo()
    # the negated copies stay out of every cache
    assert lie._isomorphism_source(eps4, eps5).rows == isomorphism_source(eps4, eps5).rows
    assert lie._deformed_table(eps4, eps5).rows == deformed_table(eps4, eps5).rows


def test_flipped_gamma_breaks_isomorphism():
    sol = solve_isomorphism_scalings(1, -1)
    broken = scaling_map(sol.src, sol.dst, sol.alpha, sol.beta, -sol.gamma)
    check = verify_linear_isomorphism(broken)
    assert not check.ok
    assert check.mismatches


def _solved_map_with_beta(beta):
    sol = solve_isomorphism_scalings(1, -1)
    return scaling_map(sol.src, sol.dst, sol.alpha, beta, sol.gamma)


def _f_scaled_orthogonal_map():
    """Every bracket of the orthogonal table times f = (l - 2)(2l - 3),
    mapped to the table by e_i -> f e_i: both sides of each bracket are
    f^2 c_ij^k e_k, and f vanishes at l = 2 and l = 3/2."""
    f = (sym("l") - 2) * (sym("l") * 2 - 3)
    ortho = build_orthogonal_algebra(1, -1)
    scaled = StructureConstants(ortho.basis)
    for i, j in ortho.pairs():
        set_bracket(scaled, i, j, {k: c * f for k, c in ortho.bracket(i, j).items()})
    return LinearMap(scaled, ortho, [{i: f} for i in range(ortho.dim())])


def _orthogonal_map_with_column(i, column):
    """The identity of the orthogonal table with column i replaced."""
    ortho = build_orthogonal_algebra(1, -1)
    columns = [{k: P_ONE} for k in range(ortho.dim())]
    columns[i] = column
    return LinearMap(ortho, ortho, columns)


@pytest.mark.parametrize("make_map,ok,invertible", [
    pytest.param(lambda: _solved_map_with_beta(poly(0)), False, False, id="beta-zero"),
    # a coefficient with a rational root is still a nonzero polynomial
    pytest.param(lambda: _solved_map_with_beta(sym("l") - 2), False, True, id="beta-l-minus-2"),
    pytest.param(_f_scaled_orthogonal_map, True, True, id="f-scaled-table"),
    # M01 and M02 both go to M01, so M02 is not reached
    pytest.param(lambda: _orthogonal_map_with_column(1, {0: P_ONE}), False, False,
                 id="two-generators-one-target"),
])
def test_scaling_map_invertibility_is_exact(make_map, ok, invertible):
    check = verify_linear_isomorphism(make_map())
    assert (check.ok, check.invertible) == (ok, invertible)


def test_scaling_map_column_with_two_entries_raises():
    lmap = _orthogonal_map_with_column(0, {0: P_ONE, 1: P_ONE})
    with pytest.raises(ValueError, match="one target per generator"):
        verify_linear_isomorphism(lmap)


@pytest.mark.parametrize("eps4,eps5", SIGNS)
def test_contractions(eps4, eps5):
    alg = build_deformed_algebra(eps4, eps5)
    ix = {n: k for k, n in enumerate(alg.basis)}

    flat_p = contract(alg, rho_to_zero=True)
    assert not flat_p.bracket(ix["P0"], ix["P1"])
    assert not flat_p.bracket(ix["P0"], ix["C"])
    # position sector untouched
    assert flat_p.bracket(ix["x0"], ix["x1"])
    assert jacobi_residual(flat_p) == []

    flat_x = contract(alg, ell_to_zero=True)
    assert not flat_x.bracket(ix["x0"], ix["x1"])
    assert not flat_x.bracket(ix["x0"], ix["C"])
    assert flat_x.bracket(ix["P0"], ix["P1"])
    assert jacobi_residual(flat_x) == []

    # both limits: Heisenberg-type algebra, [P, x] = i eta C survives
    flat = contract(contract(alg, rho_to_zero=True), ell_to_zero=True)
    assert _coeff(flat, "P0", "x0", "C") == poly(I)
    assert jacobi_residual(flat) == []


def test_json_round_trip():
    alg = build_deformed_algebra(-1, 1)
    loaded = StructureConstants.from_json(alg.to_json())
    assert loaded.basis == alg.basis
    assert jacobi_residual(loaded) == []
    for a in range(alg.dim()):
        for b in range(a + 1, alg.dim()):
            orig = alg.bracket(a, b)
            copy = loaded.bracket(a, b)
            assert set(orig) == set(copy)
            for k in orig:
                assert orig[k] == copy[k]


# -- malformed tables ---------------------------------------------------------


def _doc():
    return build_deformed_algebra(1, -1).to_json()


def test_bracket_index_outside_basis_is_rejected():
    alg = build_deformed_algebra(1, -1)
    with pytest.raises(ValueError, match="generator index 99"):
        set_bracket(alg, 0, 99, {1: poly(1)})
    with pytest.raises(ValueError, match="generator index -1"):
        set_bracket(alg, -1, 3, {1: poly(1)})
    with pytest.raises(ValueError, match="output index -1"):
        set_bracket(alg, 0, 1, {-1: poly(1)})
    with pytest.raises(ValueError, match="output index 15"):
        set_bracket(alg, 1, 0, {15: poly(1)})


_ONE = [[14, poly(1).to_json()]]


@pytest.mark.parametrize("key,entries,message", [
    ("0,99", _ONE, "generator index 99 of bracket [0,99] is outside 0..14"),
    ("6,10", [[-1, poly(1).to_json()]], "output index -1 of bracket [6,10] is outside 0..14"),
    ("10,6", _doc()["brackets"]["6,10"], "repeats the pair of key '6,10'"),
    ("6,10", _ONE + _ONE, "lists output index 14 twice"),
    ("3,3", _ONE, "bracket of a generator with itself"),
    ("0", _ONE, ""),
    ("0,1,2", _ONE, ""),
    ("a,b", _ONE, ""),
    ("0,1", [[14]], ""),
    ("0,1", [[14, "x"]], ""),
    # a zero coefficient stores nothing, but its index is still checked
    ("6,10", [[99, [[[0] * 10, "0", "0"]]]], "output index 99 of bracket [6,10]"),
    # a non-string key and a bracket that is not a list of pairs once let
    # an AttributeError or "not enough values to unpack" escape
    ((0, 1), _ONE, "is not a string"),
    ("0,1", {"1": 2}, "entries must be a list of [index, coefficient] pairs"),
    ("0,1", "x", "entries must be a list of [index, coefficient] pairs"),
    ("0,1", [[1]], "entries must be a list of [index, coefficient] pairs"),
    ("0,1", [[1, [], 3]], "entries must be a list of [index, coefficient] pairs"),
    # a malformed coefficient, rejected as ParamPoly.from_json rejects it
    *[("6,10", [[14, [[[0] * 10, value, "0"]]]], message) for value, _, message in BAD_PARTS],
    *[("6,10", [[14, [[exps, "1", "0"]]]], message) for exps, _, message in BAD_EXPONENTS],
    # a coefficient that is not a list of terms
    *[("6,10", [[14, data]], message) for data, _, message in BAD_COEFFICIENTS],
    # each index is checked as its entry is read, after a valid one too
    ("6,10", [[1, [[[1] + [0] * 9, "1", "0"]]], [99, []]],
     "output index 99 of bracket [6,10] is outside 0..14"),
])
def test_fixture_malformed_entry_names_the_key(key, entries, message):
    doc = _doc()
    doc["brackets"][key] = entries
    with pytest.raises(ValueError) as exc:
        StructureConstants.from_json(doc)
    assert str(exc.value).startswith(f"bracket key {key!r}: ")
    assert message in str(exc.value)


@pytest.mark.parametrize("terms,want", ACCEPTED.values(), ids=ACCEPTED)
def test_fixture_coefficient_reads_as_param_poly(terms, want):
    # the coefficients ParamPoly.from_json accepts, as one bracket: stored
    # in lowest terms, in both orientations, and nothing for a zero
    doc = _doc()
    doc["brackets"]["6,10"] = [[14, terms]]
    table = StructureConstants.from_json(doc)
    coeff = ParamPoly(want)
    assert table.bracket(6, 10) == ({14: coeff} if want else {})
    assert table.bracket(10, 6) == ({14: -coeff} if want else {})


@pytest.mark.parametrize("data", [
    {"basis": ["a", "b"]},
    {"basis": ["a", "b"], "brackets": []},
    {"basis": 3, "brackets": {}},
    [],
])
def test_fixture_without_basis_or_brackets_is_rejected(data):
    with pytest.raises(ValueError, match="a 'basis' list and a 'brackets' object"):
        StructureConstants.from_json(data)


def test_duplicate_basis_names_are_rejected():
    doc = _doc()
    doc["basis"][14] = "x3"
    with pytest.raises(ValueError, match="duplicate basis names \\['x3'\\]"):
        StructureConstants.from_json(doc)
    with pytest.raises(ValueError, match="duplicate"):
        StructureConstants(("a", "b", "a"))


@pytest.mark.parametrize("basis", [[], (), iter([])])
def test_an_empty_basis_is_refused_where_every_table_is_made(basis):
    # an empty table was once made, and its bracket(0, 1) then raised
    # "outside 0..-1"
    with pytest.raises(ValueError, match="the table's basis is empty: it names no generator"):
        StructureConstants(basis)


@pytest.mark.parametrize("i,j,bad", [(99, 3, 99), (-1, 3, -1), (3, 15, 15), (15, 15, 15)])
def test_bracket_read_outside_basis_is_rejected(i, j, bad):
    alg = build_deformed_algebra(1, 1)
    with pytest.raises(ValueError, match=rf"generator index {bad} of bracket \[{i},{j}\]"):
        alg.bracket(i, j)


@pytest.mark.parametrize("bad", [1.0, None, "1"])
def test_bracket_read_with_a_non_int_index_is_rejected(bad):
    # 1.0 == 1 and hashes alike, so a membership test alone would let it in
    alg = build_deformed_algebra(1, 1)
    with pytest.raises(ValueError, match=rf"generator index {bad!s} of bracket \[{bad!s},2\]"):
        alg.bracket(bad, 2)


def test_bracket_read_with_a_bool_index_reads_it_as_an_int():
    alg = build_deformed_algebra(1, 1)
    assert alg.bracket(True, 2) == alg.bracket(1, 2) != {}
    assert alg.bracket(2, False) == alg.bracket(2, 0) != {}


@pytest.mark.parametrize("basis", ["abc", [1, 2, 3], ["a", None], []])
def test_fixture_basis_must_be_a_list_of_names(basis):
    # a string once loaded as one generator per character, integers as
    # integer names, and an empty basis as a table that passed every check
    message = ("the table's basis is empty" if basis == []
               else "a 'basis' list and a 'brackets' object")
    with pytest.raises(ValueError, match=message):
        StructureConstants.from_json({"basis": basis, "brackets": {}})


# -- the store: set_bracket, to_json and from_json agree ----------------------


def _seeded_poly(rng):
    """Up to three Gaussian-rational multiples of l^a rho^b; may be zero."""
    return ParamPoly({
        (rng.randint(0, 2), rng.randint(0, 2)) + (0,) * 8:
            ExactScalar(Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
                        Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
        for _ in range(rng.randint(1, 3))
    })


def _seeded_table(rng, n=7):
    """A table that need not be a Lie algebra, built with set_bracket: about
    two pairs in three set, in either orientation, each with one to three
    outputs."""
    table = StructureConstants(tuple(f"e{a}" for a in range(n)))
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < 0.7:
            combo = {k: _seeded_poly(rng) for k in rng.sample(range(n), rng.randint(1, 3))}
            set_bracket(table, *((i, j) if rng.random() < 0.5 else (j, i)), combo)
    return table


def _negated_part(part):
    return str(-Fraction(part))


def _unusual_json(doc, rng):
    """``doc`` written the ways to_json never writes it, as the same table:
    pairs keyed "j,i" with negated coefficients, each term after a decoy
    with the same exponents (a later term replaces an earlier one), and
    zero coefficients, both whole outputs and single terms."""
    n = len(doc["basis"])
    brackets = {}
    for key, entries in doc["brackets"].items():
        i, j = map(int, key.split(","))
        flip = rng.random() < 0.5
        out = []
        for k, terms in entries:
            new = []
            for exps, re_s, im_s in terms:
                if flip:
                    re_s, im_s = _negated_part(re_s), _negated_part(im_s)
                new += [[exps, "5/3", "-7"], [exps, re_s, im_s]]
            new.append([[0] * 9 + [1], "0", "0/4"])
            out.append([k, new])
        unused = [k for k in range(n) if k not in {k for k, _ in entries}]
        if unused:
            out.append([rng.choice(unused), [[[1] + [0] * 9, "0", "0"]]])
        rng.shuffle(out)
        brackets[f"{j},{i}" if flip else key] = out
    return {"basis": doc["basis"], "brackets": brackets}


def _assert_same_table(got, want):
    assert got.basis == want.basis
    assert got.rows == want.rows
    for i, j in itertools.product(range(want.dim()), repeat=2):
        assert got.bracket(i, j) == want.bracket(i, j)


def test_set_bracket_and_both_json_forms_give_one_store():
    rng = random.Random("store")
    for _ in range(20):
        table = _seeded_table(rng)
        doc = table.to_json()
        _assert_same_table(StructureConstants.from_json(doc), table)
        _assert_same_table(StructureConstants.from_json(_unusual_json(doc, rng)), table)
    for build in (build_deformed_algebra, build_orthogonal_algebra):
        table = build(1, -1)
        _assert_same_table(StructureConstants.from_json(table.to_json()), table)


def test_from_json_builds_no_coefficient_objects(monkeypatch):
    import ncdirac.fixture as fixture
    import ncdirac.lie_algebra as lie
    import ncdirac.scalars as scalars

    rng = random.Random("parse")
    tables = [_seeded_table(rng) for _ in range(5)]
    docs = [_unusual_json(table.to_json(), rng) for table in tables]

    def forbidden(*args, **kwargs):
        raise AssertionError("from_json built an ExactScalar or a ParamPoly")

    for owner, name in ((ParamPoly, "__init__"), (ExactScalar, "__init__"),
                        (scalars, "_make"), (scalars, "_packed_poly"), (scalars, "_reduced"),
                        (lie, "_make"), (lie, "_packed_poly"),
                        (fixture, "_make"), (fixture, "_packed_poly")):
        monkeypatch.setattr(owner, name, forbidden)
    loaded = [StructureConstants.from_json(doc) for doc in docs]
    monkeypatch.undo()
    for got, want in zip(loaded, tables):
        _assert_same_table(got, want)


def test_keys_past_the_keyed_basis_size_read_alike():
    # a basis past _KEYED_BASIS reads every key by the parse path, with the
    # same table and the same messages as a small one
    import ncdirac.fixture as fixture

    for n in (15, fixture._KEYED_BASIS + 6):
        table = StructureConstants([f"e{a}" for a in range(n)])
        set_bracket(table, 0, n - 1, {n - 2: sym("l")})
        set_bracket(table, n - 3, 2, {1: poly(3)})
        doc = table.to_json()
        _assert_same_table(StructureConstants.from_json(doc), table)
        entries = doc["brackets"][f"0,{n - 1}"]
        for brackets, message in (
                ({f"0,{n - 1}": entries, f"{n - 1},0": entries}, "repeats the pair of key"),
                ({f"0,{n}": entries}, f"generator index {n} "),
                ({"1,1": entries}, "with itself"),
                ({" 1,2": entries}, "is not written as 1,2"),
                ({3: entries}, "is not a string")):
            with pytest.raises(ValueError, match=message):
                StructureConstants.from_json({"basis": doc["basis"], "brackets": brackets})


@pytest.mark.parametrize("eps4", [1, -1])
def test_ell_limit_does_not_depend_on_eps5(eps4):
    # eps5 only multiplies l^2, so the report checks this limit once per eps4
    plus, minus = (contract(build_deformed_algebra(eps4, e5), ell_to_zero=True)
                   for e5 in (1, -1))
    assert plus.rows == minus.rows


# -- the substitution oracle ---------------------------------------------------


def _arbitrary_poly(rng):
    """Up to four Gaussian-rational terms in l, rho, r, m and k0, powers 0..3."""
    return ParamPoly({
        tuple(rng.randint(0, 3) for _ in range(5)) + (0,) * 5:
            ExactScalar(Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
                        Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
        for _ in range(rng.randint(1, 4))
    })


_BINDINGS = [
    {"rho": 0}, {"l": 0}, {"rho": 0, "l": 0}, {"rho": sym("r", 2)},
    {"l": Fraction(-3, 7)}, {"rho": ExactScalar(Fraction(1, 2), Fraction(-2, 3))},
    {"m": ExactScalar(0, 1), "k0": sym("l") - sym("rho", 2), "r": 2},
]


def test_the_substitution_oracle_is_a_ring_homomorphism():
    # the tests' reference for every twist and limit: it must respect sums
    # and products, and fix what it does not bind
    rng = random.Random("substitute")
    for _ in range(20):
        p, q = _arbitrary_poly(rng), _arbitrary_poly(rng)
        for bindings in _BINDINGS:
            assert substitute(p * q, bindings) == substitute(p, bindings) * substitute(q, bindings)
            assert substitute(p + q, bindings) == substitute(p, bindings) + substitute(q, bindings)
            assert substitute(sym("v", 3), bindings) == sym("v", 3)
    assert substitute(sym("rho") * poly(3) + sym("l"), {"rho": sym("r") ** 2}) == (
        sym("r") ** 2 * poly(3) + sym("l"))


@pytest.mark.parametrize("bindings,error", [
    ({"zzz": 1}, UnknownSymbolError),
    ({"rho": sym("rho")}, SubstitutionError),
    ({"rho": sym("l"), "l": 1}, SubstitutionError),
])
def test_bad_bindings_raise_on_any_table(bindings, error):
    # an empty table checks them too, though no coefficient reads them
    with pytest.raises(error):
        substituted_table(StructureConstants(["a", "b"]), bindings)
    with pytest.raises(error):
        substituted_table(build_deformed_algebra(1, 1), bindings)
    with pytest.raises(error):
        substitute(sym("v"), bindings)


def test_contract_with_no_limit_is_a_copy():
    alg = build_deformed_algebra(1, -1)
    same = contract(alg)
    assert same is not alg
    _assert_same_table(same, alg)
    i, j = same.pairs()[0]
    set_bracket(same, i, j, {0: poly(5)})
    same.rows[-1].clear()
    _assert_same_table(alg, build_deformed_algebra(1, -1))


# -- sparse Jacobi against a float oracle ------------------------------------


def _float_violations(table, point, rel_tol=1e-9):
    """Index triples whose Jacobi sum, evaluated in complex floats at
    `point`, exceeds rel_tol times the sum of its three terms' sizes."""
    n = table.dim()
    f = np.zeros((n, n, n), dtype=complex)
    for i, j in table.pairs():
        for k, c in table.bracket(i, j).items():
            f[i, j, k] = complex(substitute(c, point).to_scalar())
            f[j, i, k] = -f[i, j, k]
    terms = (
        np.einsum("ijm,mkq->ijkq", f, f),
        np.einsum("jkm,miq->ijkq", f, f),
        np.einsum("kim,mjq->ijkq", f, f),
    )
    bad = np.abs(sum(terms)) > rel_tol * sum(np.abs(t) for t in terms)
    return {t for t in itertools.combinations(range(n), 3) if bad[t].any()}


_NONZERO = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000).filter(bool)
_POSITIVE = st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=50)


_SMALL = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@st.composite
def _polys(draw, max_terms=3):
    """Sums of up to `max_terms` Gaussian-rational multiples of l^a rho^b."""
    out = poly(0)
    for _ in range(draw(st.integers(1, max_terms))):
        c = ExactScalar(draw(_SMALL), draw(_SMALL))
        out = out + poly(c) * sym("l", draw(st.integers(0, 2))) * sym(
            "rho", draw(st.integers(0, 2)))
    return out


@st.composite
def _fixture_tables(draw):
    """A deformed or orthogonal table with its basis rescaled by random
    rationals, maybe every bracket multiplied by one multi-term polynomial
    f (which keeps Jacobi: its three terms each gain f^2, so partial sums
    over different monomials cancel), and (maybe) one coefficient
    multiplied by a factor != 1."""
    eps4, eps5 = draw(st.sampled_from(SIGNS))
    build = draw(st.sampled_from((build_deformed_algebra, build_orthogonal_algebra)))
    base = build(eps4, eps5)
    s = draw(st.lists(_NONZERO, min_size=base.dim(), max_size=base.dim()))
    f = draw(st.one_of(st.just(poly(1)), _polys().filter(bool)))
    table = StructureConstants(base.basis)
    # e_a -> s_a e_a takes c_ab^k to (s_a s_b / s_k) c_ab^k
    for i, j in base.pairs():
        set_bracket(table, i, j, {k: c * poly(s[i] * s[j] / s[k]) * f
                                  for k, c in base.bracket(i, j).items()})
    tampered = draw(st.booleans())
    if tampered:
        pair = draw(st.sampled_from(table.pairs()))
        combo = table.bracket(*pair)
        k = draw(st.sampled_from(sorted(combo)))
        factor = draw(st.one_of(
            _SMALL.filter(lambda x: x != 1).map(poly),
            _polys().filter(lambda p: p != 1),
        ))
        set_bracket(table, *pair, {**combo, k: combo[k] * factor})
    return table, tampered


@settings(max_examples=30, deadline=None)
@given(_fixture_tables(), _POSITIVE, _POSITIVE)
def test_sparse_jacobi_matches_float_oracle(drawn, ell, rho):
    table, tampered = drawn
    violations = jacobi_residual(table)
    index = table.index
    got = {tuple(index[name] for name in names) for names, _ in violations}
    assert got == _float_violations(table, {"l": ell, "rho": rho})
    if not tampered:
        assert violations == []


# -- the flat kernel against the ParamPoly-combo engine it replaced -------------


def _ref_combo_add(acc, idx, coeff):
    if coeff.is_zero():
        return
    prev = acc.get(idx)
    total = coeff if prev is None else prev + coeff
    if total.is_zero():
        acc.pop(idx, None)
    else:
        acc[idx] = total


def _ref_combo_sum(*combos):
    out = {}
    for combo in combos:
        for idx, coeff in combo.items():
            _ref_combo_add(out, idx, coeff)
    return out


def _ref_signed_rows(alg):
    n = alg.dim()
    rows = [[None] * n for _ in range(n)]
    for i, j in alg.pairs():
        combo = alg.bracket(i, j)
        rows[i][j] = list(combo.items())
        rows[j][i] = [(k, -c) for k, c in combo.items()]
    return rows


def _ref_nested_bracket(rows, ab, c):
    out = {}
    for m, c_ab in ab or ():
        for q, c_mc in rows[m][c] or ():
            _ref_combo_add(out, q, c_ab * c_mc)
    return out


def _ref_jacobi_residual(alg):
    """Jacobi violations summed as dicts of ParamPoly, one product and one
    sum at a time."""
    rows = _ref_signed_rows(alg)
    violations = []
    for i, j, k in itertools.combinations(range(alg.dim()), 3):
        residual = _ref_combo_sum(
            _ref_nested_bracket(rows, rows[i][j], k),
            _ref_nested_bracket(rows, rows[j][k], i),
            _ref_nested_bracket(rows, rows[k][i], j),
        )
        if residual:
            violations.append(((alg.basis[i], alg.basis[j], alg.basis[k]), residual))
    return violations


def _ref_bracket_mismatches(lmap):
    src, columns = lmap.src, lmap.columns
    src_rows, dst_rows = _ref_signed_rows(src), _ref_signed_rows(lmap.dst)
    out = []
    for i, j in itertools.combinations(range(src.dim()), 2):
        lhs = {}
        for m, c in src_rows[i][j] or ():
            for q, phi in columns[m].items():
                _ref_combo_add(lhs, q, c * phi)
        neg_rhs = {}
        for ia, ca in columns[i].items():
            for ib, cb in columns[j].items():
                row = dst_rows[ib][ia]
                if row is not None:
                    cab = ca * cb
                    for q, c in row:
                        _ref_combo_add(neg_rhs, q, cab * c)
        residual = _ref_combo_sum(lhs, neg_rhs)
        if residual:
            out.append(((src.basis[i], src.basis[j]), residual))
    return out


@settings(max_examples=25, deadline=None)
@given(_fixture_tables())
def test_jacobi_kernel_matches_reference(drawn):
    table, tampered = drawn
    got = jacobi_residual(table)
    want = _ref_jacobi_residual(table)
    assert [names for names, _ in got] == [names for names, _ in want]
    assert got == want
    assert bool(got) <= tampered


_MIXED = st.fractions(min_value=-50, max_value=50, max_denominator=60)


@st.composite
def _mixed_polys(draw):
    """Nonzero sums of up to three Gaussian-rational multiples of
    l^a rho^b, with unrelated denominators."""
    p = ParamPoly({
        (draw(st.integers(0, 2)), draw(st.integers(0, 2))) + (0,) * 8:
            ExactScalar(draw(_MIXED), draw(_MIXED))
        for _ in range(draw(st.integers(1, 3)))
    })
    return p if p else poly(ExactScalar(draw(_MIXED.filter(bool))))


@st.composite
def _sparse_tables(draw):
    """Random tables that are not Lie algebras: dimension 3-8, a random
    subset of brackets set in either orientation, each with up to three
    outputs that often include the bracket's own generators."""
    n = draw(st.integers(3, 8))
    table = StructureConstants(tuple(f"e{a}" for a in range(n)))
    pairs = list(itertools.combinations(range(n), 2))
    for i, j in draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1)):
        outs = draw(st.lists(st.one_of(st.sampled_from((i, j)), st.integers(0, n - 1)),
                             unique=True, min_size=1, max_size=3))
        combo = {k: draw(_mixed_polys()) for k in outs}
        if draw(st.booleans()):
            set_bracket(table, i, j, combo)
        else:
            set_bracket(table, j, i, combo)
    return table


def _assert_matches_reference(table):
    got = jacobi_residual(table)
    want = _ref_jacobi_residual(table)
    assert [names for names, _ in got] == [names for names, _ in want]
    assert got == want
    return got


@settings(max_examples=60, deadline=None)
@given(_sparse_tables())
def test_jacobi_join_matches_reference_on_sparse_tables(table):
    # every orientation of the join runs: c above, below and between a < b
    _assert_matches_reference(table)


def test_jacobi_join_matches_reference_on_a_large_sparse_table():
    n = 41
    table = StructureConstants(tuple(f"e{a}" for a in range(n)))
    half, third = ExactScalar(Fraction(1, 2)), ExactScalar(0, Fraction(-1, 3))
    set_bracket(table, 0, 40, {20: poly(1), 0: sym("l")})
    set_bracket(table, 20, 5, {40: poly(half), 5: sym("rho")})
    set_bracket(table, 39, 5, {0: poly(third), 39: poly(1) - sym("l", 2)})
    set_bracket(table, 1, 39, {20: sym("rho") * poly(ExactScalar(Fraction(2, 7), 1))})
    set_bracket(table, 40, 39, {1: poly(3), 40: poly(ExactScalar(Fraction(5, 9)))})
    set_bracket(table, 12, 20, {12: sym("l"), 30: poly(1)})
    set_bracket(table, 30, 12, {20: poly(half)})
    got = _assert_matches_reference(table)
    assert [names for names, _ in got] == [
        ("e0", "e5", "e20"), ("e0", "e5", "e40"), ("e0", "e12", "e40"),
        ("e0", "e39", "e40"), ("e1", "e5", "e39"), ("e1", "e12", "e39"),
        ("e5", "e12", "e30"), ("e5", "e20", "e39"), ("e5", "e39", "e40"),
        ("e12", "e20", "e30"),
    ]
    # [[e12, e20], e30] = [l e12 + e30, e30] = -l [e30, e12]; the rest vanish
    assert got[-1][1] == {20: poly(Fraction(-1, 2)) * sym("l")}


def _nine_digit_rational(rng):
    return Fraction(rng.choice((1, -1)) * rng.randint(10 ** 8, 10 ** 9 - 1),
                    rng.randint(10 ** 8, 10 ** 9 - 1))


@pytest.mark.parametrize("build", [build_deformed_algebra, build_orthogonal_algebra])
@pytest.mark.parametrize("eps4,eps5", SIGNS)
def test_jacobi_kernel_matches_reference_at_benchmark_scale(build, eps4, eps5):
    # the strategies above draw denominators of at most 1000; the fixtures
    # of the algebra-fixtures benchmark rescale every generator by a
    # 9-digit/9-digit rational, so each sum cross-multiplies ~60-bit parts
    rng = random.Random(f"scale:{build.__name__}:{eps4}:{eps5}")
    base = build(eps4, eps5)
    clean = _rescaled(base, [_nine_digit_rational(rng) for _ in base.basis])
    read = StructureConstants.from_json(clean.to_json())
    assert read.rows == clean.rows
    assert _assert_matches_reference(read) == []
    pair = rng.choice(read.pairs())
    combo = read.bracket(*pair)
    k = rng.choice(sorted(combo))
    set_bracket(read, *pair, {**combo, k: combo[k] * poly(Fraction(7, 3))})
    assert _assert_matches_reference(read)


def test_jacobi_triple_tags_do_not_alias_past_256_generators():
    # a seeded sparse table on seven generators, placed in a 301-generator
    # basis where a tag of one byte per index would carry: (0, 1, 259)
    # would meet (0, 2, 3), and (0, 258, 300) would meet (1, 2, 300)
    small = _seeded_table(random.Random("tags"))
    at = (0, 1, 2, 3, 258, 259, 300)
    names = [f"f{a}" for a in range(301)]
    for pos, name in zip(at, small.basis):
        names[pos] = name
    wide = StructureConstants(names)
    for i, j in small.pairs():
        set_bracket(wide, at[i], at[j], {at[k]: c for k, c in small.bracket(i, j).items()})
    want = [(triple, {at[k]: c for k, c in combo.items()})
            for triple, combo in _ref_jacobi_residual(small)]
    got = jacobi_residual(wide)
    assert [triple for triple, _ in got] == [triple for triple, _ in want]
    assert got == want
    assert {("e0", "e1", "e5"), ("e0", "e2", "e3"),
            ("e0", "e4", "e6"), ("e1", "e2", "e6")} <= {triple for triple, _ in got}


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(SIGNS), _polys(), _polys(), _polys(), st.booleans())
def test_isomorphism_kernel_matches_reference(signs, da, db, dg, perturb):
    sol = solve_isomorphism_scalings(*signs)
    if perturb:
        lmap = scaling_map(sol.src, sol.dst, sol.alpha + da, sol.beta * db, sol.gamma - dg)
    else:
        lmap = sol.map
    check = verify_linear_isomorphism(lmap)
    want = _ref_bracket_mismatches(lmap)
    assert [names for names, _ in check.mismatches] == [names for names, _ in want]
    assert check.mismatches == want
    if not perturb:
        assert check.ok and want == []


def test_kernel_keeps_the_degree_bound():
    # a product past MAX_DEGREE raises in the kernel as ParamPoly * does
    alg = StructureConstants(("a", "b", "c", "d"))
    # [[a, b], c] = l^MAX_DEGREE [d, c] = l^(MAX_DEGREE + 1) a
    set_bracket(alg, 0, 1, {3: sym("l", MAX_DEGREE)})
    set_bracket(alg, 3, 2, {0: sym("l")})
    with pytest.raises(DegreeBoundError, match="l\\^"):
        jacobi_residual(alg)
    with pytest.raises(DegreeBoundError):
        _ref_jacobi_residual(alg)
