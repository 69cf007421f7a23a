"""Structure constants, Jacobi identities, and the six-dimensional match."""

import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncdirac.cli import main
from ncdirac.lie_algebra import (
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
from ncdirac.scalars import (MAX_DEGREE, DegreeBoundError, ExactScalar, ParamPoly,
                             QuadraticScalar, poly, sym)

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
    i = ExactScalar.i()
    # metric is (+,-,-,-): timelike and spacelike pairings differ by a sign
    assert _coeff(alg, "P0", "x0", "C") == poly(i)
    assert _coeff(alg, "P1", "x1", "C") == poly(-i)
    assert not alg.bracket(alg.basis.index("P0"), alg.basis.index("x1"))
    assert _coeff(alg, "P0", "P1", "M01") == poly(-i * eps4) * sym("rho")
    assert _coeff(alg, "x0", "x1", "M01") == poly(-i * eps5) * sym("l", 2)
    assert _coeff(alg, "M01", "P0", "P1") == poly(-i)
    assert _coeff(alg, "M12", "x2", "x1") == poly(-i)
    assert _coeff(alg, "P0", "C", "x0") == poly(-i * eps4) * sym("rho")
    assert _coeff(alg, "x0", "C", "P0") == poly(i * eps5) * sym("l", 2)
    assert not alg.bracket(alg.basis.index("M01"), alg.basis.index("C"))


@pytest.mark.parametrize("eps4,eps5", SIGNS)
def test_orthogonal_extra_rows(eps4, eps5):
    alg = build_orthogonal_algebra(eps4, eps5)
    i = ExactScalar.i()
    assert _coeff(alg, "M04", "M14", "M01") == poly(-i * eps4)
    assert _coeff(alg, "M05", "M15", "M01") == poly(-i * eps5)
    assert _coeff(alg, "M45", "M04", "M05") == poly(-i * eps4)


def test_tampered_table_fails_jacobi():
    alg = build_deformed_algebra(1, -1)
    ix = {n: k for k, n in enumerate(alg.basis)}
    # double the [P0, x0] constant: iC -> 2iC
    alg.set_bracket(ix["P0"], ix["x0"], {ix["C"]: poly(ExactScalar(0, 2))})
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
    check = verify_linear_isomorphism(sol.map)
    assert check.ok and check.invertible
    assert check.mismatches == []
    # the search carries the same verdict on its canonical map
    assert sol.check == check


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
        table.set_bracket(i, j, {**combo, k: combo[k] * poly(2)})
        return table

    monkeypatch.setattr(lie, "build_orthogonal_algebra", tampered)


@pytest.mark.parametrize("which", [0, -1])
def test_scaled_coefficient_has_no_isomorphism(monkeypatch, which):
    # the sign search stops each candidate at its first mismatch; one wrong
    # coefficient, first or last in bracket order, must still defeat all
    _double_one_coefficient(monkeypatch, which)
    with pytest.raises(ArithmeticError):
        solve_isomorphism_scalings(1, -1)


def test_scaled_coefficient_gives_a_failed_isomorphism_row(monkeypatch, capsys):
    # the search's ArithmeticError becomes a fail row; every other row of
    # the run is still reported and the run exits 1
    _double_one_coefficient(monkeypatch, 0)
    code = main(["verify", "algebra", "--eps4", "1", "--eps5", "-1"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    rows = {r["check"]: r for r in doc["reports"]}
    assert sorted(rows) == [
        "contraction", "isomorphism", "jacobi_deformed", "jacobi_orthogonal",
    ]
    iso = rows["isomorphism"]
    assert iso["status"] == "fail"
    assert iso["details"] == {
        "passing_sign_choices": [],
        "error": "no scaling signs satisfy the bracket match",
    }
    assert doc["summary"] == {"failed": 1, "passed": 3, "total": 4}


def _negated(table, names):
    """The same algebra over the basis with each generator of ``names``
    replaced by its negative: c_ij^m picks up the signs of i, j and m."""
    flipped = {table.index[name] for name in names}
    sign = [-1 if k in flipped else 1 for k in range(table.dim())]
    out = StructureConstants(table.basis)
    for i, j in table.pairs():
        out.set_bracket(i, j, {m: c * poly(sign[i] * sign[j] * sign[m])
                               for m, c in table.bracket(i, j).items()})
    return out


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
    # the one-pass search against eight explicit verifications of
    # scaling_map(s_alpha r, s_beta l, s_gamma r l); a relabelled target
    # table moves the passing set, so a wrong character fails here
    import ncdirac.lie_algebra as lie

    build = lie.build_orthogonal_algebra
    monkeypatch.setattr(lie, "build_orthogonal_algebra",
                        lambda e4, e5: _negated(build(e4, e5), flips))
    src = lie._deformed_table(eps4, eps5).substitute({"rho": sym("r", 2)})
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


def test_flipped_gamma_breaks_isomorphism():
    sol = solve_isomorphism_scalings(1, -1)
    broken = scaling_map(sol.src, sol.dst, sol.alpha, sol.beta, -sol.gamma)
    check = verify_linear_isomorphism(broken)
    assert not check.ok
    assert check.mismatches


def test_map_rank_is_read_at_the_sample_points():
    sol = solve_isomorphism_scalings(1, -1)
    dropped = scaling_map(sol.src, sol.dst, sol.alpha, poly(0), sol.gamma)
    check = verify_linear_isomorphism(dropped)
    assert not check.invertible and not check.ok
    # l - 2 vanishes at the first sample point (l = 2) but not at the second
    vanishing = scaling_map(sol.src, sol.dst, sol.alpha, sym("l") - 2, sol.gamma)
    assert verify_linear_isomorphism(vanishing).invertible


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
    assert _coeff(flat, "P0", "x0", "C") == poly(ExactScalar.i())
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
        alg.set_bracket(0, 99, {1: poly(1)})
    with pytest.raises(ValueError, match="generator index -1"):
        alg.set_bracket(-1, 3, {1: poly(1)})
    with pytest.raises(ValueError, match="output index -1"):
        alg.set_bracket(0, 1, {-1: poly(1)})
    with pytest.raises(ValueError, match="output index 15"):
        alg.set_bracket(1, 0, {15: poly(1)})


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
])
def test_fixture_malformed_entry_names_the_key(key, entries, message):
    doc = _doc()
    doc["brackets"][key] = entries
    with pytest.raises(ValueError) as exc:
        StructureConstants.from_json(doc)
    assert str(exc.value).startswith(f"bracket key {key!r}: ")
    assert message in str(exc.value)


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


@pytest.mark.parametrize("i,j,bad", [(99, 3, 99), (-1, 3, -1), (3, 15, 15), (15, 15, 15)])
def test_bracket_read_outside_basis_is_rejected(i, j, bad):
    alg = build_deformed_algebra(1, 1)
    with pytest.raises(ValueError, match=rf"generator index {bad} of bracket \[{i},{j}\]"):
        alg.bracket(i, j)


@pytest.mark.parametrize("basis", ["abc", [1, 2, 3], ["a", None]])
def test_fixture_basis_must_be_a_list_of_names(basis):
    # a string once loaded as one generator per character, and integers
    # as integer names
    with pytest.raises(ValueError, match="a 'basis' list and a 'brackets' object"):
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
            table.set_bracket(*((i, j) if rng.random() < 0.5 else (j, i)), combo)
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
    import ncdirac.lie_algebra as lie
    import ncdirac.scalars as scalars

    rng = random.Random("parse")
    tables = [_seeded_table(rng) for _ in range(5)]
    docs = [_unusual_json(table.to_json(), rng) for table in tables]

    def forbidden(*args, **kwargs):
        raise AssertionError("from_json built an ExactScalar or a ParamPoly")

    for owner, name in ((ParamPoly, "__init__"), (ExactScalar, "__init__"),
                        (scalars, "_make"), (scalars, "_packed_poly"),
                        (lie, "_make"), (lie, "_packed_poly"), (lie, "_reduced")):
        monkeypatch.setattr(owner, name, forbidden)
    loaded = [StructureConstants.from_json(doc) for doc in docs]
    monkeypatch.undo()
    for got, want in zip(loaded, tables):
        _assert_same_table(got, want)


@pytest.mark.parametrize("eps4", [1, -1])
def test_ell_limit_does_not_depend_on_eps5(eps4):
    # eps5 only multiplies l^2, so the report checks this limit once per eps4
    plus, minus = (contract(build_deformed_algebra(eps4, e5), ell_to_zero=True)
                   for e5 in (1, -1))
    assert plus.rows == minus.rows


# -- sparse Jacobi against a float oracle ------------------------------------


def _float_violations(table, point, rel_tol=1e-9):
    """Index triples whose Jacobi sum, evaluated in complex floats at
    `point`, exceeds rel_tol times the sum of its three terms' sizes."""
    n = table.dim()
    f = np.zeros((n, n, n), dtype=complex)
    for i, j in table.pairs():
        for k, c in table.bracket(i, j).items():
            f[i, j, k] = complex(c.evaluate(point))
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
        table.set_bracket(i, j, {k: c * poly(s[i] * s[j] / s[k]) * f
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
        table.set_bracket(*pair, {**combo, k: combo[k] * factor})
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
            table.set_bracket(i, j, combo)
        else:
            table.set_bracket(j, i, combo)
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
    table.set_bracket(0, 40, {20: poly(1), 0: sym("l")})
    table.set_bracket(20, 5, {40: poly(half), 5: sym("rho")})
    table.set_bracket(39, 5, {0: poly(third), 39: poly(1) - sym("l", 2)})
    table.set_bracket(1, 39, {20: sym("rho") * poly(ExactScalar(Fraction(2, 7), 1))})
    table.set_bracket(40, 39, {1: poly(3), 40: poly(ExactScalar(Fraction(5, 9)))})
    table.set_bracket(12, 20, {12: sym("l"), 30: poly(1)})
    table.set_bracket(30, 12, {20: poly(half)})
    got = _assert_matches_reference(table)
    assert [names for names, _ in got] == [
        ("e0", "e5", "e20"), ("e0", "e5", "e40"), ("e0", "e12", "e40"),
        ("e0", "e39", "e40"), ("e1", "e5", "e39"), ("e1", "e12", "e39"),
        ("e5", "e12", "e30"), ("e5", "e20", "e39"), ("e5", "e39", "e40"),
        ("e12", "e20", "e30"),
    ]
    # [[e12, e20], e30] = [l e12 + e30, e30] = -l [e30, e12]; the rest vanish
    assert got[-1][1] == {20: poly(Fraction(-1, 2)) * sym("l")}


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
    alg.set_bracket(0, 1, {3: sym("l", MAX_DEGREE)})
    alg.set_bracket(3, 2, {0: sym("l")})
    with pytest.raises(DegreeBoundError, match="l\\^"):
        jacobi_residual(alg)
    with pytest.raises(DegreeBoundError):
        _ref_jacobi_residual(alg)
