"""Structure constants, Jacobi identities, and the six-dimensional match."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


@pytest.mark.parametrize("which", [0, -1])
def test_scaled_coefficient_has_no_isomorphism(monkeypatch, which):
    # the sign search stops each candidate at its first mismatch; one wrong
    # coefficient, first or last in bracket order, must still defeat all
    import ncdirac.lie_algebra as lie

    build = lie.build_orthogonal_algebra

    def tampered(eps4, eps5):
        table = build(eps4, eps5)
        (i, j), combo = sorted(table.brackets.items())[which]
        k = min(combo)
        table.set_bracket(i, j, {**combo, k: combo[k] * poly(2)})
        return table

    monkeypatch.setattr(lie, "build_orthogonal_algebra", tampered)
    with pytest.raises(ArithmeticError):
        solve_isomorphism_scalings(1, -1)


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


# -- sparse Jacobi against a float oracle ------------------------------------


def _float_violations(table, point, rel_tol=1e-9):
    """Index triples whose Jacobi sum, evaluated in complex floats at
    `point`, exceeds rel_tol times the sum of its three terms' sizes."""
    n = table.dim()
    f = np.zeros((n, n, n), dtype=complex)
    for (i, j), combo in table.brackets.items():
        for k, c in combo.items():
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
    for (i, j), combo in base.brackets.items():
        table.set_bracket(i, j, {k: c * poly(s[i] * s[j] / s[k]) * f
                                 for k, c in combo.items()})
    tampered = draw(st.booleans())
    if tampered:
        pair = draw(st.sampled_from(sorted(table.brackets)))
        combo = table.brackets[pair]
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
    for (i, j), combo in alg.brackets.items():
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
