"""Structure constants, Jacobi identities, and the six-dimensional match."""

from fractions import Fraction

import pytest

from ncdirac.lie_algebra import (
    build_deformed_algebra,
    build_orthogonal_algebra,
    contract,
    jacobi_residual,
    jacobi_triple_count,
    scaling_map,
    solve_isomorphism_scalings,
    verify_linear_isomorphism,
    StructureConstants,
)
from ncdirac.scalars import ExactScalar, poly, sym

SIGNS = [(1, 1), (1, -1), (-1, 1), (-1, -1)]


def _coeff(table, a, b, target):
    combo = table.bracket(table.basis.index(a), table.basis.index(b))
    return combo.get(table.basis.index(target), poly(0))


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
    assert set(residual) == {ix["C"]}


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
