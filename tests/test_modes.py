"""Dispersion branches, exact nullspaces, and exact boost covariance by the
Cayley boost oracle."""

import random
import sys
from fractions import Fraction
from itertools import combinations

import cayley_oracle
import numpy as np
import pytest
from cayley_oracle import boost_defect, cayley_boost
from determinant import det
from exact_arrays import as_array
from exact_gammas import exact_gammas
from hypothesis import given, settings, strategies as st
from package_mutant import failed_rows
from spans import stacked_rank_closed

from ncdirac import checks, clifford, modes
from ncdirac.clifford import VerificationError
from ncdirac.matrices import ExactMatrix, echelon
from ncdirac.modes import (
    dirac_matrix,
    dispersion_roots,
    operator_residual,
    reference_solutions,
    scaling_residual,
    squared_identity_residual,
)
from ncdirac.lie_algebra import minkowski_square
from ncdirac.scalars import MOMENTUM_SYMBOLS, I, ExactScalar, poly, sym
from ncdirac.seesaw import CouplingConfig


@pytest.mark.parametrize("eps5", [1, -1])
def test_squared_identity_symbolic(eps5):
    assert squared_identity_residual(eps5).is_zero()


def _negated_quartic(monkeypatch):
    """dispersion_polynomial with its (k^2)^2 coefficient b negated."""
    true = modes.dispersion_polynomial
    monkeypatch.setattr(modes, "dispersion_polynomial",
                        lambda ell, eps5: (true(ell, eps5)[0], -true(ell, eps5)[1]))


@pytest.mark.parametrize("eps5", [1, -1])
@pytest.mark.parametrize("negated", [False, True])
def test_squared_identity_is_the_product_less_the_scaled_identity(monkeypatch, eps5, negated):
    # each entry is one sum of products, and the matrix is still D @ D less
    # the dispersion polynomial times Id: zero as written, and the same
    # nonzero matrix with b negated
    if negated:
        _negated_quartic(monkeypatch)
    D = dirac_matrix(eps5)
    ksq = minkowski_square(MOMENTUM_SYMBOLS)
    a, b = modes.dispersion_polynomial(sym("l"), eps5)
    got = squared_identity_residual(eps5)
    assert got == D @ D - ExactMatrix.identity(4).scale(ksq * a + ksq * ksq * b)
    assert got.is_zero() != negated


@pytest.mark.parametrize("eps5", [1, -1])
def test_a_negated_quartic_coefficient_fails_the_dispersion_identity(monkeypatch, eps5):
    # negated at one sign only: the identity, run there directly, fails; the
    # identity row runs at eps5 = 1 and fails when the sign is 1, and the
    # roots row of the negated sign fails at either
    true = modes.dispersion_polynomial
    monkeypatch.setattr(modes, "dispersion_polynomial", lambda ell, e5: (
        (true(ell, e5)[0], -true(ell, e5)[1]) if e5 == eps5 else true(ell, e5)))
    assert not squared_identity_residual(eps5).is_zero()
    rows = checks.cmd_modes(checks.RunConfig())
    failed = {(r.check, r.params["eps5"]) for r in rows if not r.passed}
    assert failed == {("dispersion_roots", eps5)} | ({("dispersion_identity", 1)} if eps5 == 1
                                                     else set())


@pytest.mark.parametrize("eps5", [1, -1])
@pytest.mark.parametrize("s,ell,k", [
    (Fraction(3), Fraction(1, 2), (1, 2, 0, -1)),
    (Fraction(2, 7), Fraction(5), (Fraction(1, 3), 0, 4, 1)),
])
def test_scaling_identity_means_what_it_says(eps5, s, ell, k):
    # the symbol r of scaling_residual is the scale: at sample points,
    # s D(k; s l) = D(s k; l) holds on dirac_matrix itself
    assert scaling_residual(eps5).is_zero()
    lhs = dirac_matrix(eps5, k, s * ell).scale(s)
    rhs = dirac_matrix(eps5, tuple(s * c for c in k), ell)
    assert lhs == rhs


_D_SCALE = "Fraction(-1, 2) * ell * minkowski_square(k)"


def test_a_length_squared_in_d_fails_modes_scaling(tmp_path):
    # D(k) is written once, in dirac_coefficients: with l squared there, in
    # a copy of the package, D is not homogeneous and modes_scaling fails,
    # beside the rows that read D at l = 2 at either sign
    failed = failed_rows(tmp_path, "modes.py", _D_SCALE, _D_SCALE.replace("ell", "ell ** 2"),
                         "modes")
    assert failed == {("dispersion_identity", 1), ("modes_scaling", 1),
                      ("modes_reference_heavy", 1), ("modes_reference_heavy", -1)}


@pytest.mark.parametrize("eps5", [1, -1])
def test_the_heavy_reference_is_the_same_at_every_length(eps5):
    # D(frame(eps5, M); 2/M) = M D(frame(eps5, 1); 2): the modes rows run at
    # l = 2 only, and the kernel and class there are those at every l
    at_two = reference_solutions(Fraction(2), eps5, "heavy")
    for ell in (Fraction(1, 3), Fraction(1), Fraction(7, 2)):
        sol = reference_solutions(ell, eps5, "heavy")
        assert (sol.basis, sol.spinor_class) == (at_two.basis, at_two.spinor_class)


@pytest.mark.parametrize(
    "ell,heavy",
    [(Fraction(1, 2), 16), (Fraction(1), 4), (Fraction(2), 1)],
)
@pytest.mark.parametrize("eps5", [1, -1])
def test_dispersion_roots_exact(ell, heavy, eps5):
    got = dispersion_roots(ell, eps5)
    assert got == {Fraction(0), Fraction(-eps5 * heavy)}


def test_dispersion_roots_rational_scale():
    # l = 2/m puts the heavy branch exactly at m^2
    for m in (3, 5, 7):
        got = dispersion_roots(Fraction(2, m), -1)
        assert got == {Fraction(0), Fraction(m * m)}


@pytest.mark.parametrize("eps5", [1, -1])
def test_tampered_dispersion_coefficient_fails_the_rows(monkeypatch, eps5):
    # the polynomial is written once: a wrong (k^2)^2 coefficient fails the
    # D(k)^2 identity, and the roots solved from it miss -eps5 4/l^2
    monkeypatch.setattr(modes, "dispersion_polynomial",
                        lambda ell, e5: (1, ell * ell * Fraction(e5, 2)))
    rows = {r.check: r for r in checks.cmd_modes(checks.RunConfig(eps5=eps5))}
    for name in ("dispersion_identity", "dispersion_roots"):
        assert not rows[name].passed, name
    # the roots row runs at l = 2, where the root is -1/(2 eps5), not -eps5
    assert rows["dispersion_roots"].details["roots"] == sorted(["0", str(Fraction(-eps5, 2))])


def _in_kernel(eps5: int, k, vec) -> bool:
    return (dirac_matrix(eps5, k, Fraction(1)) @ ExactMatrix([[c] for c in vec])).is_zero()


FROZEN_SPANS = {
    # eps5 -> (branch, spanning vectors of the computed kernel)
    (-1, "heavy"): [(1, 0, I, 0), (0, 1, 0, I)],
    (1, "heavy"): [(1, 1, 0, 0), (0, 0, 1, -1)],
    (-1, "massless"): [(1, 0, 0, -1), (0, 1, -1, 0)],
    (1, "massless"): [(1, 0, 0, -1), (0, 1, -1, 0)],
}


@pytest.mark.parametrize("eps5", [1, -1])
def test_heavy_solutions(eps5):
    sol = reference_solutions(Fraction(1), eps5, "heavy")
    assert len(sol.basis) == 2
    assert sol.k2 == Fraction(-4 * eps5)
    assert sol.spinor_class == ("Dirac" if eps5 == -1 else "Majorana")
    for vec in sol.basis:
        assert operator_residual(dirac_matrix(eps5, sol.k, Fraction(1)), vec) == 0.0
    for vec in FROZEN_SPANS[(eps5, "heavy")]:
        assert _in_kernel(eps5, sol.k, vec)


@pytest.mark.parametrize("eps5", [1, -1])
def test_massless_solutions(eps5):
    sol = reference_solutions(Fraction(1), eps5, "massless")
    assert len(sol.basis) == 2
    assert sol.k2 == 0
    assert sol.spinor_class == "Majorana"
    for vec in FROZEN_SPANS[(eps5, "massless")]:
        assert _in_kernel(eps5, sol.k, vec)


@pytest.mark.parametrize("eps5", [1, -1])
@pytest.mark.parametrize("branch", ["heavy", "massless"])
def test_a_reference_solution_runs_one_elimination(monkeypatch, eps5, branch):
    # the kernel's and no other: the class is read off the basis it gives
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return echelon(rows)

    for name, module in list(sys.modules.items()):
        if name.startswith("ncdirac") and getattr(module, "echelon", None) is echelon:
            monkeypatch.setattr(module, "echelon", counted)
    reference_solutions(Fraction(1), eps5, branch)
    assert calls == [4]


@pytest.mark.parametrize("eps5", [1, -1])
def test_a_mode_kernel_of_other_dimension_raises(eps5):
    # D(0) = 0: the whole spinor space is the kernel, no mode to classify
    k = modes.frame(eps5, 0)
    with pytest.raises(VerificationError,
                       match=rf"^nullspace dimension 4 != 2 at k=\(0, 0, 0, 0\) \(eps5={eps5}\)$"):
        modes.spinor_kernel(dirac_matrix(eps5, k, Fraction(1)), k, eps5)


def test_float_length_is_rejected():
    # a float would otherwise be embedded as a dyadic rational and the
    # solution reported as exact at the wrong momentum
    with pytest.raises(TypeError, match="convert floats explicitly"):
        reference_solutions(0.1, -1, "heavy")
    sol = reference_solutions(Fraction(1, 10), -1, "heavy")
    assert sol.k == (Fraction(20), 0, 0, 0)


# every function of modes that reads the length l, at valid other arguments
_AT_LENGTH = {
    "heavy_mass": modes.heavy_mass,
    "heavy_k2": lambda ell: modes.heavy_k2(ell, 1),
    "dispersion_roots": lambda ell: dispersion_roots(ell, -1),
    "reference_solutions": lambda ell: reference_solutions(ell, -1, "heavy"),
}


@pytest.mark.parametrize("ell", [0, -2, "-1/3"])
@pytest.mark.parametrize("name", _AT_LENGTH)
def test_a_length_that_is_not_positive_is_refused(name, ell):
    # heavy_mass(-2) once gave the negative mass -1, and heavy_mass(0)
    # divided by zero
    with pytest.raises(ValueError, match="ell must be positive"):
        _AT_LENGTH[name](ell)


def _massless_residual(u):
    """The residual of u against D(k) at k = (1, 0, 0, 1), l = 1, eps5 = +1."""
    return operator_residual(dirac_matrix(1, (1, 0, 0, 1), 1), u)


def test_residual_rejects_zero_vector():
    with pytest.raises(ValueError):
        operator_residual(dirac_matrix(-1, (1, 0, 0, 0), 1), (0, 0, 0, 0))


_NOT_EXACT = {
    "dirac_matrix-ell": lambda: dirac_matrix(1, (1, 0, 0, 1), 0.5),
    "dirac_matrix-k": lambda: dirac_matrix(1, (1.0, 0, 0, 1), 1),
    "CouplingConfig-g": lambda: CouplingConfig(g=0.5, vev=1, ell=1, eps5=1),
    "CouplingConfig-complex-g": lambda: CouplingConfig(g=1j, vev=1, ell=1, eps5=1),
    "CouplingConfig-vev": lambda: CouplingConfig(g=1, vev=0.01, ell=1, eps5=1),
    "reference_solutions": lambda: reference_solutions(0.5, 1, "massless"),
    "operator_residual-float": lambda: _massless_residual((0.5, 0, 0, 1)),
    "operator_residual-complex": lambda: _massless_residual((1 + 1e-13j, 0, 0, 1)),
    # a complex with integer parts too: the exact unit is I
    "operator_residual-integer-complex": lambda: _massless_residual((1j, 0, 0, -1j)),
    "dispersion_roots": lambda: dispersion_roots(0.5, 1),
    "cayley_boost": lambda: cayley_boost([[0, 0.5, 0, 0], [-0.5, 0, 0, 0], [0] * 4, [0] * 4]),
}


@pytest.mark.parametrize("case", _NOT_EXACT)
def test_float_inputs_raise(case):
    # a float, or a complex with float parts, would otherwise be read as an
    # exact dyadic rational and reported as exact
    with pytest.raises(TypeError, match="convert floats explicitly"):
        _NOT_EXACT[case]()


def test_gaussian_entries_are_exact():
    assert _massless_residual((I, 0, 0, -I)) == 0.0


def test_residual_is_rounded_once():
    # |D(k) u|^2 / |u|^2 is a rational; the float is its correctly rounded
    # square root, which the float norms meet to a few ulps
    k, u = (Fraction(3, 2), Fraction(1, 3), 0, Fraction(-1, 2)), (1, 2 * I, -3, 1 + I)
    op = dirac_matrix(-1, k, Fraction(1, 4))
    floats = np.array([complex(x) for x in u])
    want = np.linalg.norm(as_array(op) @ floats) / np.linalg.norm(floats)
    assert operator_residual(op, u) == pytest.approx(want, rel=1e-15, abs=0)
    assert _massless_residual((1, 0, 0, 0)) == np.sqrt(2.0)


def _axis_boost(rapidity):
    """omega_03 = -omega_30 = rapidity, read exactly from an int or a float."""
    omega = [[Fraction(0)] * 4 for _ in range(4)]
    omega[0][3], omega[3][0] = Fraction(rapidity), -Fraction(rapidity)
    return omega


def _moved_class(sol, boost):
    """The reality class of S u over the basis u of sol, exactly."""
    spinor = ExactMatrix([[ExactScalar(Fraction(x, boost.denom)) for x in row]
                          for row in boost.numer])
    columns = ExactMatrix([list(u) for u in zip(*sol.basis)])
    moved = list(zip(*(spinor @ columns).scalar_entries()))
    return "Majorana" if stacked_rank_closed(moved) else "Dirac"


def _moved_k(sol, boost):
    return [sum(Fraction(x, 4 * boost.denom ** 2) * c for x, c in zip(row, sol.k))
            for row in boost.lam_numer]


@pytest.mark.parametrize("eps5", [1, -1])
@pytest.mark.parametrize("branch", ["heavy", "massless"])
def test_boost_covariance_seeded(eps5, branch):
    # 100 seeded rational generators: each moved solution solves the
    # equation at Lambda k exactly and keeps its reality class (S is real)
    sol = reference_solutions(Fraction(1), eps5, branch)
    rng = random.Random(42)
    boosts = []
    for _ in range(100):
        q = rng.randint(1, 10)
        boosts.append(cayley_boost(_omega([Fraction(rng.randint(-q, q), q) for _ in range(6)])))
    assert boost_defect(sol, boosts) is None
    assert all(_moved_class(sol, b) == sol.spinor_class for b in boosts)


@pytest.mark.parametrize("eps5", [1, -1])
def test_float_matrix_matches_exact(eps5):
    # float oracle: the operator summed in complex128 from the exact gammas
    k = (Fraction(3, 2), Fraction(1, 3), 0, Fraction(-1, 2))
    exact = dirac_matrix(eps5, k, Fraction(1, 4))
    gs = [as_array(g) for g in exact_gammas(eps5)]
    kf = [float(c) for c in k]
    k2 = kf[0] ** 2 - kf[1] ** 2 - kf[2] ** 2 - kf[3] ** 2
    floaty = sum(g * (c * eta) for g, c, eta in zip(gs, kf, (1, -1, -1, -1)))
    floaty = floaty - eps5 * 0.25 / 2 * k2 * gs[4]
    assert np.allclose(as_array(exact), floaty, rtol=0, atol=1e-14)


@pytest.mark.parametrize("eps5", [1, -1])
@pytest.mark.parametrize("rapidity", [10.0, -10.0])
def test_heavy_boost_at_rapidity_ten_passes(eps5, rapidity):
    # omega_03 = +-10: Lambda mixes 0 and 3 by (1241, +-1160) / 441, with
    # 1241^2 - 1160^2 = 441^2
    sol = reference_solutions(Fraction(1), eps5, "heavy")
    boost = cayley_boost(_axis_boost(rapidity))
    assert boost_defect(sol, [boost]) is None
    c, s = Fraction(1241, 441), Fraction(1160, 441) * (1 if rapidity > 0 else -1)
    k = sol.k
    assert _moved_k(sol, boost) == [c * k[0] + s * k[3], k[1], k[2], s * k[0] + c * k[3]]
    assert _moved_class(sol, boost) == sol.spinor_class


@pytest.mark.parametrize("eps5", [1, -1])
@pytest.mark.parametrize("rapidity", [20.0, 30.0])
def test_massless_boost_that_grows_k_passes(eps5, rapidity):
    # k = (1, 0, 0, 1) grows by ((1 + t) / (1 - t))^2 with t = omega_03 / 4,
    # and k'^2 stays exactly 0
    sol = reference_solutions(Fraction(1), eps5, "massless")
    boost = cayley_boost(_axis_boost(rapidity))
    assert boost_defect(sol, [boost]) is None
    t = Fraction(rapidity) / 4
    grow = ((1 + t) / (1 - t)) ** 2
    assert grow > 1
    assert _moved_k(sol, boost) == [grow, 0, 0, grow]
    assert _moved_class(sol, boost) == sol.spinor_class


@pytest.mark.parametrize("eps5", [1, -1])
@pytest.mark.parametrize("rapidity", [0.5, 20.0, 30.0])
def test_off_shell_spinor_fails_at_large_boosts(eps5, rapidity):
    # the massless kernel at k = (1, 0, 0, -1) is not a solution at
    # (1, 0, 0, 1), and no boost makes it one
    sol = reference_solutions(Fraction(1), eps5, "massless")
    wrong = dirac_matrix(eps5, (1, 0, 0, -1), Fraction(1))
    bad = sol._replace(basis=tuple(tuple(v) for v in wrong.kernel()))
    boost = cayley_boost(_axis_boost(rapidity))
    assert boost_defect(bad, [boost]) == (0, "D(Lambda k) S u != 0")


# -- exact Cayley boosts ------------------------------------------------------

_GENERATOR = st.fractions(min_value=-2000, max_value=2000, max_denominator=50)


def _omega(upper):
    """The antisymmetric generator with omega_ab = upper[k], a < b in row
    order."""
    omega = [[Fraction(0)] * 4 for _ in range(4)]
    for (a, b), x in zip(combinations(range(4), 2), upper):
        omega[a][b], omega[b][a] = Fraction(x), -Fraction(x)
    return omega


def _exact(rows, denom=1) -> ExactMatrix:
    return ExactMatrix([[ExactScalar(Fraction(x, denom)) for x in row] for row in rows])


@settings(max_examples=40, deadline=None)
@given(st.lists(_GENERATOR, min_size=6, max_size=6))
def test_cayley_boost_pairs_s_with_lambda(upper):
    # the oracle is ExactMatrix arithmetic on the exact gammas, apart from
    # the integer builder: (I - A/2) S = I + A/2, S S^-1 = I,
    # S^-1 g^mu S = Lambda^mu_nu g^nu, Lambda^T eta Lambda = eta
    omega = _omega(upper)
    gammas = exact_gammas(1)
    a = ExactMatrix.zeros(4)
    for i, j in combinations(range(4), 2):
        a = a + (gammas[i] @ gammas[j]).scale(poly(ExactScalar(omega[i][j] / 2)))
    eye, half = ExactMatrix.identity(4), poly(ExactScalar(Fraction(1, 2)))
    if det(eye - a.scale(half)).is_zero():
        with pytest.raises(VerificationError, match="singular"):
            cayley_boost(omega)
        return
    boost = cayley_boost(omega)
    s, s_inv = _exact(boost.numer, boost.denom), _exact(boost.inverse, boost.denom)
    assert (eye - a.scale(half)) @ s == eye + a.scale(half)
    assert s @ s_inv == eye
    lam = [[Fraction(x, 4 * boost.denom ** 2) for x in row] for row in boost.lam_numer]
    for mu in range(4):
        paired = ExactMatrix.zeros(4)
        for nu in range(4):
            paired = paired + gammas[nu].scale(poly(ExactScalar(lam[mu][nu])))
        assert s_inv @ gammas[mu] @ s == paired
    eta = [1, -1, -1, -1]
    assert [[sum(lam[c][a] * eta[c] * lam[c][b] for c in range(4)) for b in range(4)]
            for a in range(4)] == [[eta[a] * (a == b) for b in range(4)] for a in range(4)]
    assert boost.height_bits == max(
        [boost.denom] + [abs(x) for row in boost.numer for x in row]).bit_length()


def test_large_generators_stay_exact():
    # a rapidity-1000 boost along z plus a rotation: only larger integers
    boost = cayley_boost(_omega([0, 0, 1000, Fraction(2001, 2), 0, 0]))
    for branch in ("heavy", "massless"):
        for eps5 in (1, -1):
            sol = reference_solutions(Fraction(1), eps5, branch)
            assert boost_defect(sol, [boost]) is None
    assert boost.height_bits > 40


def test_singular_generator_names_its_draw():
    # omega_01 = 4: A = g0 g1 is a pure boost with A^2 = 4 I, so I - A/2
    # has no inverse; one cayley_boost per draw names the failing one
    good = _omega([Fraction(1, 2), 0, 0, 0, Fraction(-1, 3), 0])
    failed = []
    for index, omega in enumerate([good, good, _omega([4, 0, 0, 0, 0, 0]), good]):
        try:
            cayley_boost(omega)
        except VerificationError as exc:
            failed.append((index, str(exc)))
    assert failed == [(2, "I - A/2 is singular")]
    with pytest.raises(ValueError, match="antisymmetric"):
        cayley_boost([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])


def _seeded_omegas(seed):
    """100 seeded generators: a denominator q uniform in 1..10, then
    omega_ab, a < b in row order, as p/q with p uniform in -q..q."""
    rng = random.Random(seed)
    omegas = []
    for _ in range(100):
        q = rng.randint(1, 10)
        omegas.append(_omega([Fraction(rng.randint(-q, q), q) for _ in range(6)]))
    return omegas


def _seeded_boosts(seed):
    return [cayley_boost(omega) for omega in _seeded_omegas(seed)]


def _reference_pair(eps5):
    return [reference_solutions(Fraction(1), eps5, b) for b in ("heavy", "massless")]


@pytest.mark.parametrize("seed", [42, 7])
def test_boost_row_equals_per_draw_checks(seed):
    # boost_defect over a list of draws, each branch taking every other
    # one, agrees with one boost_defect per draw: all keep the equation
    boosts = _seeded_boosts(seed)
    for eps5 in (1, -1):
        pair = _reference_pair(eps5)
        assert all(boost_defect(pair[t % 2], [b]) is None for t, b in enumerate(boosts))
        assert [boost_defect(sol, boosts[parity::2]) for parity, sol in enumerate(pair)] == [
            None, None]
    assert max(b.height_bits for b in boosts) == 22


def test_tampered_g4_fails_the_boost_row(monkeypatch):
    # D(k') with the sign of g^4 flipped no longer kills the boosted heavy
    # solutions (k^2 != 0); the massless ones (k^2 = 0) still pass, and the
    # reference solutions come from the true operator
    true_perms = clifford._gamma_perms

    def flipped(eps5):
        *gammas, g4 = true_perms(eps5)
        return (*gammas, tuple((c, (p + 2) % 4) for c, p in g4))

    boosts = _seeded_boosts(42)
    pairs = [_reference_pair(eps5) for eps5 in (1, -1)]
    monkeypatch.setattr(clifford, "_gamma_perms", flipped)
    for heavy, massless in pairs:
        assert boost_defect(heavy, boosts[0::2]) == (0, "D(Lambda k) S u != 0")
        assert boost_defect(massless, boosts[1::2]) is None


def test_corrupted_boost_table_fails_the_boost_row(monkeypatch):
    # G with its first row negated gives a wrong S^-1 already at the first
    # seeded draw, which cayley_boost refuses before any solution is moved
    true_tables = cayley_oracle._tables

    def corrupted():
        r, pairs, g = true_tables()
        first, *rest = g
        return r, pairs, [[-x for x in first], *rest]

    omegas = _seeded_omegas(42)
    monkeypatch.setattr(cayley_oracle, "_tables", corrupted)
    with pytest.raises(VerificationError, match=r"^S\^-1 S != I$"):
        cayley_boost(omegas[0])
