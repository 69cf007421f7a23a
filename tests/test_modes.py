"""Dispersion branches, exact nullspaces, and float and exact boost covariance."""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncdirac import cayley, checks, clifford
from ncdirac.cayley import boost_defect, cayley_boost, cayley_boosts
from ncdirac.checks import RunConfig, cmd_modes
from ncdirac.clifford import VerificationError, boost_matrix, build_majorana_rep, reality_class
from ncdirac.matrices import ExactMatrix, vector_matmul
from ncdirac.modes import (
    ModeProblem,
    boost_solution,
    boost_solutions,
    dirac_matrix,
    dispersion_roots,
    reference_solutions,
    residual,
    squared_identity_residual,
)
from ncdirac.scalars import ExactScalar, poly

I = ExactScalar.i()


@pytest.mark.parametrize("eps5", [1, -1])
def test_squared_identity_symbolic(eps5):
    assert squared_identity_residual(eps5).is_zero()


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


def _in_kernel(problem: ModeProblem, vec) -> bool:
    mat = dirac_matrix(problem).matrix
    out = vector_matmul(mat, [poly(c) for c in vec])
    return all(entry.is_zero() for entry in out)


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
    problem = ModeProblem(eps5=eps5, ell=Fraction(1), k=sol.k)
    for vec in sol.basis:
        assert residual(sol.k, vec, Fraction(1), eps5) == 0.0
    for vec in FROZEN_SPANS[(eps5, "heavy")]:
        assert _in_kernel(problem, vec)


@pytest.mark.parametrize("eps5", [1, -1])
def test_massless_solutions(eps5):
    sol = reference_solutions(Fraction(1), eps5, "massless")
    assert len(sol.basis) == 2
    assert sol.k2 == 0
    assert sol.spinor_class == "Majorana"
    problem = ModeProblem(eps5=eps5, ell=Fraction(1), k=sol.k)
    for vec in FROZEN_SPANS[(eps5, "massless")]:
        assert _in_kernel(problem, vec)


def test_negative_energy_branch():
    sol = reference_solutions(Fraction(1), -1, "heavy", energy_sign=-1)
    assert len(sol.basis) == 2
    assert float(sol.k[0]) < 0
    assert sol.k2 == Fraction(4)


def test_float_length_is_rejected():
    # a float would otherwise be embedded as a dyadic rational and the
    # solution reported as exact at the wrong momentum
    with pytest.raises(TypeError, match="convert floats explicitly"):
        reference_solutions(0.1, -1, "heavy")
    sol = reference_solutions(Fraction(1, 10), -1, "heavy")
    assert sol.k == (Fraction(20), 0, 0, 0)
    assert sol.mode == "exact"


def test_residual_rejects_zero_vector():
    with pytest.raises(ValueError):
        residual((1, 0, 0, 0), (0, 0, 0, 0), Fraction(1), -1)


@pytest.mark.parametrize("eps5", [1, -1])
@pytest.mark.parametrize("branch", ["heavy", "massless"])
def test_boost_covariance_seeded(eps5, branch):
    sol = reference_solutions(Fraction(1), eps5, branch)
    rng = np.random.default_rng(42)
    for _ in range(100):
        omega = rng.uniform(-1, 1, (4, 4))
        omega = omega - omega.T
        moved = boost_solution(sol, omega)
        assert moved.mode == "float"
        worst = max(residual(moved.k, u, moved.ell, eps5) for u in moved.basis)
        assert worst < 1e-10
        drift = abs(float(moved.k2) - float(sol.k2))
        assert drift <= 1e-10 * max(abs(float(sol.k2)), 1.0)
        assert moved.spinor_class == sol.spinor_class


@pytest.mark.parametrize("eps5", [1, -1])
@pytest.mark.parametrize("branch,rapidity", [("massless", 500.0), ("heavy", 1e200)])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_boost_raises(eps5, branch, rapidity):
    # at 500 the exponentials are finite, but k'^2 and D(k') S u overflow to
    # NaN, which a `>` gate lets through; at 1e200 the exponential overflows
    sol = reference_solutions(Fraction(1), eps5, branch)
    omega = np.zeros((4, 4))
    omega[0, 3], omega[3, 0] = rapidity, -rapidity
    with pytest.raises(VerificationError):
        boost_solution(sol, omega)


@pytest.mark.parametrize("eps5", [1, -1])
def test_float_matrix_matches_exact(eps5):
    k = (Fraction(3, 2), Fraction(1, 3), 0, Fraction(-1, 2))
    exact = dirac_matrix(ModeProblem(eps5=eps5, ell=Fraction(1, 4), k=k))
    floaty = dirac_matrix(
        ModeProblem(eps5=eps5, ell=Fraction(1, 4), k=tuple(float(c) for c in k))
    )
    assert exact.mode == "exact"
    assert floaty.mode == "float"
    a = exact.as_array()
    b = floaty.as_array()
    assert np.allclose(a, b, atol=1e-12)


def _axis_boost(rapidity):
    omega = np.zeros((4, 4))
    omega[0, 3], omega[3, 0] = rapidity, -rapidity
    return omega


@pytest.mark.parametrize("eps5", [1, -1])
@pytest.mark.parametrize("branch", ["heavy", "massless"])
def test_boost_solutions_equal_single_draws(eps5, branch):
    sol = reference_solutions(Fraction(1), eps5, branch)
    rng = np.random.default_rng(9)
    omegas = rng.uniform(-2, 2, (12, 4, 4))
    omegas = omegas - np.swapaxes(omegas, -1, -2)
    batch = boost_solutions(sol, omegas)
    assert batch.residuals.shape == (12, 2) and batch.k2_drift.shape == (12,)
    for i, omega in enumerate(omegas):
        one, moved = boost_solution(sol, omega), batch.solutions[i]
        assert np.array_equal(one.k, moved.k)
        assert np.array_equal(one.basis, moved.basis)
        assert one.k2 == moved.k2
        assert one.spinor_class == moved.spinor_class == sol.spinor_class
        assert list(batch.residuals[i]) == [
            residual(one.k, u, one.ell, eps5) for u in one.basis
        ]
    assert boost_solutions(sol, omegas[:0]).solutions == ()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_boost_solutions_name_the_first_failing_draw():
    sol = reference_solutions(Fraction(1), 1, "massless")
    omegas = np.stack([_axis_boost(0.1 * (i + 1)) for i in range(8)])
    omegas[3] = omegas[7] = _axis_boost(500.0)
    with pytest.raises(VerificationError, match="^draw 3: ") as info:
        boost_solutions(sol, omegas)
    assert info.value.index == 3
    # an overflowing exponential later in the stack does not hide draw 3
    omegas[5] = _axis_boost(1e200)
    with pytest.raises(VerificationError, match="^draw 3: "):
        boost_solutions(sol, omegas)


@pytest.mark.parametrize("eps5", [1, -1])
def test_boost_that_shrinks_k_to_roundoff_raises(eps5):
    # k' = e^-40 (1, 0, 0, 1) exactly, but Lambda k cancels terms of size
    # e^40: the float k' is (16, 0, 0, -16), and the forward error bound
    # must reject it before any residual is judged
    sol = reference_solutions(Fraction(1), eps5, "massless")
    with pytest.raises(VerificationError, match="^draw 0: boosted momentum is roundoff"):
        boost_solution(sol, _axis_boost(-40.0))


@pytest.mark.parametrize("eps5", [1, -1])
@pytest.mark.parametrize("rapidity", [10.0, -10.0])
def test_heavy_boost_at_rapidity_ten_passes(eps5, rapidity):
    # ||D(k')|| is about 4.4e4 here: the residual (about 3e-8) and the
    # k'^2 roundoff are judged relative to the size of D(k') and of k'
    sol = reference_solutions(Fraction(1), eps5, "heavy")
    moved = boost_solution(sol, _axis_boost(rapidity))
    ch, sh = np.cosh(rapidity), np.sinh(rapidity)
    lam = np.array([[ch, 0, 0, sh], [0, 1, 0, 0], [0, 0, 1, 0], [sh, 0, 0, ch]])
    assert np.allclose(moved.k, lam @ [float(c) for c in sol.k], rtol=1e-12, atol=0.0)
    assert moved.spinor_class == sol.spinor_class
    worst = max(residual(moved.k, u, moved.ell, eps5) for u in moved.basis)
    assert 1e-10 < worst < 1e-10 * np.linalg.norm(
        dirac_matrix(ModeProblem(eps5=eps5, ell=1.0, k=moved.k)).as_array())


@pytest.mark.parametrize("eps5", [1, -1])
@pytest.mark.parametrize("rapidity", [20.0, 30.0])
def test_massless_boost_that_grows_k_passes(eps5, rapidity):
    # k'^2 is 0, but the float k'^2 inside D(k') reads 128 at 20 and 3.4e10
    # at 30 (k'0 and k'3 differ in their last bits): the residual is exactly
    # (l/2) |fl(k'^2)|, inside the bound on that error
    sol = reference_solutions(Fraction(1), eps5, "massless")
    batch = boost_solutions(sol, _axis_boost(rapidity)[None])
    moved = batch.solutions[0]
    assert np.allclose(moved.k, np.exp(rapidity) * np.array([1.0, 0, 0, 1.0]),
                       rtol=1e-12, atol=0.0)
    assert moved.spinor_class == sol.spinor_class
    k = moved.k
    k2 = k[0] * k[0] - k[1] * k[1] - k[2] * k[2] - k[3] * k[3]
    assert k2 != 0.0
    assert np.allclose(batch.residuals, abs(k2) / 2, rtol=1e-6, atol=0.0)


@pytest.mark.parametrize("eps5", [1, -1])
def test_float_class_does_not_depend_on_the_basis_scale(eps5):
    # S u at rapidity 30 has entries of about 3.3e6; its imaginary parts
    # are exactly 0, but the singular values of the conjugation closure
    # carry roundoff above an absolute 1e-10
    sol = reference_solutions(Fraction(1), eps5, "massless")
    S = boost_matrix(_axis_boost(30.0)).matrix
    moved = np.array([S @ np.array([complex(c) for c in u]) for u in sol.basis])
    assert np.abs(moved).max() > 1e6
    for basis in (moved, moved * 1e-12, moved / np.abs(moved).max()):
        assert reality_class(basis, mode="float") == sol.spinor_class == "Majorana"


@pytest.mark.parametrize("eps5", [1, -1])
@pytest.mark.parametrize("rapidity", [-20.0, -30.0])
def test_massless_boost_that_shrinks_k_is_roundoff(eps5, rapidity):
    # e^-20 (1, 0, 0, 1) comes out as about (3e-8, 0, 0, -3e-8)
    sol = reference_solutions(Fraction(1), eps5, "massless")
    with pytest.raises(VerificationError, match="^draw 0: boosted momentum is roundoff"):
        boost_solution(sol, _axis_boost(rapidity))


@pytest.mark.parametrize("eps5", [1, -1])
@pytest.mark.parametrize("rapidity", [0.5, 20.0, 30.0])
def test_off_shell_spinor_fails_at_large_boosts(eps5, rapidity):
    # the massless kernel at k = (1, 0, 0, -1) is not a solution at
    # (1, 0, 0, 1); boosted, its residual grows like e^rapidity (9.7e8 at
    # 20 against a bound of 157) and stays far outside the roundoff bound
    sol = reference_solutions(Fraction(1), eps5, "massless")
    wrong = dirac_matrix(ModeProblem(eps5=eps5, ell=Fraction(1), k=(1, 0, 0, -1)))
    bad = replace(sol, basis=tuple(tuple(v) for v in wrong.matrix.kernel()))
    with pytest.raises(VerificationError, match="^draw 0: boosted solution residual"):
        boost_solution(bad, _axis_boost(rapidity))


def test_boost_solution_rejects_nearly_antisymmetric_generator():
    sol = reference_solutions(Fraction(1), -1, "heavy")
    omega = _axis_boost(1.0)
    omega[3, 0] = -1.000009
    with pytest.raises(ValueError, match="antisymmetric"):
        boost_solution(sol, omega)


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
    gammas = build_majorana_rep(1).gamma
    a = ExactMatrix.zeros(4)
    for i, j in combinations(range(4), 2):
        a = a + (gammas[i] @ gammas[j]).scale(poly(ExactScalar(omega[i][j] / 2)))
    eye, half = ExactMatrix.identity(4), poly(ExactScalar(Fraction(1, 2)))
    if (eye - a.scale(half)).det().is_zero():
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
    # has no inverse
    good = _omega([Fraction(1, 2), 0, 0, 0, Fraction(-1, 3), 0])
    with pytest.raises(VerificationError, match="^draw 2: I - A/2 is singular") as info:
        cayley_boosts([good, good, _omega([4, 0, 0, 0, 0, 0]), good])
    assert info.value.index == 2
    with pytest.raises(ValueError, match="antisymmetric"):
        cayley_boost([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])


def _boost_rows(cfg):
    return {r.params["eps5"]: r for r in cmd_modes(cfg) if r.check == "modes_boost_covariance"}


@pytest.mark.parametrize("seed", [42, 7])
def test_boost_row_equals_per_draw_checks(seed):
    # the row reads the draws it built once per seed the same way as one
    # cayley_boost and one boost_defect per trial
    rows = _boost_rows(RunConfig(seed=seed))
    rng = random.Random(seed)
    omegas = []
    for _ in range(100):
        q = rng.randint(1, 10)
        omegas.append(_omega([Fraction(rng.randint(-q, q), q) for _ in range(6)]))
    boosts = [cayley_boost(omega) for omega in omegas]
    for eps5, row in rows.items():
        pair = [reference_solutions(Fraction(1), eps5, b) for b in ("heavy", "massless")]
        assert all(boost_defect(pair[t % 2], [b]) is None for t, b in enumerate(boosts))
        assert row.status == "pass" and row.details["failure"] is None
        assert row.residual == row.details["worst_k2_drift"] == 0
        assert row.details["max_height_bits"] == max(b.height_bits for b in boosts)


def test_tampered_g4_fails_the_boost_row(monkeypatch):
    # D(k') with the sign of g^4 flipped no longer kills the boosted heavy
    # solutions (k^2 != 0); the massless ones (k^2 = 0) still pass, and the
    # reference solutions come from the true operator
    def flipped(eps5):
        *gammas, g4 = clifford._gamma_units(eps5)
        return (*gammas, tuple((r, c, -x) for r, c, x in g4))

    monkeypatch.setattr(cayley, "_gamma_units", flipped)
    rows = _boost_rows(RunConfig(seed=42))
    for row in rows.values():
        assert row.status == "fail"
        assert row.details["failure"] == "heavy draw 0: D(Lambda k) S u != 0"


def test_boost_row_names_the_first_failing_draw(monkeypatch):
    # draw 7 (massless) is made singular: the row names it, and a heavy
    # draw 4 that fails covariance comes before it
    true_boosts = cayley.cayley_boosts

    def with_singular(omegas):
        singular = [_omega([4, 0, 0, 0, 0, 0])]
        return true_boosts(omegas[:7] + singular + omegas[8:] if len(omegas) > 7 else omegas)

    monkeypatch.setattr(checks, "cayley_boosts", with_singular)
    for row in _boost_rows(RunConfig(seed=42)).values():
        assert row.status == "fail"
        assert row.details["failure"] == "massless draw 7: I - A/2 is singular"

    true_defect = cayley.boost_defect

    def bad_heavy(sol, boosts):
        if sol.branch == "heavy":
            return 2, "D(Lambda k) S u != 0"
        return true_defect(sol, boosts)

    monkeypatch.setattr(checks, "boost_defect", bad_heavy)
    for row in _boost_rows(RunConfig(seed=42)).values():
        assert row.details["failure"] == "heavy draw 4: D(Lambda k) S u != 0"
