"""Dispersion branches, exact nullspaces, and boost covariance."""

import random
from fractions import Fraction

import numpy as np
import pytest

from ncdirac.checks import RunConfig, _boost_covariance, _boost_draws, cmd_modes
from ncdirac.clifford import VerificationError
from ncdirac.matrices import vector_matmul
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


def test_boost_solution_rejects_nearly_antisymmetric_generator():
    sol = reference_solutions(Fraction(1), -1, "heavy")
    omega = _axis_boost(1.0)
    omega[3, 0] = -1.000009
    with pytest.raises(ValueError, match="antisymmetric"):
        boost_solution(sol, omega)


def _per_draw_covariance(seed, eps5, omegas=None, trials=100):
    """Worst residual and k^2 drift of the boost loop as `check all` ran it
    draw by draw: boost_solution and residual per trial, alternating the
    heavy and massless reference solutions."""
    solutions = [reference_solutions(Fraction(1), eps5, b) for b in ("heavy", "massless")]
    rng = random.Random(seed)
    worst_res = worst_drift = 0.0
    for trial in range(trials):
        if omegas is None:
            omega = np.zeros((4, 4))
            for a in range(4):
                for b in range(a + 1, 4):
                    omega[a, b] = rng.uniform(-1.0, 1.0)
                    omega[b, a] = -omega[a, b]
        else:
            omega = omegas[trial]
        sol = solutions[trial % 2]
        moved = boost_solution(sol, omega)
        worst_res = max(
            worst_res, max(residual(moved.k, u, moved.ell, eps5) for u in moved.basis)
        )
        drift = abs(float(moved.k2) - float(sol.k2)) / max(abs(float(sol.k2)), 1.0)
        worst_drift = max(worst_drift, drift)
    return worst_res, worst_drift


@pytest.mark.parametrize("seed", [42, 7])
def test_boost_report_equals_per_draw_loop(seed):
    reports = [r for r in cmd_modes(RunConfig(seed=seed))
               if r.check == "modes_boost_covariance"]
    assert len(reports) == 2
    for report in reports:
        want = _per_draw_covariance(seed, report.params["eps5"])
        assert report.status == "pass"
        assert (report.residual, report.details["worst_k2_drift"]) == want


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_boost_covariance_reports_first_failing_trial():
    solutions = [reference_solutions(Fraction(1), -1, b) for b in ("heavy", "massless")]
    omegas = _boost_draws(random.Random(3))
    omegas[7] = _axis_boost(500.0)  # massless draw 3
    omegas[10] = _axis_boost(1e200)  # heavy draw 5
    worst_res, worst_drift, failure = _boost_covariance(solutions, omegas)
    assert failure.startswith("massless draw 3: boosted solution residual")
    assert (worst_res, worst_drift) == _per_draw_covariance(None, -1, omegas, trials=7)
