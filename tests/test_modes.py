"""Dispersion branches, exact nullspaces, and boost covariance."""

from fractions import Fraction

import numpy as np
import pytest

from ncdirac.matrices import vector_matmul
from ncdirac.modes import (
    ModeProblem,
    boost_solution,
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


def test_float_matrix_matches_exact():
    k = (Fraction(3, 2), Fraction(1, 3), 0, Fraction(-1, 2))
    exact = dirac_matrix(ModeProblem(eps5=-1, ell=Fraction(1, 4), k=k))
    floaty = dirac_matrix(
        ModeProblem(eps5=-1, ell=Fraction(1, 4), k=tuple(float(c) for c in k))
    )
    assert exact.mode == "exact"
    assert floaty.mode == "float"
    a = exact.as_array()
    b = floaty.as_array()
    assert np.allclose(a, b, atol=1e-12)
