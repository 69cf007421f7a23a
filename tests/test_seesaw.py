"""Light/heavy mass splitting from the coupled 8x8 operator."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from exact_arrays import as_array

from ncdirac.clifford import build_majorana_rep, gamma, gamma5
from ncdirac.matrices import ExactMatrix
from ncdirac.modes import ModeProblem
from ncdirac.scalars import ExactScalar, poly, sym
from ncdirac.seesaw import (
    CouplingConfig,
    RootFindingError,
    coupled_matrix,
    exact_mode_spectrum,
    leading_mass,
    leading_order_reduction,
    light_mass_leading,
    verify_effective_equation,
)


def closed_form_light_mass(eps5: int, big_m: float, mu: float) -> float:
    # light branch of ((E^2 - mu^2)^2 - E^2 M^2) resp. its spacelike twin
    if eps5 == -1:
        return (math.sqrt(big_m**2 + 4 * mu**2) - big_m) / 2
    return (big_m - math.sqrt(big_m**2 - 4 * mu**2)) / 2


def numeric_light_root(eps5: int, ell: float, mu: float) -> float:
    """The determinant is a perfect square, so bisection has nothing to
    bracket.  Instead: D8(s) = s*B + A with B = blockdiag(g, g) invertible,
    so the roots are the eigenvalues of -B^-1 A.  Independent of the exact
    spectrum code path."""
    big_m = 2.0 / ell
    g4 = as_array(gamma5()) * (1 if eps5 == 1 else 1j)
    g = as_array(gamma(0)) if eps5 == -1 else -as_array(gamma(3))
    zero = np.zeros((4, 4))
    a = np.vstack(
        [np.hstack([zero, mu * np.eye(4)]),
         np.hstack([mu * np.eye(4), big_m * g4])]
    )
    b = np.vstack([np.hstack([g, zero]), np.hstack([zero, g])])
    roots = np.linalg.eigvals(-np.linalg.solve(b, a))
    positive = sorted(r.real for r in roots if r.real > 1e-12 and abs(r.imag) < 1e-9)
    return positive[0]


@pytest.mark.parametrize("eps5", [1, -1])
def test_exact_spectrum_against_independent_root(eps5):
    ell, mu = 1.0, 0.05
    config = CouplingConfig(
        g=ExactScalar(Fraction(1, 20)), vev=Fraction(1), ell=Fraction(1), eps5=eps5
    )
    spectrum = exact_mode_spectrum(config)
    light = math.sqrt(abs(spectrum.light_k2))
    independent = numeric_light_root(eps5, ell, mu)
    assert abs(light - independent) < 1e-10
    closed = closed_form_light_mass(eps5, 2.0, mu)
    assert abs(light - closed) < 1e-12
    # sign of k^2 decides the light particle type
    assert spectrum.light_k2 > 0 if eps5 == -1 else spectrum.light_k2 < 0
    assert spectrum.light_class == ("Dirac" if eps5 == -1 else "Majorana")


@pytest.mark.parametrize(
    "eps5,frozen",
    [
        (-1, {Fraction(1, 10): 9.805e-3, Fraction(1, 100): 9.998e-5,
              Fraction(1, 1000): 1.000e-6}),
        (1, {Fraction(1, 10): 1.021e-2, Fraction(1, 100): 1.000e-4,
             Fraction(1, 1000): 1.000e-6}),
    ],
)
def test_quadratic_deviation_scaling(eps5, frozen):
    for ratio, expected in frozen.items():
        config = CouplingConfig(
            g=ExactScalar(Fraction(1)), vev=2 * ratio, ell=Fraction(1), eps5=eps5
        )
        spectrum = exact_mode_spectrum(config)
        assert spectrum.deviation == pytest.approx(expected, rel=1e-3)
        scaling = spectrum.deviation / float(ratio) ** 2
        assert scaling <= 2.0


@pytest.mark.parametrize("eps5", [1, -1])
def test_coupling_phase_invariance(eps5):
    plain = CouplingConfig(
        g=ExactScalar(Fraction(1)), vev=Fraction(1, 10), ell=Fraction(1), eps5=eps5
    )
    rotated = CouplingConfig(
        g=ExactScalar.parse("3/5+4/5i"), vev=Fraction(1, 10), ell=Fraction(1),
        eps5=eps5,
    )
    assert rotated.coupling_squared() == 1
    a = exact_mode_spectrum(plain)
    b = exact_mode_spectrum(rotated)
    assert a.light_k2 == pytest.approx(b.light_k2, rel=1e-12)
    assert a.heavy_k2 == pytest.approx(b.heavy_k2, rel=1e-12)


@pytest.mark.parametrize("eps5", [1, -1])
def test_hierarchy_sweep(eps5):
    # mu/M = 1e-1 ... 1e-9 with a unit-modulus complex coupling and l = 1/3
    ell = Fraction(1, 3)
    big_m = 2.0 / float(ell)
    for n in range(1, 10):
        ratio = Fraction(1, 10 ** n)
        config = CouplingConfig(
            g=ExactScalar.parse("3/5+4/5i"), vev=2 * ratio / ell, ell=ell,
            eps5=eps5,
        )
        spectrum = exact_mode_spectrum(config)
        r2 = float(ratio) ** 2
        assert r2 / 2 <= spectrum.deviation <= 2 * r2
        assert spectrum.light_class == ("Dirac" if eps5 == -1 else "Majorana")
        heavy = math.sqrt(abs(spectrum.heavy_k2))
        assert abs(heavy - big_m) <= 2 * r2 * big_m
        light = math.sqrt(abs(spectrum.light_k2))
        assert light == pytest.approx(float(leading_mass(config)), rel=2 * r2)
        roots = spectrum.roots
        assert len(roots) == 4 and list(roots) == sorted(roots)
        assert roots == tuple(-r for r in reversed(roots))
        assert roots[2:] == pytest.approx((light, heavy), rel=1e-15)


def test_determinant_certificate(monkeypatch):
    import ncdirac.seesaw as seesaw

    exact = seesaw.coupled_matrix

    def perturbed(k, c):
        out = exact(k, c)
        out.rows[0][4] = out.rows[0][4] + poly(ExactScalar(Fraction(1, 10 ** 6)))
        return out

    monkeypatch.setattr(seesaw, "coupled_matrix", perturbed)
    config = CouplingConfig(
        g=ExactScalar(Fraction(1)), vev=Fraction(1, 10), ell=Fraction(1), eps5=-1
    )
    with pytest.raises(RootFindingError) as err:
        exact_mode_spectrum(config)
    assert "quartic" in err.value.diagnostics


def test_exact_string_parameters():
    problem = ModeProblem(eps5=-1, ell="1/10", k=(1, 0, 0, 0))
    assert problem.k_squared() == 1
    config = CouplingConfig(g=1, vev="1/100", ell="1/10", eps5=1)
    assert leading_mass(config) == Fraction(1, 200000)
    assert exact_mode_spectrum(config).light_class == "Majorana"
    with pytest.raises(ValueError):
        ModeProblem(eps5=-1, ell="-1/10", k=(1, 0, 0, 0))
    with pytest.raises(ValueError):
        CouplingConfig(g=1, vev="-1/100", ell="1/10", eps5=1)


def test_leading_mass_example():
    config = CouplingConfig(
        g=ExactScalar(Fraction(2)), vev=Fraction(3), ell=Fraction(1, 100), eps5=1
    )
    assert leading_mass(config) == Fraction(9, 50)
    k2, cls = light_mass_leading(config)
    assert k2 == Fraction(-81, 2500)  # -0.0324
    assert cls == "Majorana"


def test_leading_mass_timelike_counterpart():
    config = CouplingConfig(
        g=ExactScalar(Fraction(2)), vev=Fraction(3), ell=Fraction(1, 100), eps5=-1
    )
    k2, cls = light_mass_leading(config)
    assert k2 == Fraction(81, 2500)
    assert cls == "Dirac"


@pytest.mark.parametrize("eps5", [1, -1])
def test_heavy_block_elimination(eps5):
    config = CouplingConfig(
        g=ExactScalar.parse("1/3-2i"), vev=Fraction(5, 7), ell=Fraction(2, 3),
        eps5=eps5,
    )
    w, _effective = leading_order_reduction(config)
    # rest-frame defining equation: gbar*v + (M g4) W = 0 with M = 2/l
    g4 = build_majorana_rep(eps5).gamma[4]
    gbar_v = config.g.conjugate() * ExactScalar(config.vev)
    big_m = ExactScalar(Fraction(2) / config.ell)
    lhs = ExactMatrix.identity(4).scale(poly(gbar_v)) + g4.scale(poly(big_m)) @ w
    assert lhs.is_zero()


@pytest.mark.parametrize("eps5", [1, -1])
def test_effective_equation_identity(eps5):
    config = CouplingConfig(
        g=ExactScalar.parse("1+1i"), vev=Fraction(1, 4), ell=Fraction(1, 3),
        eps5=eps5,
    )
    check = verify_effective_equation(config)
    assert check.identity_ok
    assert check.residual.is_zero()
    _, cls = light_mass_leading(config)
    assert check.rest_frame_class == cls


def test_decoupling_at_zero_coupling():
    config = CouplingConfig(
        g=ExactScalar(Fraction(0)), vev=Fraction(1), ell=Fraction(1, 2), eps5=-1
    )
    spectrum = exact_mode_spectrum(config)
    assert spectrum.heavy_k2_exact == Fraction(16)
    assert spectrum.light_k2_exact == Fraction(0)
    assert spectrum.deviation == 0.0
    # the light kernel at k = 0 is four-dimensional: no mass to classify
    assert spectrum.light_class is None and spectrum.heavy_class is None
    assert spectrum.roots == (-4.0, 0.0, 4.0)


@pytest.mark.parametrize("eps5", [1, -1])
def test_float_coupled_matrix_matches_exact(eps5):
    # float oracle: the 8x8 blocks assembled in complex128 from the gammas
    config = CouplingConfig(
        g=ExactScalar.parse("3/5+4/5i"), vev=Fraction(1, 7), ell=Fraction(2, 3),
        eps5=eps5,
    )
    k = (Fraction(3, 2), Fraction(1, 3), 0, Fraction(-1, 2))
    exact = coupled_matrix(k, config)
    assert isinstance(exact, ExactMatrix)
    gs = [as_array(g) for g in build_majorana_rep(eps5).gamma]
    gk = sum(g * (float(c) * eta) for g, c, eta in zip(gs, k, (1, -1, -1, -1)))
    gv = (0.6 + 0.8j) / 7 * np.eye(4)
    floaty = np.block([[gk, gv], [gv.conj(), gk + 3.0 * gs[4]]])
    assert np.allclose(as_array(exact), floaty, rtol=0, atol=1e-14)


def test_symbolic_determinant_factorization():
    # det of the 8x8 at k = (E,0,0,0) is the square of a quartic in E
    config = CouplingConfig(
        g=ExactScalar(Fraction(1)), vev=Fraction(1, 5), ell=Fraction(1, 2), eps5=-1
    )
    e = sym("k0")
    mat = coupled_matrix((e, 0, 0, 0), config)
    det = mat.det()
    mu2 = Fraction(1, 25)
    big_m2 = Fraction(16)
    quartic = (e * e - mu2) ** 2 - e * e * big_m2
    assert det == quartic * quartic


def test_overcritical_coupling_raises():
    # eps5 = +1 light root turns complex past mu/M = 1/2
    config = CouplingConfig(
        g=ExactScalar(Fraction(1)), vev=Fraction(3, 2), ell=Fraction(1), eps5=1
    )
    with pytest.raises(RootFindingError) as err:
        exact_mode_spectrum(config)
    assert err.value.diagnostics


def _sweep_config(eps5, g, ratio, ell=Fraction(1)):
    # |g| = 1 for every coupling below, so mu = vev and mu/M = vev l / 2
    return CouplingConfig(g=ExactScalar.parse(g), vev=2 * ratio / ell, ell=ell, eps5=eps5)


@pytest.mark.parametrize("eps5", [1, -1])
@pytest.mark.parametrize("g", ["1", "3/5+4/5i", "i"])
def test_exact_classes_sweep(eps5, g):
    # mu/M through [0, 2] in steps of 1/20 at l = 1, where
    # delta = M^2 - 4 eps5 mu^2 = 4 - 16 eps5 (mu/M)^2 is a rational square
    # at mu/M = 3/10, 2/5, 1/2 (eps5 = +1) and 6/5 (eps5 = -1), and the
    # square 9/25 at l = 2, mu/M = 2/5 (eps5 = +1) and l = 50/9,
    # mu/M = 2/3 (eps5 = -1)
    configs = [_sweep_config(eps5, g, Fraction(n, 20)) for n in range(41)]
    configs.append(_sweep_config(eps5, g, Fraction(2, 5), Fraction(2)) if eps5 == 1
                   else _sweep_config(eps5, g, Fraction(2, 3), Fraction(50, 9)))
    squares = 0
    for config in configs:
        ratio = config.vev * config.ell / 2
        delta = (2 / config.ell) ** 2 - 4 * eps5 * config.vev ** 2
        if delta < 0:
            with pytest.raises(RootFindingError, match="overcritical"):
                exact_mode_spectrum(config)
            continue
        spectrum = exact_mode_spectrum(config)
        want = None if ratio == 0 else light_mass_leading(config)[1]
        assert (spectrum.light_class, spectrum.heavy_class) == (want, want), ratio
        squares += math.isqrt(delta.numerator) ** 2 == delta.numerator and \
            math.isqrt(delta.denominator) ** 2 == delta.denominator
    assert squares == (5 if eps5 == 1 else 3)


def test_critical_coupling_keeps_its_fail_row(capsys):
    # vev = 1 at g = l = 1, eps5 = +1: delta = 0, the light and heavy roots
    # meet at M/2 = 1, the classes are still read (Majorana) and the
    # deviation 1 fails the row
    from ncdirac.cli import main

    assert main(["seesaw", "--vev", "1", "--eps5", "1"]) == 1
    rows = {r["check"]: r for r in json.loads(capsys.readouterr().out)["reports"]}
    spectrum = rows["seesaw_spectrum"]
    assert spectrum["status"] == "fail" and spectrum["residual"] == "1"
    assert spectrum["details"]["light_class"] == spectrum["details"]["heavy_class"] == "Majorana"
