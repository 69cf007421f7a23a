"""Light/heavy mass splitting from the coupled 8x8 operator."""

import json
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
import seesaw_oracle
from determinant import det
from exact_arrays import as_array
from exact_gammas import exact_gammas
from seesaw_oracle import coupled_matrix, exact_mode_spectrum_oracle, leading_order_reduction

from ncdirac.clifford import gamma_sum
from ncdirac.matrices import ExactMatrix, echelon
from ncdirac.modes import frame, operator_residual, reference_solutions
from ncdirac.scalars import ExactScalar, poly, sym
from ncdirac.seesaw import (
    CouplingConfig,
    RootFindingError,
    exact_mode_spectrum,
    leading_mass,
    light_mass_leading,
    seesaw_verdict,
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
    gammas = [as_array(g) for g in exact_gammas(eps5)]
    g4 = gammas[4]
    g = gammas[0] if eps5 == -1 else -gammas[3]
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


@pytest.mark.parametrize("eps5", [1, -1])
def test_block_determinant_is_the_dense_one(eps5):
    # the oracle's Silvester AD - BC against the dense 8x8 expansion, at
    # seeded real, complex and zero couplings: both are q^2 along the frame axis
    rng = random.Random(f"block-{eps5}")
    couplings = ["0", "1", "3+4i"] + [
        f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}{rng.randint(-9, 9):+d}/{rng.randint(1, 9)}i"
        for _ in range(3)]
    x = sym(seesaw_oracle._X)  # the block's coordinate on the frame axis
    k = (x, 0, 0, 0) if eps5 == -1 else (0, 0, 0, x)
    for g in couplings:
        config = CouplingConfig(g=g, vev=Fraction(rng.randint(0, 9), rng.randint(1, 9)),
                                ell=Fraction(rng.randint(1, 9), rng.randint(1, 9)), eps5=eps5)
        big_m, mu2 = 2 / config.ell, config.coupling_squared() * config.vev ** 2
        dense = det(coupled_matrix(k, config))
        block = det(seesaw_oracle._frame_block(eps5, big_m, mu2))
        x2 = x * x
        quartic = x2 * x2 - x2 * poly(big_m ** 2 - 2 * eps5 * mu2) + poly(mu2 * mu2)
        assert dense == block == quartic * quartic, g


@pytest.mark.parametrize("eps5", [1, -1])
@pytest.mark.parametrize("mu2", [Fraction(0), Fraction(1, 10 ** 4), Fraction(1)],
                         ids=["free", "seesaw", "critical"])
def test_frame_block_is_the_dense_sum(eps5, mu2):
    # the oracle's block, built from P's one unit per row, is
    # (eta x^2 - mu^2) I + eta M x P with the dense P, entry by entry: at
    # g = 0, inside the seesaw regime and at mu^2 = M^2/4, the critical
    # coupling of eps5 = +1 (M = 2)
    big_m = Fraction(2)
    x = sym(seesaw_oracle._X)
    diag = poly(-eps5) * x * x - poly(mu2)
    off = poly(-eps5 * big_m) * x
    want = (ExactMatrix.identity(4).scale(diag)
            + seesaw_oracle._frame_product(eps5).scale(off))
    assert seesaw_oracle._frame_block(eps5, big_m, mu2).rows == want.rows


@pytest.mark.parametrize("eps5,vev,sqrt_delta,eigenvalues", [
    (1, Fraction(3, 5), Fraction(8, 5), (1, 1)),
    (-1, Fraction(3, 4), Fraction(5, 2), (-1, 1)),
], ids=["eps5=+1", "eps5=-1"])
def test_each_root_kernel_is_the_eigenspace_its_class_is_read_from(
        monkeypatch, eps5, vev, sqrt_delta, eigenvalues):
    # l = g = 1, so M = 2, and delta = M^2 - 4 eps5 vev^2 is a rational
    # square: the frame roots are exact.  At each, the dense 8x8 kernel is
    # two-dimensional and its u1 components span the eigenspace of
    # P = g^a g^4 that _root_class reads its class from (the +1 one when
    # alpha + beta = 0, the -1 one when alpha - beta = 0)
    import ncdirac.seesaw as seesaw

    config = CouplingConfig(g=1, vev=vev, ell=Fraction(1), eps5=eps5)
    big_m, mu2 = Fraction(2), vev * vev
    assert sqrt_delta ** 2 == big_m ** 2 - 4 * eps5 * mu2
    heavy = (big_m + sqrt_delta) / 2
    light = mu2 / heavy
    spectrum = exact_mode_spectrum(config)
    assert (spectrum.light_k2_exact, spectrum.heavy_k2_exact) == (
        -eps5 * light * light, -eps5 * heavy * heavy)
    p = seesaw_oracle._frame_product(eps5)
    # name each eigenspace by its eigenvalue in place of its class
    monkeypatch.setattr(seesaw, "_eigenspace_classes", lambda e5: (1, -1))
    for x, eigenvalue in zip((light, heavy), eigenvalues):
        kernel = coupled_matrix(frame(eps5, x), config).kernel()
        assert len(kernel) == 2
        u1 = [vec[:4] for vec in kernel]
        assert len(echelon([list(u) for u in u1])) == 2
        for u in u1:
            column = ExactMatrix([[c] for c in u])
            assert p @ column == column.scale(eigenvalue)
        assert seesaw._root_class(eps5, ExactScalar(x), big_m, mu2) == eigenvalue


def test_a_swapped_frame_axis_fails_the_eigenspace_certificate(monkeypatch, capsys):
    # with the frame axis swapped P = g^a g^4 squares to -I, so P - I and
    # P + I are invertible: every spectrum raises, at g = 0 and before an
    # overcritical coupling's own error too, and check all still prints
    # every row, each seesaw row failing
    import ncdirac.seesaw as seesaw
    from ncdirac import modes
    from ncdirac.cli import main

    monkeypatch.setattr(seesaw, "frame", lambda eps5, x: modes.frame(-eps5, x))
    seesaw._eigenspace_classes.cache_clear()
    try:
        for eps5 in (1, -1):
            p = gamma_sum(eps5, seesaw.frame(eps5, 1)) @ gamma_sum(eps5, [0, 0, 0, 0, 1])
            assert p @ p == ExactMatrix.identity(4).scale(-1)
            # free, inside the seesaw regime, and overcritical at eps5 = +1
            for g, vev in ((0, Fraction(1, 10)), (1, Fraction(1, 100)), (1, Fraction(2))):
                with pytest.raises(RootFindingError, match=r"^P = g\^a g\^4 does not have "
                                                           r"eigenvalues \+1 and -1 twice each: "
                                                           r"nullspace dimension 0 != 2"):
                    exact_mode_spectrum(CouplingConfig(g=g, vev=vev, ell=Fraction(1),
                                                       eps5=eps5))
        assert main(["check", "all", "--seed", "42"]) == 1
    finally:
        seesaw._eigenspace_classes.cache_clear()
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert len(reports) == 49
    failed = {(r["check"], r["params"]["eps5"]) for r in reports if r["status"] == "fail"}
    assert failed == {(check, e5) for e5 in (1, -1) for check in (
        "seesaw_spectrum", "seesaw_effective", "seesaw_convergence", "seesaw_decoupling")}
    for r in reports:
        if r["check"] in ("seesaw_spectrum", "seesaw_decoupling"):
            assert r["details"]["error"].startswith("P = g^a g^4 does not have"), r


@pytest.mark.parametrize("eps5", [1, -1])
def test_schur_rank_away_from_a_root(eps5):
    # x = 1/3 is no root at M = 2, mu^2 = 1/100: the complement is invertible
    from ncdirac.seesaw import _root_class

    with pytest.raises(RootFindingError, match="^Schur complement kernel is not "
                                              "two-dimensional$") as err:
        _root_class(eps5, ExactScalar(Fraction(1, 3)), Fraction(2), Fraction(1, 100))
    assert err.value.diagnostics == {"rank": 4}


def test_exact_string_parameters():
    sol = reference_solutions("1/10", -1, "heavy")
    assert sol.ell == Fraction(1, 10) and sol.k2 == 400
    assert all(operator_residual(sol.operator, u) == 0.0 for u in sol.basis)
    config = CouplingConfig(g=1, vev="1/100", ell="1/10", eps5=1)
    assert leading_mass(config) == Fraction(1, 200000)
    assert exact_mode_spectrum(config).light_class == "Majorana"
    with pytest.raises(ValueError):
        reference_solutions("-1/10", -1, "heavy")
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
    g4 = exact_gammas(eps5)[4]
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
    gs = [as_array(g) for g in exact_gammas(eps5)]
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
    mu2 = Fraction(1, 25)
    big_m2 = Fraction(16)
    quartic = (e * e - mu2) ** 2 - e * e * big_m2
    assert det(mat) == quartic * quartic


def test_overcritical_coupling_raises():
    # eps5 = +1 light root turns complex past mu/M = 1/2
    config = CouplingConfig(
        g=ExactScalar(Fraction(1)), vev=Fraction(3, 2), ell=Fraction(1), eps5=1
    )
    with pytest.raises(RootFindingError) as err:
        exact_mode_spectrum(config)
    # the quartic's discriminant M^2 delta = 4 (4 - 9)
    assert err.value.diagnostics["discriminant"] == -20


def test_light_root_at_the_heavy_pole_is_an_error_row(capsys):
    # |g|^2 = 2, vev = 2, l = 1, eps5 = -1: mu^2 = 8 = 2 M^2, and the light
    # root x = M makes the heavy block singular, so u2 has no elimination
    from ncdirac.cli import main

    config = CouplingConfig(g="1+1i", vev=Fraction(2), ell=Fraction(1), eps5=-1)
    with pytest.raises(RootFindingError, match="pole of the heavy block"):
        exact_mode_spectrum(config)
    assert main(["scan", "--param", "vev", "--from", "1", "--to", "2", "--steps", "2",
                 "--g", "1+1i", "--eps5", "-1"]) == 1
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["status"] for r in rows] == ["fail", "error"]


def _decimal(x: Fraction) -> Decimal:
    return Decimal(x.numerator) / Decimal(x.denominator)


@pytest.mark.parametrize("vev,ell,eps5", [
    (Fraction(1, 10 ** 26), Fraction(1), 1),
    (Fraction(1, 10 ** 26), Fraction(1), -1),
    (Fraction(1, 10 ** 15), Fraction(1, 10 ** 10), 1),
    (Fraction(1, 10 ** 15), Fraction(1, 10 ** 10), -1),
    (Fraction(999, 1000), Fraction(1), 1),  # near the critical vev 1
    (Fraction(7, 10), Fraction(1), -1),
    (Fraction(10 ** 6), Fraction(1), -1),  # far past the hierarchy
    (Fraction(1, 100), Fraction(1), 1),  # the coupling of check all
    (Fraction(1, 100), Fraction(1), -1),
])
def test_spectrum_is_the_exact_value_rounded_once(vev, ell, eps5):
    # g = 1: against h = (M + sqrt(delta))/2 at 80 digits, light k^2 =
    # -eps5 mu^4/h^2, heavy k^2 = -eps5 h^2 and deviation mu^2/h^2, each
    # rounded to a float once
    spectrum = exact_mode_spectrum(CouplingConfig(g="1", vev=vev, ell=ell, eps5=eps5))
    with localcontext() as ctx:
        ctx.prec = 80
        big_m, mu2 = 2 / _decimal(ell), _decimal(vev) ** 2
        h = (big_m + (big_m * big_m - 4 * eps5 * mu2).sqrt()) / 2
        want = (-eps5 * mu2 * mu2 / (h * h), -eps5 * h * h, mu2 / (h * h))
    got = (spectrum.light_k2, spectrum.heavy_k2, spectrum.deviation)
    assert got == tuple(map(float, want))


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


def test_seesaw_and_scan_fail_past_the_hierarchy(capsys):
    # g = l = 1, eps5 = -1: mu/M = vev/2.  At vev = 10 the bounds 2 (mu/M)^2
    # = 50 would pass any light mass up to twice its leading value
    from ncdirac.cli import main

    assert main(["seesaw", "--vev", "10", "--eps5", "-1"]) == 1
    rows = json.loads(capsys.readouterr().out)["reports"]
    assert [r["check"] for r in rows if r["status"] == "fail"] == ["seesaw_spectrum"]
    assert main(["scan", "--param", "vev", "--from", "1", "--to", "40", "--steps", "5",
                 "--eps5", "-1"]) == 1
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [(r["value"], r["status"]) for r in rows] == [
        ("1", "ok"), ("43/4", "fail"), ("41/2", "fail"), ("121/4", "fail"), ("40", "fail")]


def _verdict_reason(vev: Fraction, ell: Fraction, eps5: int):
    """The reason ``seesaw_verdict`` gives at unit coupling g = 1."""
    coupling = CouplingConfig(g="1", vev=vev, ell=ell, eps5=eps5)
    return seesaw_verdict(coupling, exact_mode_spectrum(coupling))[3]


def test_past_the_hierarchy_says_why(capsys):
    from ncdirac.seesaw import PAST_HIERARCHY
    from ncdirac.cli import main

    assert "2 (mu/M)^2 >= 1" in PAST_HIERARCHY
    assert main(["seesaw", "--vev", "10", "--eps5", "-1"]) == 1
    rows = {r["check"]: r for r in json.loads(capsys.readouterr().out)["reports"]}
    assert rows["seesaw_spectrum"]["details"]["reason"] == PAST_HIERARCHY
    assert _verdict_reason(Fraction(10), Fraction(1), -1) == PAST_HIERARCHY
    # inside the hierarchy and off the critical coupling a row carries no
    # reason, failing or not
    assert main(["seesaw", "--vev", "24/25", "--eps5", "1"]) == 1
    rows = {r["check"]: r for r in json.loads(capsys.readouterr().out)["reports"]}
    assert rows["seesaw_spectrum"]["status"] == "fail"
    assert "reason" not in rows["seesaw_spectrum"]["details"]
    assert _verdict_reason(Fraction(24, 25), Fraction(1), 1) is None
    # vev 1 is inside, 43/4 past it, and 3/2 at eps5 = +1 is overcritical
    assert main(["scan", "--param", "vev", "--from", "1", "--to", "43/4", "--steps", "2",
                 "--eps5", "-1", "--format", "csv"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].endswith(",ok,") and lines[2].endswith(f",fail,{PAST_HIERARCHY}")
    assert _verdict_reason(Fraction(1), Fraction(1), -1) is None
    assert _verdict_reason(Fraction(43, 4), Fraction(1), -1) == PAST_HIERARCHY
    assert main(["scan", "--param", "vev", "--from", "3/2", "--to", "3/2", "--steps", "1",
                 "--eps5", "1"]) == 1
    row = json.loads(capsys.readouterr().out)["rows"][0]
    assert row["status"] == "error" and "overcritical" in row["error"]


def test_critical_coupling_says_why(capsys):
    from ncdirac.seesaw import CRITICAL, regime_failure
    from ncdirac.cli import main

    # M = 1 and mu = 1/2: delta = M^2 - 4 mu^2 = 0, and the roots coincide
    assert main(["seesaw", "--vev", "1/2", "--ell", "2", "--eps5", "1"]) == 1
    rows = {r["check"]: r for r in json.loads(capsys.readouterr().out)["reports"]}
    spectrum = rows["seesaw_spectrum"]
    assert spectrum["status"] == "fail" and spectrum["details"]["reason"] == CRITICAL
    assert _verdict_reason(Fraction(1, 2), Fraction(2), 1) == CRITICAL
    assert main(["scan", "--param", "vev", "--from", "1/2", "--to", "1", "--steps", "2",
                 "--ell", "2", "--eps5", "1", "--format", "csv"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].endswith(f",fail,{CRITICAL}")
    # decided exactly: a coupling a hair off the critical one has no reason,
    # and delta = 0 needs eps5 = +1
    for vev, eps5 in ((Fraction(1, 2) - Fraction(1, 10 ** 30), 1), (Fraction(1, 2), -1)):
        assert regime_failure(CouplingConfig(g="1", vev=vev, ell=Fraction(2), eps5=eps5)) is None
        assert _verdict_reason(vev, Fraction(2), eps5) is None


def test_hierarchy_gate_is_exact():
    from ncdirac.seesaw import PAST_HIERARCHY

    # 2 (mu/M)^2 = 49/50: the bounds decide, at tolerance 0.98
    below = CouplingConfig(g="1", vev=Fraction(7, 5), ell=Fraction(1), eps5=-1)
    spectrum = exact_mode_spectrum(below)
    ok, tol, _, _ = seesaw_verdict(below, spectrum)
    assert ok and tol == pytest.approx(0.98)
    assert not seesaw_verdict(below, spectrum._replace(deviation=0.99))[0]
    # |g|^2 = 2 at vev = 1: 2 (mu/M)^2 is 1 exactly, 1 + 2^-52 in floats, and
    # the row fails though its bounds pass
    at = CouplingConfig(g="1+1i", vev=Fraction(1), ell=Fraction(1), eps5=-1)
    spectrum = exact_mode_spectrum(at)
    ok, tol, _, reason = seesaw_verdict(at, spectrum)
    assert not ok and spectrum.deviation < 1 < tol and reason == PAST_HIERARCHY


def test_swapped_roots_fail_at_mu_over_m_five():
    coupling = CouplingConfig(g="1", vev=Fraction(10), ell=Fraction(1), eps5=-1)
    right = exact_mode_spectrum(coupling)
    m = float(right.leading_light_mass)
    swapped = right._replace(light_k2=right.heavy_k2, heavy_k2=right.light_k2,
                             deviation=abs(math.sqrt(abs(right.heavy_k2)) - m) / m)
    ok, tol, ratio, _ = seesaw_verdict(coupling, swapped)
    assert (ok, tol, ratio) == (False, 50.0, 5.0)
    # the bounds alone admit it: deviation 0.78 and heavy drift 3.5
    heavy_drift = abs(math.sqrt(abs(swapped.heavy_k2)) - 2) / 2
    assert swapped.deviation == pytest.approx(0.78, abs=0.01)
    assert heavy_drift == pytest.approx(3.5, abs=0.05)


def _spectrum_or_error(spectrum, config):
    """Every ModeSpectrum field, or the RootFindingError's type, message and
    diagnostics."""
    try:
        return spectrum(config)
    except RootFindingError as exc:
        return type(exc), str(exc), exc.diagnostics


# Gaussian rationals of modulus 1 from Pythagorean triples, so |g| and
# with it vev = (mu/M) M / |g| stay rational
_PHASES = [ExactScalar(Fraction(a, c), Fraction(b, c))
           for a, b, c in ((1, 0, 1), (3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29))]


@pytest.mark.parametrize("eps5", [1, -1])
def test_spectrum_sweep_matches_the_first_written_spectrum(eps5):
    # mu/M log-uniform in [1e-6, 0.45] at seeded complex couplings, then
    # g = 0 and the critical mu = M/2 (delta = 0 for eps5 = +1): each field
    # or error equals the one the spectrum gave before it formed its frame
    # roots once
    rng = random.Random(f"spectrum-sweep-{eps5}")
    configs = []
    for _ in range(30):
        ratio = Fraction(math.exp(rng.uniform(math.log(1e-6), math.log(0.45))))
        ratio = ratio.limit_denominator(10 ** 9)
        phase = rng.choice(_PHASES) * rng.choice([1, -1, ExactScalar(0, 1), ExactScalar(0, -1)])
        modulus = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        ell = Fraction(rng.randint(1, 20), rng.randint(1, 20))
        vev = ratio * (2 / ell) / modulus
        configs.append(CouplingConfig(g=phase * ExactScalar(modulus), vev=vev, ell=ell, eps5=eps5))
    configs.append(CouplingConfig(g=0, vev=Fraction(1, 10), ell=Fraction(1), eps5=eps5))
    configs.append(CouplingConfig(g=1, vev=Fraction(1), ell=Fraction(1), eps5=eps5))  # mu = M/2
    for config in configs:
        got = _spectrum_or_error(exact_mode_spectrum, config)
        assert got == _spectrum_or_error(exact_mode_spectrum_oracle, config), (
            config.g, config.vev, config.ell)


def test_a_cold_seesaw_command_makes_ten_gamma_sums(monkeypatch):
    # both eps5, five each: the symbolic mass term, the printed gamma5 term,
    # the effective operator at rest, and the two factors of P = g^a g^4;
    # neither reduction forms a W
    import ncdirac.seesaw as seesaw
    from ncdirac.checks import RunConfig, cmd_seesaw

    calls = []
    counted = seesaw.gamma_sum
    monkeypatch.setattr(seesaw, "gamma_sum", lambda *args: calls.append(args) or counted(*args))
    seesaw._eigenspace_classes.cache_clear()
    try:
        rows = cmd_seesaw(RunConfig())
    finally:
        seesaw._eigenspace_classes.cache_clear()
    assert all(row.passed for row in rows)
    assert len(calls) == 10
