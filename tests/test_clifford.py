"""Gamma matrices, boosts, and the conjugation-closure classifier."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ncdirac
from ncdirac.clifford import (
    VerificationError,
    _expm,
    boost_matrix,
    build_majorana_rep,
    float_gammas,
    gamma,
    gamma5,
    gamma5_product_check,
    majorana_imaginary_check,
    pairing_residual,
    reality_class,
    spinor_generator,
    vector_boost,
    vector_generator,
    verify_clifford,
)

J = 1j


def test_gamma5_frozen_value():
    expect = np.array(
        [[0, J, 0, 0], [-J, 0, 0, 0], [0, 0, 0, -J], [0, 0, J, 0]]
    )
    assert np.array_equal(gamma5().to_complex_array(), expect)


def test_gamma_entries_imaginary_and_traceless():
    for mu in range(4):
        arr = gamma(mu).to_complex_array()
        assert np.all(arr.real == 0)
        assert arr.trace() == 0


@pytest.mark.parametrize("eps5", [1, -1])
def test_clifford_relations(eps5):
    rep = build_majorana_rep(eps5)
    checks = verify_clifford(rep)
    assert len(checks) == 20
    names = [c.name for c in checks]
    assert sum(n.startswith("anticommutator") for n in names) == 15
    assert sum(n.startswith("square") for n in names) == 5
    for c in checks:
        assert c.ok, c.name
        assert c.residual == 0


@pytest.mark.parametrize("eps5", [1, -1])
def test_gamma4_square_and_metric(eps5):
    rep = build_majorana_rep(eps5)
    g4 = rep.gamma[4]
    square = (g4 @ g4).to_complex_array()
    assert np.array_equal(square, eps5 * np.eye(4))
    assert rep.metric5 == (1, -1, -1, -1, eps5)
    # extra direction: gamma5 itself or its rotation by i
    g5 = gamma5().to_complex_array()
    got = g4.to_complex_array()
    assert np.allclose(got, g5 if eps5 == 1 else J * g5)


@pytest.mark.parametrize("eps5", [1, -1])
def test_product_and_imaginarity(eps5):
    rep = build_majorana_rep(eps5)
    assert gamma5_product_check(rep).ok
    assert majorana_imaginary_check(rep).ok


def test_boost_pairing_rapidity_one():
    omega = np.zeros((4, 4))
    omega[0, 3], omega[3, 0] = 1.0, -1.0
    S = boost_matrix(omega).matrix
    Sinv = np.linalg.inv(S)
    g0 = gamma(0).to_complex_array()
    g3 = gamma(3).to_complex_array()
    boosted = Sinv @ g0 @ S
    expect = math.cosh(1.0) * g0 + math.sinh(1.0) * g3
    assert np.allclose(boosted, expect, atol=1e-12)
    # spinor boosts are real in this basis and unimodular
    assert np.allclose(S.imag, 0, atol=1e-14)
    assert abs(np.linalg.det(S) - 1.0) < 1e-12


def test_vector_boost_preserves_metric():
    rng = np.random.default_rng(5)
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    for _ in range(20):
        omega = rng.uniform(-1, 1, (4, 4))
        omega = omega - omega.T
        lam = vector_boost(omega)
        assert np.allclose(lam.T @ eta @ lam, eta, atol=1e-10)


def test_pairing_residual_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        omega = rng.uniform(-1, 1, (4, 4))
        omega = omega - omega.T
        assert pairing_residual(omega) < 1e-10


def test_generator_antisymmetry_guard():
    with pytest.raises(ValueError):
        spinor_generator(np.ones((4, 4)))
    with pytest.raises(ValueError):
        spinor_generator(np.zeros((3, 3)))


@pytest.mark.parametrize("eps5", [1, -1])
def test_float_gammas_are_the_exact_rep(eps5):
    stack = float_gammas(eps5)
    assert stack.dtype == np.complex128 and stack.shape == (5, 4, 4)
    rep = build_majorana_rep(eps5)
    for a in range(5):
        assert np.array_equal(stack[a], rep.gamma[a].to_complex_array())
    assert float_gammas(eps5) is stack
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 1.0


def _axis_boost(y):
    omega = np.zeros((4, 4))
    omega[0, 3], omega[3, 0] = y, -y
    return omega


def _close(got, expect, rtol):
    return np.abs(got - expect).max() <= rtol * np.abs(expect).max()


RAPIDITIES = [0.5, 1.0, 5.0, 10.0, 20.0]


@pytest.mark.parametrize("y", RAPIDITIES)
def test_vector_boost_closed_form(y):
    expect = np.eye(4)
    expect[0, 0] = expect[3, 3] = math.cosh(y)
    expect[0, 3] = expect[3, 0] = math.sinh(y)
    assert _close(vector_boost(_axis_boost(y)), expect, 1e-12)


@pytest.mark.parametrize("y", RAPIDITIES)
def test_spinor_boost_closed_form(y):
    # (1/4) omega_ab g^a g^b = (y/2) g0 g3 and (g0 g3)^2 = 1
    g03 = gamma(0).to_complex_array() @ gamma(3).to_complex_array()
    expect = math.cosh(y / 2) * np.eye(4) + math.sinh(y / 2) * g03
    assert _close(boost_matrix(_axis_boost(y)).matrix, expect, 1e-12)


def test_exponential_inverse_and_zero():
    rng = np.random.default_rng(3)
    omegas = [_axis_boost(y) for y in (0.5, 1.0, 5.0)]
    for _ in range(10):
        w = rng.uniform(-2, 2, (4, 4))
        omegas.append(w - w.T)
    for omega in omegas:
        for expm in (vector_boost, lambda w: boost_matrix(w).matrix):
            fwd, back = expm(omega), expm(-omega)
            bound = 1e-13 * np.linalg.norm(fwd, 1) * np.linalg.norm(back, 1)
            assert np.abs(fwd @ back - np.eye(4)).max() <= bound
    zero = np.zeros((4, 4))
    assert np.array_equal(vector_boost(zero), np.eye(4))
    assert np.array_equal(boost_matrix(zero).matrix, np.eye(4))


def _check_all_draws(seed, n):
    """The antisymmetric generators `check all --seed` draws for boosts."""
    rng = random.Random(seed)
    for _ in range(n):
        omega = np.zeros((4, 4))
        for a in range(4):
            for b in range(a + 1, 4):
                omega[a, b] = rng.uniform(-1.0, 1.0)
                omega[b, a] = -omega[a, b]
        yield omega


def test_exponential_matches_scipy():
    linalg = pytest.importorskip("scipy.linalg")
    for omega in _check_all_draws(42, 100):
        for ours, gen in ((boost_matrix(omega).matrix, spinor_generator(omega)),
                          (vector_boost(omega), vector_generator(omega))):
            ref = linalg.expm(gen)
            assert np.linalg.norm(ours - ref) <= 1e-14 * np.linalg.norm(ref)


def test_bad_generators_are_rejected():
    complex_omega = _axis_boost(1.0) * (1 + 1j)
    infinite = _axis_boost(math.inf)
    for omega in (complex_omega, infinite):
        for fn in (boost_matrix, vector_boost, spinor_generator):
            with pytest.raises(ValueError):
                fn(omega)
    # finite but past the float range: exp(1000) overflows
    with pytest.raises(VerificationError):
        boost_matrix(_axis_boost(2000.0))


def _nearly_antisymmetric():
    # antisymmetric to 9e-6 relative: a metric defect of 1.6e-5 in the boost
    omega = np.zeros((4, 4))
    omega[0, 3], omega[3, 0] = 1.0, -1.000009
    return omega


def test_nearly_antisymmetric_generator_is_rejected():
    for fn in (boost_matrix, vector_boost, spinor_generator):
        with pytest.raises(ValueError, match="antisymmetric"):
            fn(_nearly_antisymmetric())
    stack = np.stack([_axis_boost(1.0), _nearly_antisymmetric(), _axis_boost(2.0)])
    for fn in (boost_matrix, vector_boost, spinor_generator):
        with pytest.raises(ValueError, match=r"antisymmetric \(slice 1\)"):
            fn(stack)
    # W - W.T is antisymmetric to the last bit at any scale
    w = np.random.default_rng(5).uniform(-1e6, 1e6, (4, 4))
    vector_boost((w - w.T) * 1e-6)


def _scaled_generators(norms):
    """Random antisymmetric generators whose vector generators have the
    given 1-norms."""
    rng = np.random.default_rng(8)
    out = []
    for norm in norms:
        w = rng.uniform(-1, 1, (4, 4))
        w = w - w.T
        out.append(w * (norm / np.linalg.norm(vector_generator(w), 1)))
    return np.stack(out)


def _expm_one(a):
    """Reference: one matrix at a time, scaled, Horner, squared back."""
    s = max(0, math.frexp(np.linalg.norm(a, 1))[1])
    a = a * 0.5 ** s
    eye = out = np.eye(len(a), dtype=a.dtype)
    for n in range(18, 0, -1):
        out = eye + a @ out / n
    for _ in range(s):
        out = out @ out
    return out


def _spinor_generator_one(omega):
    """Reference: the term-by-term sum (1/4) omega_ab g^a g^b."""
    gs = float_gammas(1)
    G = np.zeros((4, 4), dtype=complex)
    for a in range(4):
        for b in range(4):
            if omega[a, b] != 0.0:
                G += 0.25 * omega[a, b] * gs[a] @ gs[b]
    return G


def test_stacked_boosts_equal_single_boosts_bit_for_bit():
    # 1-norms 0.3, 5 and 200 take 0, 3 and 8 squarings
    norms = (0.3, 5.0, 200.0)
    assert [max(0, math.frexp(n)[1]) for n in norms] == [0, 3, 8]
    omegas = _scaled_generators(norms)
    generators = vector_generator(omegas)
    assert np.allclose(np.linalg.norm(generators, 1, axis=(-2, -1)), norms)
    for stack, fn in ((generators, _expm), (omegas, vector_boost),
                      (omegas, lambda w: boost_matrix(w).matrix)):
        got = fn(stack)
        assert got.shape == stack.shape
        for i in range(len(stack)):
            assert np.array_equal(got[i], fn(stack[i]))
    for i, omega in enumerate(omegas):
        spinor = _spinor_generator_one(omega)
        assert np.array_equal(spinor_generator(omegas)[i], spinor)
        assert np.array_equal(boost_matrix(omegas).matrix[i], _expm_one(spinor))
        assert np.array_equal(vector_boost(omegas)[i], _expm_one(generators[i]))


def test_stacked_overflow_names_the_slice():
    stack = np.stack([_axis_boost(1.0), _axis_boost(2000.0), _axis_boost(3000.0)])
    with pytest.raises(VerificationError) as info:
        vector_boost(stack)
    assert info.value.index == 1
    with pytest.raises(VerificationError) as info:
        vector_boost(stack[1])
    assert info.value.index is None


def _run_python(code: str) -> list[str]:
    src = str(Path(ncdirac.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
    ).stdout
    return out.splitlines()


_QUIET_MAIN = """
import contextlib, io, sys
from ncdirac import cli

def main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code
"""


def test_import_leaves_scipy_unloaded():
    # numpy is registered lazily and loads on first float use; its own
    # import loads numpy.linalg (numpy 1.24 and 2.x), which shows it ran
    loaded = ("print(sorted(m for m in sys.modules "
              "if m.split('.')[0] == 'scipy' or m == 'numpy.linalg'))")
    fixture = Path(__file__).resolve().parent / "golden" / "tampered_deformed_fixture.json"
    exact = [["verify", "algebra", "--fixture", str(fixture)], ["verify", "rep"],
             ["verify", "clifford"], ["--help"], ["verify", "--no-such-option"]]
    out = _run_python(
        "import sys, ncdirac\n"
        "assert ncdirac.reality_class([(1, 1, 0, 0), (0, 0, 1, -1)]) == 'Majorana'\n"
        f"{loaded}\n{_QUIET_MAIN}\n"
        f"print([main(argv) for argv in {exact!r}])\n{loaded}\n"
        f"print(main(['verify', 'planewave']))\n{loaded}\n"
    )
    assert out == ["[]", "[1, 0, 0, 0, 2]", "[]", "0", "['numpy.linalg']"]
    # a caller that imported numpy first: the float code uses that module
    out = _run_python(
        f"import numpy, ncdirac\n{_QUIET_MAIN}\n"
        "from ncdirac._numpy import np\n"
        "print(np is numpy, main(['verify', 'planewave']))\n"
    )
    assert out == ["True 0"]


class TestRealityClass:
    def test_real_basis_is_majorana(self):
        assert reality_class([(1, 1, 0, 0), (0, 0, 1, -1)]) == "Majorana"
        # a numpy integer entry is exact too
        assert reality_class([(np.int64(1), 1, 0, 0), (0, 0, 1, -1)]) == "Majorana"

    def test_paired_imaginary_is_dirac(self):
        assert reality_class([(1, 0, J, 0), (0, 1, 0, J)]) == "Dirac"

    def test_complex_span_with_real_form(self):
        # (i, i, 0, 0) spans the same line as (1, 1, 0, 0)
        assert reality_class([(J, J, 0, 0)]) == "Majorana"

    def test_basis_recombination_invariance(self):
        base = [(1, 0, J, 0), (0, 1, 0, J)]
        mixed = [
            tuple(3 * a + (2 + J) * b for a, b in zip(base[0], base[1])),
            tuple((1 - J) * a - 5 * b for a, b in zip(base[0], base[1])),
        ]
        assert reality_class(mixed) == reality_class(base) == "Dirac"

    def test_float_mode_agrees(self):
        noisy = [
            (1.0 + 1e-13, 0.0, 1j, 0.0),
            (0.0, 1.0, 0.0, 1j * (1 + 1e-13)),
        ]
        assert reality_class(noisy) == "Dirac"
        assert reality_class([(1.0, 1.0 + 1e-14, 0.0, 0.0)]) == "Majorana"

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            reality_class([(1, 0, 0, 0), (2, 0, 0, 0)])

    def test_full_space_is_majorana(self):
        basis = [tuple(int(i == j) for j in range(4)) for i in range(4)]
        assert reality_class(basis) == "Majorana"
