"""Acceptance gate: each numbered criterion as one test with one verdict line.

Run `pytest tests/test_acceptance.py -v` for the line-per-criterion view.
"""

import json
import random
from fractions import Fraction
from itertools import combinations

from cayley_oracle import boost_defect, cayley_boost

from ncdirac.cli import main
from ncdirac.clifford import (
    gamma5_product_check,
    majorana_imaginary_check,
    verify_clifford,
)
from ncdirac.enveloping import lemma_matrix_check, verify_plane_wave_relations
from ncdirac.lie_algebra import (
    build_deformed_algebra,
    jacobi_residual,
    jacobi_triple_count,
    solve_isomorphism_scalings,
    verify_linear_isomorphism,
)
from ncdirac.modes import (
    dirac_matrix,
    dispersion_roots,
    operator_residual,
    reference_solutions,
    squared_identity_residual,
)
from ncdirac.scalars import I, ExactScalar, poly
from ncdirac.seesaw import (
    CouplingConfig,
    exact_mode_spectrum,
    leading_mass,
    light_mass_leading,
    verify_effective_equation,
)
from ncdirac.weyl import BRACKET_FAMILIES, verify_rep_closure

SIGNS = [(1, 1), (1, -1), (-1, 1), (-1, -1)]


def verdict(ok: bool, label: str) -> None:
    print(("PASS" if ok else "FAIL") + f" {label}")
    assert ok, label


def test_criterion_01_jacobi_all_sign_pairs():
    ok = True
    for eps4, eps5 in SIGNS:
        alg = build_deformed_algebra(eps4, eps5)
        ok = ok and jacobi_triple_count(alg) == 455 and jacobi_residual(alg) == []
    verdict(ok, "criterion 1: Jacobi exact on 455 triples for all 4 sign pairs")


def test_criterion_02_isomorphism_all_sign_pairs():
    ok = True
    for eps4, eps5 in SIGNS:
        sol = solve_isomorphism_scalings(eps4, eps5)
        check = verify_linear_isomorphism(sol.map)
        ok = ok and check.ok and check.invertible and not check.mismatches
    verdict(ok, "criterion 2: scaled embedding into the 6-D orthogonal algebra "
                "is an exact isomorphism for all 4 sign pairs")


def test_criterion_03_representation_closure():
    ok = True
    for eps5 in (1, -1):
        table = verify_rep_closure(eps5)
        ok = ok and set(table) == set(BRACKET_FAMILIES)
        for rows in table.values():
            ok = ok and all(rem.is_zero() for _, rem in rows)
    verdict(ok, "criterion 3: all 8 bracket families close exactly in the "
                "differential realization, both eps5 signs")


def test_criterion_04_clifford_relations():
    ok = True
    for eps5 in (1, -1):
        checks = verify_clifford(eps5)
        ok = ok and len(checks) == 15 and all(c.ok for c in checks)
        ok = ok and gamma5_product_check(eps5).ok
        ok = ok and majorana_imaginary_check(eps5).ok
    verdict(ok, "criterion 4: {g^a, g^b} = 2 eta^ab exact over the 15 pairs a <= b "
                "for both signatures; gamma5 product exact; entries imaginary")


def test_criterion_05_plane_wave_identities():
    ok = True
    for eps5 in (1, -1):
        chk = verify_plane_wave_relations(eps5)
        ok = ok and all(rem.is_zero() for rem in chk.all_remainders())
        ok = ok and chk.centrality_remainders == []
        model = lemma_matrix_check(eps5)
        ok = ok and all(value == 0 for value in model.values())
    verdict(ok, "criterion 5: the plane-wave remainders are exactly zero, "
                "untruncated, and the nilpotent model agrees exactly")


def test_criterion_06_dispersion_branches():
    ok = True
    for eps5 in (1, -1):
        ok = ok and squared_identity_residual(eps5).is_zero()
        for ell in (Fraction(1, 2), Fraction(1), Fraction(2)):
            want = {Fraction(0), Fraction(-4 * eps5) / ell ** 2}
            ok = ok and dispersion_roots(ell, eps5) == want
    verdict(ok, "criterion 6: squared-operator identity symbolic; roots "
                "{0, -eps5*4/l^2} exact at l in {1/2, 1, 2}")


def test_criterion_07_spinor_solutions():
    heavy_m = reference_solutions(Fraction(1), -1, "heavy")
    ok = len(heavy_m.basis) == 2 and heavy_m.spinor_class == "Dirac"
    for vec in heavy_m.basis:
        upper, lower = vec[:2], vec[2:]
        ratio_up = [c * I for c in upper]
        ratio_down = [c * (-I) for c in upper]
        ok = ok and (list(lower) == ratio_up or list(lower) == ratio_down)

    heavy_p = reference_solutions(Fraction(1), 1, "heavy")
    ok = ok and len(heavy_p.basis) == 2 and heavy_p.spinor_class == "Majorana"
    # exact span comparison against the real block forms
    from ncdirac.matrices import ExactMatrix, echelon
    frozen = [[1, 1, 0, 0], [0, 0, 1, -1]]
    stacked = ExactMatrix(
        [[poly(c) for c in row] for row in frozen]
        + [[poly(c) for c in vec] for vec in heavy_p.basis]
    )
    ok = ok and len(echelon(stacked.scalar_entries())) == 2
    verdict(ok, "criterion 7: heavy nullspaces 2-dimensional; eps5=-1 Dirac "
                "with paired +-i blocks, eps5=+1 Majorana with real blocks")


def test_criterion_08_boost_covariance():
    rng = random.Random(1234)
    boosts = []
    for _ in range(100):
        # omega_ab = p/q in [-2, 2], q in 1..10, a < b
        q = rng.randint(1, 10)
        omega = [[Fraction(0)] * 4 for _ in range(4)]
        for a, b in combinations(range(4), 2):
            omega[a][b] = Fraction(rng.randint(-2 * q, 2 * q), q)
            omega[b][a] = -omega[a][b]
        boosts.append(cayley_boost(omega))
    ok = True
    for eps5 in (1, -1):
        sol = reference_solutions(Fraction(1), eps5, "heavy")
        ok = ok and boost_defect(sol, boosts) is None
        for b in boosts:
            lam = [[Fraction(x, 4 * b.denom ** 2) for x in row] for row in b.lam_numer]
            k = [sum(x * c for x, c in zip(row, sol.k)) for row in lam]
            drift = k[0] ** 2 - k[1] ** 2 - k[2] ** 2 - k[3] ** 2 - sol.k2
            # denom * S u: the scale leaves the residual's zero in place
            worst = max(
                operator_residual(dirac_matrix(eps5, k, sol.ell),
                                  [sum(x * c for x, c in zip(row, u)) for row in b.numer])
                for u in sol.basis
            )
            ok = ok and worst == 0 and drift == 0
    verdict(ok, "criterion 8: 100 seeded rational Cayley boosts keep residual "
                "and k^2 drift exactly 0, both signs")


def test_criterion_09_seesaw_scaling():
    ok = True
    for eps5 in (1, -1):
        base = CouplingConfig(
            g=ExactScalar(Fraction(1)), vev=Fraction(1, 100), ell=Fraction(1),
            eps5=eps5,
        )
        expected = Fraction(1, 100) ** 2 * Fraction(1, 2)
        k2, cls = light_mass_leading(base)
        ok = ok and leading_mass(base) == expected
        ok = ok and cls == ("Dirac" if eps5 == -1 else "Majorana")
        ok = ok and abs(k2) == expected ** 2

        for ratio, bound in ((Fraction(1, 100), 1e-3), (Fraction(1, 1000), 1e-5)):
            probe = CouplingConfig(
                g=ExactScalar(Fraction(1)), vev=2 * ratio, ell=Fraction(1),
                eps5=eps5,
            )
            dev = exact_mode_spectrum(probe).deviation
            ok = ok and dev < bound

        free = CouplingConfig(
            g=ExactScalar(Fraction(0)), vev=Fraction(1), ell=Fraction(1),
            eps5=eps5,
        )
        spectrum = exact_mode_spectrum(free)
        ok = ok and spectrum.heavy_k2_exact == Fraction(-4 * eps5)
    verdict(ok, "criterion 9: leading light mass |g|^2 vev^2 l/2 in value and "
                "class; deviation < 1e-3 at mu/M = 1e-2 and < 1e-5 at 1e-3; "
                "heavy root exact at g = 0")


def test_criterion_10_effective_equation():
    ok = True
    for eps5 in (1, -1):
        config = CouplingConfig(
            g=ExactScalar.parse("2/3+1/5i"), vev=Fraction(3, 7),
            ell=Fraction(1, 4), eps5=eps5,
        )
        check = verify_effective_equation(config)
        ok = ok and check.identity_ok and check.residual.is_zero()
    verdict(ok, "criterion 10: eliminating the heavy block reproduces the "
                "effective operator as an exact identity, both signs")


def test_criterion_11_deterministic_reports(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    code1 = main(["check", "all", "--seed", "42", "--out", str(first)])
    code2 = main(["check", "all", "--seed", "42", "--out", str(second)])
    same = first.read_bytes() == second.read_bytes()
    doc = json.loads(first.read_text())
    # reports arrive sorted by check name, then parameters
    keys = [(r["check"], json.dumps(r["params"], sort_keys=True))
            for r in doc["reports"]]
    # timings stay null so reruns are byte-identical
    untimed = all(r["duration_ms"] is None for r in doc["reports"])
    ok = (code1 == 0 and code2 == 0 and same and doc["summary"]["failed"] == 0
          and keys == sorted(keys) and untimed)
    verdict(ok, "criterion 11: check all --seed 42 is byte-identical across "
                "runs, sorted, untimed and fully green")
