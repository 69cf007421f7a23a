"""Every family's failure rows, byte for byte.

Each test injects a failure into one command and compares the full JSON
of every row it fails (status, residual, relation, details and params)
with a literal.  The pass rows are pinned by the golden reports; these
pin the error and fail branches, which no golden report holds.
"""

import json
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from test_lie_algebra import _double_one_coefficient

from ncdirac import checks, clifford, enveloping, lie_algebra, modes, seesaw
from ncdirac.cli import main
from ncdirac.clifford import VerificationError, _perm_product
from ncdirac.enveloping import NCExpression
from ncdirac.scalars import sym

TAMPERED = str(Path(__file__).parent / "golden" / "tampered_deformed_fixture.json")
TABLE_TWIST = ("; at eps4 = eps5 = 1: every other sign pair's table is its twist "
               "rho -> eps4*rho, l -> i*l, which keeps it")


def _failed(capsys, *argv) -> list:
    """The rows ``argv`` fails, as the JSON report prints them; the run
    exits 1."""
    code = main(list(argv))
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    return [row for row in doc["reports"] if row["status"] == "fail"]


def _row(check, params, relation, residual=None, details=None) -> dict:
    return {"check": check, "params": params, "status": "fail", "residual": residual,
            "relation": relation, "details": {} if details is None else details,
            "duration_ms": None}


def test_the_algebra_failure_rows(capsys, monkeypatch):
    # a tampered deformed table, an unflattened momentum limit, an
    # orthogonal table no rescaling matches, and the tampered fixture
    _double_one_coefficient(monkeypatch, 0)
    with open(TAMPERED, encoding="utf-8") as fh:
        tampered = lie_algebra.StructureConstants.from_json(json.load(fh))
    monkeypatch.setattr(checks, "build_deformed_algebra", lambda e4, e5: tampered.copy())
    monkeypatch.setattr(checks, "flat_deformed_algebra",
                        lambda e5: lie_algebra.build_deformed_algebra(1, e5))
    pair = {"eps4": 1, "eps5": 1}
    jacobi = "[[a,b],c] + [[b,c],a] + [[c,a],b] = 0"
    assert _failed(capsys, "verify", "algebra", "--fixture", TAMPERED) == [
        _row("contraction", pair, "rho -> 0 flattens [p,p]; l -> 0 flattens [x,x]" + TABLE_TWIST,
             details={"coordinate_brackets_vanish": True, "momentum_brackets_vanish": False}),
        _row("isomorphism", pair,
             "phi([a,b]) = [phi(a), phi(b)] with P -> alpha*M_mu4, x -> beta*M_mu5, "
             "C -> gamma*M45; at eps4 = eps5 = 1: every other sign pair's source is its "
             "twist r -> i*r (eps4 = -1), l -> i*l (eps5 = -1), its target the twist "
             "M_a4 -> i*M_a4 (eps4 = -1), M_a5 -> i*M_a5 (eps5 = -1), and the map keeps "
             "its formula",
             details={"error": "no scaling signs satisfy the bracket match",
                      "passing_sign_choices": []}),
        _row("jacobi_deformed", pair, jacobi + TABLE_TWIST, 12,
             {"first_violation": ["M02", "x0", "x1"], "triples": 455, "violations": 12}),
        _row("jacobi_fixture", {"basis_dim": 15}, jacobi, 12,
             {"first_residual": {"M12": "(-28/25-14/15i)*l*rho"},
              "first_violation": ["M02", "x0", "x1"], "path": TAMPERED,
              "triples": 455, "violations": 12}),
    ]


def test_the_rep_failure_rows(capsys, monkeypatch):
    # two pairs of one family do not close
    closure_families = checks.closure_families
    open_pair = SimpleNamespace(is_zero=lambda: False)

    def broken(eps5):
        for fam, rows in closure_families(eps5):
            yield fam, [(pair, open_pair if fam == "Px" and k in (2, 5) else r)
                        for k, (pair, r) in enumerate(rows)]

    monkeypatch.setattr(checks, "closure_families", broken)
    assert _failed(capsys, "verify", "rep") == [
        _row("rep_closure_Px", {"eps5": 1, "family": "Px"},
             "[rep(a), rep(b)] = rep([a, b]); at eps5 = 1: the eps5 = -1 data is its twist "
             "l -> i*l, xi4 -> i*xi4, d4 -> -i*d4, which keeps it", 2,
             {"first_violation": ["P0", "x2"], "pairs": 16, "violations": 2}),
    ]


def test_the_clifford_failure_rows(capsys, monkeypatch):
    # g^0 turned by i: it squares to -eta00 and is no longer imaginary
    gamma_perms = clifford._gamma_perms
    monkeypatch.setattr(clifford, "_gamma_perms", lambda e5: (
        _perm_product(gamma_perms(e5)[0], turn=1), *gamma_perms(e5)[1:]))
    carried = "; at eps5 = 1: the eps5 = -1 data is its twist g4 -> i*g4, which keeps it"
    assert _failed(capsys, "verify", "clifford") == [
        _row("clifford_anticommutator_g0_g0", {"eps5": 1}, "{g0,g0} = 2*eta00" + carried, "4"),
        _row("clifford_gamma5_product", {"eps5": 1}, "g5 = i*g0*g1*g2*g3" + carried,
             "1.4142135623731"),
        _row("clifford_majorana_imaginary", {"eps5": 1},
             "conj(g_mu) = -g_mu for mu in 0..3" + carried, "2"),
    ]


def test_the_planewave_failure_rows(capsys, monkeypatch):
    # a remainder of high l-degree and a nonzero lemma entry
    class Tampered(enveloping.PlaneWaveCheck):
        @property
        def mixed_remainder(self):
            return super().mixed_remainder + NCExpression.unit(sym("l", 9))

        @property
        def vacuum_scalar(self):
            return super().vacuum_scalar + sym("l", 9)

    lemma_matrix_check = checks.lemma_matrix_check
    monkeypatch.setattr(checks, "verify_plane_wave_relations", lambda e5, *order: Tampered(e5))
    monkeypatch.setattr(checks, "lemma_matrix_check", lambda e5: {
        **lemma_matrix_check(e5), "momentum_commutator": Fraction(1, 2)})
    carried = "; at eps5 = 1: the eps5 = -1 data is its twist l -> i*l, d4 -> i*d4, which keeps it"
    assert _failed(capsys, "verify", "planewave") == [
        _row("planewave_lemma", {"eps5": 1},
             "[p, e^A] = [p, A] e^A and d(e^A) = (dA + (1/2)[A, dA]) e^A on a nilpotent model"
             + carried, "1/2",
             {"derivative_lemma": "0", "momentum_commutator": "1/2",
              "plane_wave_derivative": "0"}),
        _row("planewave_mixed", {"eps5": 1}, "[A, d4(A)] = -i*eps5*l*k^2" + carried,
             details={"exactly_zero": False}),
        _row("planewave_vacuum", {"eps5": 1},
             "(d4(A) + (1/2)[A, d4(A)]) on the vacuum = i*eps5*l*k^2/2" + carried,
             details={"value": "-1/2i*l*k3^2 + -1/2i*l*k2^2 + -1/2i*l*k1^2 + 1/2i*l*k0^2 + l^9"}),
    ]


def test_the_modes_failure_rows(capsys, monkeypatch):
    # every reference kernel is refused, and the heavy root goes missing
    def refuse(ell, eps5, branch):
        raise VerificationError(f"{branch} kernel refused at eps5 = {eps5}")

    monkeypatch.setattr(checks, "reference_solutions", refuse)
    monkeypatch.setattr(checks, "dispersion_roots", lambda ell, e5: {Fraction(0)})
    at_two = " at l = 2; modes_scaling carries it to every l > 0"
    assert _failed(capsys, "modes", "--eps5", "-1") == [
        _row("dispersion_roots", {"eps5": -1}, "k^2 * (1 + eps5*(l^2/4)*k^2) = 0" + at_two,
             details={"roots": ["0"]}),
        _row("modes_reference_heavy", {"eps5": -1},
             "D(k) u = 0 with dim ker = 2 on the heavy branch" + at_two,
             details={"error": "heavy kernel refused at eps5 = -1"}),
        _row("modes_reference_massless", {"eps5": 1},
             "D(k) u = 0 with dim ker = 2 on the massless branch" + at_two
             + "; at eps5 = 1: the eps5 = -1 data is its twist l -> -i*l, which keeps it",
             details={"error": "massless kernel refused at eps5 = 1"}),
    ]


@pytest.mark.parametrize("eps5, k, rest", [
    (1, "(1, 0, 0, 0)", "(1/20000, 0, 0, 0)"),
    (-1, "(0, 0, 0, 1)", "(0, 0, 0, 1/20000)"),
])
def test_the_seesaw_failure_rows(capsys, monkeypatch, eps5, k, rest):
    # the swapped frame axis of test_seesaw.py: P = g^a g^4 squares to -I,
    # so every spectrum and the rest-frame kernel fail
    monkeypatch.setattr(seesaw, "frame", lambda e5, x: modes.frame(-e5, x))
    seesaw._eigenspace_classes.cache_clear()
    try:
        failed = _failed(capsys, "seesaw", "--eps5", str(eps5))
    finally:
        seesaw._eigenspace_classes.cache_clear()
    error = ("P = g^a g^4 does not have eigenvalues +1 and -1 twice each: "
             f"nullspace dimension 0 != 2 at k={k} (eps5={eps5})")
    sweep = {"ell": "1", "eps5": eps5}
    coupling = {**sweep, "g": "1", "vev": "1/100"}
    assert failed == [
        _row("seesaw_convergence", sweep,
             "deviation from leading mass scales as (mu/M)^2 with constant <= 2",
             details={"1/100": {"error": error}, "1/1000": {"error": error}}),
        _row("seesaw_decoupling", sweep,
             "at g = 0 the heavy root equals -eps5*4/l^2 exactly and the light root is 0",
             details={"error": error}),
        _row("seesaw_effective", coupling,
             "g.k - eps5*|g|^2*vev^2*(l/2)*g4 reproduces the printed gamma5 mass term",
             details={"error": f"nullspace dimension 0 != 2 at k={rest} (eps5={eps5})"}),
        _row("seesaw_spectrum", coupling,
             "light root of det(coupled matrix) matches |g|^2 vev^2 l/2 to second order in mu/M",
             details={"diagnostics": {}, "error": error}),
    ]


def test_an_overcritical_spectrum_row_keeps_its_diagnostics(capsys):
    assert _failed(capsys, "seesaw", "--vev", "2", "--eps5", "1") == [
        _row("seesaw_spectrum", {"ell": "1", "eps5": 1, "g": "1", "vev": "2"},
             "light root of det(coupled matrix) matches |g|^2 vev^2 l/2 to second order in mu/M",
             details={"diagnostics": {"M2": "4", "discriminant": "-48", "mu2": "4"},
                      "error": "no real determinant roots: the coupling is overcritical"}),
    ]
