"""Gamma matrices, exact Cayley boosts, and the conjugation-closure classifier."""

import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from exact_arrays import as_array

import ncdirac
from ncdirac import cayley, checks, clifford
from ncdirac.cayley import cayley_boost
from ncdirac.clifford import (
    VerificationError,
    build_majorana_rep,
    conjugation_closed,
    gamma,
    gamma5,
    gamma5_product_check,
    majorana_imaginary_check,
    reality_class,
    verify_clifford,
)
from ncdirac.matrices import ExactMatrix, echelon
from ncdirac.scalars import ExactScalar, QuadraticScalar, poly

J = 1j
ETA = (1, -1, -1, -1)


def test_gamma5_frozen_value():
    expect = np.array(
        [[0, J, 0, 0], [-J, 0, 0, 0], [0, 0, 0, -J], [0, 0, J, 0]]
    )
    assert np.array_equal(as_array(gamma5()), expect)


def test_gamma_entries_imaginary_and_traceless():
    for mu in range(4):
        arr = as_array(gamma(mu))
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
    square = as_array(g4 @ g4)
    assert np.array_equal(square, eps5 * np.eye(4))
    assert rep.metric5 == (1, -1, -1, -1, eps5)
    # extra direction: gamma5 itself or its rotation by i
    g5 = as_array(gamma5())
    got = as_array(g4)
    assert np.allclose(got, g5 if eps5 == 1 else J * g5)


@pytest.mark.parametrize("eps5", [1, -1])
def test_product_and_imaginarity(eps5):
    rep = build_majorana_rep(eps5)
    assert gamma5_product_check(rep).ok
    assert majorana_imaginary_check(rep).ok


def test_each_clifford_relation_is_its_own_step(monkeypatch):
    # the runner times each step of a family: when the first row arrives,
    # only its own anticommutator has been computed
    calls = []
    true_residual = clifford._pair_residual

    def counted(rep, a, b):
        calls.append((a, b))
        return true_residual(rep, a, b)

    monkeypatch.setattr(clifford, "_pair_residual", counted)
    rows = checks.cmd_verify_clifford.__wrapped__(checks.RunConfig(eps5=1))
    assert next(rows).check == "clifford_anticommutator_g0_g0"
    assert calls == [(0, 0)]
    assert len(list(rows)) == 21
    assert len(calls) == 15


def _axis_boost(y):
    """omega_03 = -omega_30 = y, read exactly from an int or a float."""
    omega = [[Fraction(0)] * 4 for _ in range(4)]
    omega[0][3], omega[3][0] = Fraction(y), -Fraction(y)
    return omega


def _seeded_generators(seed, n):
    """Antisymmetric generators with entries p/q, q in 1..10, |p| <= q."""
    rng = random.Random(seed)
    for _ in range(n):
        q = rng.randint(1, 10)
        omega = [[Fraction(0)] * 4 for _ in range(4)]
        for a, b in combinations(range(4), 2):
            omega[a][b] = Fraction(rng.randint(-q, q), q)
            omega[b][a] = -omega[a][b]
        yield omega


def _spinor(boost, rows="numer"):
    """S (or S^-1 for rows="inverse") as an ExactMatrix."""
    return ExactMatrix([[ExactScalar(Fraction(x, boost.denom)) for x in row]
                        for row in getattr(boost, rows)])


def _vector(boost):
    """Lambda^mu_nu as Fractions."""
    return [[Fraction(x, 4 * boost.denom ** 2) for x in row] for row in boost.lam_numer]


def _axis_closed_form(y):
    """The Cayley boost of _axis_boost(y): A/2 = t g0 g3 with t = y/4 and
    (g0 g3)^2 = I, so S = ((1 + t^2) I + 2t g0 g3) / (1 - t^2) and Lambda
    mixes 0 and 3 with ((1 + t^2)^2 + 4t^2, 4t (1 + t^2)) / (1 - t^2)^2."""
    t = Fraction(y) / 4
    g03 = gamma(0) @ gamma(3)
    spinor = (ExactMatrix.identity(4).scale(poly(ExactScalar(1 + t * t)))
              + g03.scale(poly(ExactScalar(2 * t)))).scale(poly(ExactScalar(1 / (1 - t * t))))
    c = ((1 + t * t) ** 2 + 4 * t * t) / (1 - t * t) ** 2
    s = 4 * t * (1 + t * t) / (1 - t * t) ** 2
    vector = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    vector[0][0] = vector[3][3] = c
    vector[0][3] = vector[3][0] = s
    return spinor, vector


def test_boost_pairing_rapidity_one():
    # omega_03 = 1: S = (17 I + 8 g0 g3) / 15, and g0 goes to
    # (353 g0 + 272 g3) / 225, with 353^2 - 272^2 = 225^2
    boost = cayley_boost(_axis_boost(1))
    S, S_inv = _spinor(boost), _spinor(boost, "inverse")
    expect = (gamma(0).scale(poly(ExactScalar(Fraction(353, 225))))
              + gamma(3).scale(poly(ExactScalar(Fraction(272, 225)))))
    assert S_inv @ gamma(0) @ S == expect
    # spinor boosts are real in this basis and unimodular
    assert S == S.conjugate()
    assert S.det() == poly(1)


def test_vector_boost_preserves_metric():
    for omega in _seeded_generators(5, 20):
        lam = _vector(cayley_boost(omega))
        assert [[sum(lam[c][a] * ETA[c] * lam[c][b] for c in range(4)) for b in range(4)]
                for a in range(4)] == [[ETA[a] * (a == b) for b in range(4)] for a in range(4)]


def test_pairing_residual_random():
    gammas = build_majorana_rep(1).gamma
    for omega in _seeded_generators(11, 25):
        boost = cayley_boost(omega)
        S, S_inv, lam = _spinor(boost), _spinor(boost, "inverse"), _vector(boost)
        for mu in range(4):
            paired = ExactMatrix.zeros(4)
            for nu in range(4):
                paired = paired + gammas[nu].scale(poly(ExactScalar(lam[mu][nu])))
            assert S_inv @ gammas[mu] @ S == paired


def test_generator_antisymmetry_guard():
    with pytest.raises(ValueError, match="antisymmetric"):
        cayley_boost(np.ones((4, 4), dtype=int))
    with pytest.raises(ValueError, match="4x4"):
        cayley_boost(np.zeros((3, 3), dtype=int))


RAPIDITIES = [0.5, 1.0, 5.0, 10.0, 20.0]


@pytest.mark.parametrize("y", RAPIDITIES)
def test_vector_boost_closed_form(y):
    assert _vector(cayley_boost(_axis_boost(y))) == _axis_closed_form(y)[1]


@pytest.mark.parametrize("y", RAPIDITIES)
def test_spinor_boost_closed_form(y):
    assert _spinor(cayley_boost(_axis_boost(y))) == _axis_closed_form(y)[0]


def test_exponential_inverse_and_zero():
    # the Cayley map sends -omega to S^-1, and omega = 0 to S = Lambda = I
    omegas = [_axis_boost(y) for y in (Fraction(1, 2), 1, 5)]
    omegas += list(_seeded_generators(3, 10))
    for omega in omegas:
        fwd = cayley_boost(omega)
        back = cayley_boost([[-x for x in row] for row in omega])
        assert (back.numer, back.inverse, back.denom) == (fwd.inverse, fwd.numer, fwd.denom)
    zero = cayley_boost([[0] * 4 for _ in range(4)])
    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    assert (zero.numer, zero.inverse, zero.denom) == (eye, eye, 1)
    assert _vector(zero) == eye


def test_bad_generators_are_rejected():
    complex_omega = [[ExactScalar(1, 1) * x for x in row] for row in _axis_boost(1)]
    with pytest.raises(ValueError, match="imaginary part"):
        cayley_boost(complex_omega)
    infinite = [[0.0] * 4 for _ in range(4)]
    infinite[0][3], infinite[3][0] = float("inf"), -float("inf")
    with pytest.raises(TypeError, match="convert floats explicitly"):
        cayley_boost(infinite)
    # finite but past any float range: only larger integers
    assert cayley_boost(_axis_boost(10 ** 400)).height_bits > 2600
    # omega_03 = 4 puts t = 1: I - A/2 has no inverse
    with pytest.raises(VerificationError, match="singular"):
        cayley_boost(_axis_boost(4))


def test_nearly_antisymmetric_generator_is_rejected():
    # antisymmetric to 9e-6 relative: exact arithmetic sees the defect
    omega = _axis_boost(1)
    omega[3][0] = -Fraction(1000009, 1000000)
    with pytest.raises(ValueError, match="antisymmetric"):
        cayley_boost(omega)


def _negate_first(entries):
    (i, sign), *rest = entries
    return [(i, -sign), *rest]


# one table the boost kernel reads, corrupted, and the identity that must
# then fail: a wrong tr(M^2 G) or G gives a wrong inverse, a wrong R_0 a
# wrong pairing, a Euclidean eta a failed metric and a wrong G on the left
# a failed commutator
_CORRUPTIONS = {
    "g_trace": (lambda tab: tab._replace(g_trace=_negate_first(tab.g_trace)),
                "S^-1 S != I"),
    "g_cols": (lambda tab: tab._replace(g_cols=_negate_first(tab.g_cols)),
               "S^-1 S != I"),
    "r_entries": (lambda tab: tab._replace(
        r_entries=[_negate_first(tab.r_entries[0]), *tab.r_entries[1:]]),
        "S^-1 g^mu S != Lambda^mu_nu g^nu"),
    "eta": (lambda tab: tab._replace(eta=tab.eye), "Lambda^T eta Lambda != eta"),
    "g_rows": (lambda tab: tab._replace(g_rows=_negate_first(tab.g_rows)),
               "[S, g^4] != 0"),
}


@pytest.mark.parametrize("field", sorted(_CORRUPTIONS))
def test_cayley_identities_fire_on_a_corrupted_table(monkeypatch, field):
    corrupt, message = _CORRUPTIONS[field]
    omegas = list(_seeded_generators(42, 5))
    for omega in omegas:  # the true tables pass
        cayley_boost(omega)
    true_tables = cayley._tables
    monkeypatch.setattr(cayley, "_tables", lambda: corrupt(true_tables()))
    for omega in omegas:
        with pytest.raises(VerificationError) as info:
            cayley_boost(omega)
        assert str(info.value) == message


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
    # numpy is installed and not blocked: nothing ncdirac runs imports it,
    # so neither numpy nor scipy is ever loaded
    loaded = ("print(sorted(m for m in sys.modules "
              "if m.split('.')[0] in ('numpy', 'scipy')))")
    fixture = Path(__file__).resolve().parent / "golden" / "tampered_deformed_fixture.json"
    commands = [["verify", "algebra", "--fixture", str(fixture)], ["verify", "rep"],
                ["verify", "clifford"], ["--help"], ["verify", "--no-such-option"],
                ["verify", "planewave"], ["check", "all", "--seed", "42"], ["modes"],
                ["seesaw"], ["scan", "--param", "vev", "--from", "1/2", "--to", "2",
                             "--steps", "4", "--eps5", "1"]]
    out = _run_python(
        "import sys, ncdirac\n"
        f"{loaded}\n{_QUIET_MAIN}\n"
        f"print([main(argv) for argv in {commands!r}])\n{loaded}\n"
        "import ncdirac.cayley\n"
        "assert ncdirac.reality_class([(1, 1, 0, 0), (0, 0, 1, -1)]) == 'Majorana'\n"
        f"{loaded}\n"
    )
    assert out == ["[]", "[1, 0, 0, 0, 2, 0, 0, 0, 0, 1]", "[]", "[]"]


def test_cli_import_leaves_cayley_unloaded():
    # check all proves Lorentz covariance from the generators: the Cayley
    # boosts serve the demos and the tests, and the CLI never compiles them
    loaded = "print('ncdirac.cayley' in sys.modules)"
    out = _run_python(
        f"import sys, ncdirac.cli\n{loaded}\n{_QUIET_MAIN}\n"
        f"print(main(['check', 'all', '--seed', '42']))\n{loaded}\n"
    )
    assert out == ["False", "0", "False"]


def test_cli_import_loads_no_dataclasses_or_inspect():
    # no class is a dataclass, so importing the CLI loads neither dataclasses
    # nor inspect; csv is loaded only when a CSV report is rendered
    loaded = "print(sorted({'csv', 'dataclasses', 'inspect'} & set(sys.modules)))"
    out = _run_python(
        f"import sys, ncdirac.cli\n{loaded}\n{_QUIET_MAIN}\n"
        f"print(main(['check', 'all', '--seed', '42']))\n{loaded}\n"
        f"print(main(['verify', 'clifford', '--format', 'csv']))\n{loaded}\n"
    )
    assert out == ["[]", "0", "[]", "0", "['csv']"]
    package = Path(ncdirac.__file__).resolve().parent
    importers = [path.name for path in sorted(package.glob("*.py"))
                 if re.search(r"^\s*(from|import)\s+dataclasses\b", path.read_text(), re.M)]
    assert importers == []


_TAMPERED_G4 = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from functools import cache
from ncdirac import clifford
from ncdirac.cli import main
from ncdirac.modes import residual

true_table = clifford._majorana_table.__wrapped__


@cache
def tampered(eps5):
    *gammas, g4 = true_table(eps5)
    return (*gammas, g4.scale(2))


clifford._majorana_table = tampered
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = main(["verify", "clifford", "--eps5", "1"])
rows = json.loads(buf.getvalue())["reports"]
print(json.dumps([code, {r["check"]: [r["status"], r["residual"]] for r in rows}]))
print(repr(residual((1, 0, 0, 1), (1, 0, 0, 0), 1, 1)))
"""


def test_failing_relation_reports_without_numpy():
    # gamma^4 scaled by 2, numpy blocked: the failing rows are sized from
    # the exact entries, and the run exits 1 with no traceback
    src = str(Path(ncdirac.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _TAMPERED_G4], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0 and "Traceback" not in done.stderr, done.stderr
    report, size = done.stdout.splitlines()
    code, rows = json.loads(report)
    assert code == 1
    # {g4, g4} = 8 and g4^2 = 4 where 2 and 1 are due; g4 anticommutes
    # with the rest, tampered or not
    assert rows["clifford_anticommutator_g4_g4"] == ["fail", "6"]
    assert rows["clifford_square_g4"] == ["fail", "3"]
    assert rows["clifford_anticommutator_g0_g4"] == ["pass", "0"]
    assert sum(status == "fail" for status, _ in rows.values()) == 2
    # the residual of a non-solution is rounded once from exact norms:
    # D(k) e_0 = (-i, 0, 0, i) at k = (1, 0, 0, 1), where k^2 = 0 leaves
    # g^4 out
    assert float(size) == np.sqrt(2.0)


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

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            reality_class([(1, 0, 0, 0), (2, 0, 0, 0)])

    def test_full_space_is_majorana(self):
        basis = [tuple(int(i == j) for j in range(4)) for i in range(4)]
        assert reality_class(basis) == "Majorana"


@pytest.mark.parametrize("rows, closed", [
    ([[1, 0], [0, 1]], True),
    ([[1, 1j]], False),
    ([[1j, 1j]], True),                  # i times a real row
    ([[1, 1j, 0], [1, -1j, 0]], True),   # a row with its conjugate
    ([[1, 1j, 0], [0, 0, 1]], False),
])
def test_conjugation_closed(rows, closed):
    rows = ExactMatrix.from_complex_entries(rows).scalar_entries()
    assert conjugation_closed(rows) is closed


def _stacked_rank_closed(rows) -> bool:
    """The verdict conjugation_closed gave before: adding the conjugate
    rows leaves the rank unchanged."""
    rank = len(echelon([list(row) for row in rows]))
    stacked = [list(row) for row in rows] + [[x.conjugate() for x in row] for row in rows]
    return len(echelon(stacked)) == rank


def _seeded_subspaces(rng, scalar):
    """Row lists of three kinds: random rows (rarely closed), random
    combinations of real rows, and rows next to their conjugates (both
    closed, though no row need be real).  ``scalar(real)`` draws a field
    element, real or not."""
    for _ in range(40):
        ncols = rng.randint(1, 4)
        k = rng.randint(1, ncols)
        kind = rng.choice(("random", "real span", "paired"))
        if kind == "random":
            rows = [[scalar(False) for _ in range(ncols)] for _ in range(k)]
        elif kind == "real span":
            real = [[scalar(True) for _ in range(ncols)] for _ in range(k)]
            # row i mixes real rows i.. with a nonzero weight on row i: the
            # mixing is triangular and invertible, so the span is kept
            rows = []
            for i in range(k):
                lead = scalar(False)
                while not lead:
                    lead = scalar(False)
                rest = [(scalar(False), row) for row in real[i + 1:]]
                rows.append([sum((c * row[col] for c, row in rest), lead * real[i][col])
                             for col in range(ncols)])
        else:
            row = [scalar(False) for _ in range(ncols)]
            rows = [row, [x.conjugate() for x in row]]
        yield kind, rows


@pytest.mark.parametrize("field", ["Q(i)", "Q(i, sqrt 7/3)"])
def test_conjugation_closed_matches_the_stacked_rank(field):
    rng = random.Random(f"conjugation_closed:{field}")
    delta = Fraction(7, 3)

    def part(real=False):
        im = 0 if real else Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        return ExactScalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), im)

    def scalar(real):
        if field == "Q(i)":
            return part(real)
        return QuadraticScalar(part(real), part(real), delta)

    verdicts = {}
    for kind, rows in _seeded_subspaces(rng, scalar):
        want = _stacked_rank_closed(rows)
        assert conjugation_closed(rows) is want
        reduced = [list(row) for row in rows]
        echelon(reduced)
        assert conjugation_closed(reduced) is want
        verdicts.setdefault(kind, set()).add(want)
    assert verdicts["real span"] == verdicts["paired"] == {True}
    assert False in verdicts["random"]
