"""Gamma matrices, the Cayley boost oracle, and the reality class of a kernel basis."""

import ast
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from pathlib import Path

import cayley_oracle
import numpy as np
import pytest
from cayley_oracle import cayley_boost
from conjugation import conjugate
from determinant import det
from exact_arrays import as_array
from exact_gammas import exact_gammas
from golden_commands import COMMANDS
from spans import stacked_rank_closed

import ncdirac
from ncdirac import checks, clifford, modes
from ncdirac.clifford import (
    VerificationError,
    gamma5_product_check,
    majorana_imaginary_check,
    verify_clifford,
)
from ncdirac.matrices import ExactMatrix
from ncdirac.scalars import I, ExactScalar, poly

J = 1j
ETA = (1, -1, -1, -1)

# g0..g3 as dense block forms over s1 = [[0,1],[1,0]], s2 = [[0,-i],[i,0]],
# s3 = [[1,0],[0,-1]], all entries purely imaginary: the oracle that the
# phased-permutation store of ``clifford`` must equal entrywise
DENSE_GAMMAS = (
    [[0, 0, 0, -J], [0, 0, J, 0], [0, -J, 0, 0], [J, 0, 0, 0]],
    [[0, J, 0, 0], [J, 0, 0, 0], [0, 0, 0, J], [0, 0, J, 0]],
    [[0, 0, 0, -J], [0, 0, J, 0], [0, J, 0, 0], [-J, 0, 0, 0]],
    [[J, 0, 0, 0], [0, -J, 0, 0], [0, 0, J, 0], [0, 0, 0, -J]],
)


def _dense_gammas(eps5):
    """g^0..g^4 as numpy arrays, from DENSE_GAMMAS and g^4 = (i or -1)
    g0 g1 g2 g3, independent of the store."""
    dense = [np.array(g) for g in DENSE_GAMMAS]
    g5 = J * dense[0] @ dense[1] @ dense[2] @ dense[3]
    return dense + [g5 if eps5 == 1 else J * g5]


@pytest.mark.parametrize("eps5", [1, -1])
def test_gamma_store_equals_the_dense_block_forms(eps5):
    s1, s2, s3 = (np.array(m) for m in ([[0, 1], [1, 0]], [[0, -J], [J, 0]],
                                        [[1, 0], [0, -1]]))
    one = np.eye(2)
    want = _dense_gammas(eps5)
    assert all(np.array_equal(d, k) for d, k in zip(want, (
        np.kron(s1, s2), J * np.kron(one, s1), np.kron(J * s2, s2), J * np.kron(one, s3))))
    stored = clifford._gamma_perms(eps5)
    for mu, (perm, d) in enumerate(zip(stored, want)):
        assert np.array_equal(
            [[J ** p if k == c else 0 for k in range(4)] for c, p in perm], d)
        assert np.array_equal(as_array(exact_gammas(eps5)[mu]), d)


def test_gamma5_frozen_value():
    expect = np.array(
        [[0, J, 0, 0], [-J, 0, 0, 0], [0, 0, 0, -J], [0, 0, J, 0]]
    )
    assert np.array_equal(as_array(exact_gammas(1)[4]), expect)


def test_gamma_entries_imaginary_and_traceless():
    for g in exact_gammas(1)[:4]:
        arr = as_array(g)
        assert np.all(arr.real == 0)
        assert arr.trace() == 0


@pytest.mark.parametrize("eps5", [1, -1])
def test_clifford_relations(eps5):
    checks = verify_clifford(eps5)
    assert [c.name for c in checks] == [
        f"anticommutator_g{a}_g{b}" for a, b in combinations_with_replacement(range(5), 2)]
    for c in checks:
        assert c.ok, c.name
        assert c.residual == 0


@pytest.mark.parametrize("eps5", [1, -1])
def test_gamma4_square_and_metric(eps5):
    g4 = exact_gammas(eps5)[4]
    square = as_array(g4 @ g4)
    assert np.array_equal(square, eps5 * np.eye(4))
    # extra direction: gamma5 itself or its rotation by i
    g5 = as_array(exact_gammas(1)[4])
    got = as_array(g4)
    assert np.allclose(got, g5 if eps5 == 1 else J * g5)


@pytest.mark.parametrize("eps5", [1, -1])
def test_product_and_imaginarity(eps5):
    assert gamma5_product_check(eps5).ok
    assert majorana_imaginary_check(eps5).ok


def _dense_rows(eps5, gammas):
    """{row name: (ok, residual)} of the 17 Clifford rows, in numpy: each
    residual is the largest entry modulus of the difference of the
    relation's two sides."""
    eta = ETA + (eps5,)
    eye = np.eye(4)

    def row(*diffs):
        worst = max(float(np.abs(d).max()) for d in diffs)
        return worst == 0, worst

    rows = {}
    for a, b in combinations(range(5), 2):
        rows[f"anticommutator_g{a}_g{b}"] = row(gammas[a] @ gammas[b] + gammas[b] @ gammas[a])
    for a in range(5):
        rows[f"anticommutator_g{a}_g{a}"] = row(2 * gammas[a] @ gammas[a] - 2 * eta[a] * eye)
    g5 = gammas[4] if eps5 == 1 else -J * gammas[4]
    rows["gamma5_product"] = row(gammas[0] @ gammas[1] @ gammas[2] @ gammas[3] + J * g5)
    rows["majorana_imaginary"] = row(*(g.conj() + g for g in gammas[:4]))
    return rows


def _store_rows(eps5):
    rows = [*verify_clifford(eps5), gamma5_product_check(eps5), majorana_imaginary_check(eps5)]
    return {r.name: (r.ok, r.residual) for r in rows}


def _flip_phase(a, r, k):
    """Unit r of g^a times i^k."""
    def store(perms):
        perm = list(perms[a])
        c, p = perm[r]
        perm[r] = (c, (p + k) % 4)
        return (*perms[:a], tuple(perm), *perms[a + 1:])

    def dense(gammas):
        gammas[a][r] *= J ** k
    return store, dense


def _swap_columns(a, r, s):
    """Rows r and s of g^a trade the columns of their units."""
    def store(perms):
        perm = list(perms[a])
        (c, p), (d, q) = perm[r], perm[s]
        perm[r], perm[s] = (d, p), (c, q)
        return (*perms[:a], tuple(perm), *perms[a + 1:])

    def dense(gammas):
        c, d = np.flatnonzero(gammas[a][r])[0], np.flatnonzero(gammas[a][s])[0]
        order = list(range(4))
        order[c], order[d] = d, c
        gammas[a][[r, s]] = gammas[a][[r, s]][:, order]
    return store, dense


def _seeded_tampers(seed, n):
    rng = random.Random(seed)
    for _ in range(n):
        yield _flip_phase(rng.randrange(5), rng.randrange(4), rng.randint(1, 3))
        yield _swap_columns(rng.randrange(5), *rng.sample(range(4), 2))


def _tamper_store(monkeypatch, store):
    true_perms = clifford._gamma_perms
    monkeypatch.setattr(clifford, "_gamma_perms", lambda eps5: store(true_perms(eps5)))


@pytest.mark.parametrize("eps5", [1, -1])
def test_clifford_rows_match_the_dense_oracle(monkeypatch, eps5):
    assert _store_rows(eps5) == _dense_rows(eps5, _dense_gammas(eps5))
    failed = 0
    for store, dense in _seeded_tampers(eps5, 12):
        gammas = _dense_gammas(eps5)
        dense(gammas)
        with monkeypatch.context() as m:
            _tamper_store(m, store)
            got = _store_rows(eps5)
        assert got == _dense_rows(eps5, gammas)
        failed += not all(ok for ok, _ in got.values())
    assert failed == 24  # every tamper breaks some relation


def _turn_g4(perms):
    """g^4 times i: (i g^4)^2 = -eta_44, and it still anticommutes."""
    return (*perms[:4], tuple((c, (p + 1) % 4) for c, p in perms[4]))


def _g1_for_g2(perms):
    """g^2 replaced by g^1: squares and imaginary entries kept."""
    return (*perms[:2], perms[1], *perms[3:])


def _phase_similarity(perms):
    """U g U^-1 with U = diag(i, 1, 1, 1): every relation but the entries'
    imaginarity is kept, and row 0 and column 0 of each g^mu turn real."""
    return tuple(tuple((c, (p + (r == 0) - (c == 0)) % 4) for r, (c, p) in enumerate(perm))
                 for perm in perms)


@pytest.mark.parametrize("eps5", [1, -1])
@pytest.mark.parametrize("store, failing", [
    (_turn_g4, {"anticommutator_g4_g4", "gamma5_product"}),
    (_g1_for_g2, {"anticommutator_g1_g2", "gamma5_product"}),
    (_phase_similarity, {"majorana_imaginary"}),
])
def test_each_relation_kind_fails_on_its_own(monkeypatch, eps5, store, failing):
    _tamper_store(monkeypatch, store)
    rows = _store_rows(eps5)
    assert {name for name, (ok, _) in rows.items() if not ok} == failing


def test_each_clifford_relation_is_its_own_step(monkeypatch):
    # the runner times each step of a family: when the first row arrives,
    # only its own relation has been decided
    gammas = clifford._gamma_perms(1)
    calls = []
    true_product = clifford._perm_product

    def counted(*factors, turn=0):
        # each factor by its gamma index, None for a product
        calls.append(tuple(next((i for i, g in enumerate(gammas) if g is f), None)
                           for f in factors))
        return true_product(*factors, turn=turn)

    monkeypatch.setattr(clifford, "_perm_product", counted)
    rows = checks.cmd_verify_clifford.__wrapped__(checks.RunConfig())
    # the family names its twist before the rows it decides, and decides none
    assert next(rows) == "g4 -> i*g4"
    assert calls == []
    assert next(rows)[0] == "clifford_anticommutator_g0_g0"
    assert calls == [(0, 0)]
    assert next(rows)[0] == "clifford_anticommutator_g0_g1"
    assert calls == [(0, 0), (0, 1), (1, 0)]
    # 13 relations and two product checks
    assert len(list(rows)) == 15


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
    g = exact_gammas(1)
    g03 = g[0] @ g[3]
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
    g = exact_gammas(1)
    expect = (g[0].scale(poly(ExactScalar(Fraction(353, 225))))
              + g[3].scale(poly(ExactScalar(Fraction(272, 225)))))
    assert S_inv @ g[0] @ S == expect
    # spinor boosts are real in this basis and unimodular
    assert S == conjugate(S)
    assert det(S) == poly(1)


def test_vector_boost_preserves_metric():
    for omega in _seeded_generators(5, 20):
        lam = _vector(cayley_boost(omega))
        assert [[sum(lam[c][a] * ETA[c] * lam[c][b] for c in range(4)) for b in range(4)]
                for a in range(4)] == [[ETA[a] * (a == b) for b in range(4)] for a in range(4)]


def test_pairing_residual_random():
    gammas = exact_gammas(1)
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


def _negate_first(matrix):
    """An integer matrix with its first row negated."""
    first, *rest = matrix
    return [[-x for x in first], *rest]


def _tables_with(change):
    def tamper(monkeypatch):
        true_tables = cayley_oracle._tables
        monkeypatch.setattr(cayley_oracle, "_tables", lambda: change(*true_tables()))
    return tamper


# one thing the boost kernel reads, tampered, and the identity that must
# then fail on its own: a wrong R_0 R_1 or G gives a wrong inverse, a wrong
# R_0 a wrong pairing, a Euclidean eta a failed metric, and a wrong g^4 in
# the gammas' store a failed commutator
_CORRUPTIONS = {
    "pairs": (_tables_with(lambda r, pairs, g: (
        r, {**pairs, (0, 1): _negate_first(pairs[0, 1])}, g)), "S^-1 S != I"),
    "g_cols": (_tables_with(lambda r, pairs, g: (r, pairs, _negate_first(g))),
               "S^-1 S != I"),
    "r_entries": (_tables_with(lambda r, pairs, g: ([_negate_first(r[0]), *r[1:]], pairs, g)),
                  "S^-1 g^mu S != Lambda^mu_nu g^nu"),
    "eta": (lambda monkeypatch: monkeypatch.setattr(cayley_oracle, "ETA4_DIAG", (1, 1, 1, 1)),
            "Lambda^T eta Lambda != eta"),
    "g_rows": (lambda monkeypatch: _tamper_store(monkeypatch, _flip_phase(4, 0, 2)[0]),
               "[S, g^4] != 0"),
}


@pytest.mark.parametrize("field", sorted(_CORRUPTIONS))
def test_cayley_identities_fire_on_a_corrupted_table(monkeypatch, field):
    tamper, message = _CORRUPTIONS[field]
    omegas = list(_seeded_generators(42, 5))
    for omega in omegas:  # the true tables pass
        cayley_boost(omega)
    tamper(monkeypatch)
    for omega in omegas:
        with pytest.raises(VerificationError) as info:
            cayley_boost(omega)
        assert str(info.value) == message


def _start_python(code: str) -> subprocess.Popen:
    """A fresh interpreter that runs ``code`` with the package on its path."""
    src = str(Path(ncdirac.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-c", code], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _lines(proc: subprocess.Popen) -> list[str]:
    """The stdout lines of ``proc`` once it exits, which it must with 0."""
    out, err = proc.communicate()
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, proc.args, out, err)
    return out.splitlines()


def _run_python(code: str) -> list[str]:
    return _lines(_start_python(code))


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
        "assert ncdirac.reference_solutions(1, 1, 'heavy').spinor_class == 'Majorana'\n"
        f"{loaded}\n"
    )
    assert out == ["[]", "[1, 0, 0, 0, 2, 0, 0, 0, 0, 1]", "[]", "[]"]


def test_each_command_loads_the_modules_it_runs():
    # every module of the package loads in some golden command: a module
    # that none loads is code only the tests call, and belongs in the
    # tests.  Two load on first use: the fixture format for --fixture, and
    # the scan command with the CSV renderers for scan and --format csv;
    # check all loads every other module and neither of them
    package = Path(ncdirac.__file__).resolve().parent
    modules = {path.stem for path in package.glob("*.py")} - {"__init__", "__main__"}
    loaded = ("print(sorted(m.removeprefix('ncdirac.') for m in sys.modules "
              "if m.startswith('ncdirac.')))")
    runs = {" ".join(argv): _start_python(f"import os\nos.chdir({str(package.parents[1])!r})\n"
                                          f"{_QUIET_MAIN}\nmain({argv!r})\n{loaded}\n")
            for argv, _, _ in COMMANDS}  # each in a fresh interpreter, side by side
    loads = {command: set(ast.literal_eval(*_lines(run))) for command, run in runs.items()}
    assert set().union(*loads.values()) == modules
    assert loads["check all --seed 42"] == modules - {"fixture", "scan"}
    first_use = {"fixture": [command for command in loads if "--fixture" in command],
                 "scan": [command for command in loads
                          if command.startswith("scan ") or "--format csv" in command]}
    for module, commands in first_use.items():
        assert commands, module
        for command in commands:
            assert loads[command] == modules - (first_use.keys() - {module}), command


_LAZY_LAYERS = """
import sys
def loaded():
    print(sorted(m.removeprefix("ncdirac.") for m in sys.modules if m.startswith("ncdirac.")))
import ncdirac
loaded()
print(sorted(set(ncdirac.__all__) - set(dir(ncdirac))), hasattr(ncdirac, "nope"))
from ncdirac import jacobi_residual
loaded()
ncdirac.gamma_sum
loaded()
ncdirac.modes
loaded()
names = {}
exec("from ncdirac import *", names)
print(sorted(set(names) - {"__builtins__"}) == sorted(ncdirac.__all__))
loaded()
print([name for name, home in HOME.items()
       if getattr(ncdirac, name) is not getattr(sys.modules[f"ncdirac.{home}"], name)])
"""


def _defining_modules(names) -> dict:
    """The package module whose top level defines each of ``names``."""
    package = Path(ncdirac.__file__).resolve().parent
    home = {}
    for path in sorted(package.glob("*.py")):
        if path.stem == "__init__":
            continue
        for node in ast.parse(path.read_text()).body:
            for target in node.targets if isinstance(node, ast.Assign) else [node]:
                name = getattr(target, "id", getattr(target, "name", None))
                if name in names:
                    home[name] = path.stem
    return home


def test_import_loads_the_exact_core_and_each_layer_on_first_use():
    # import ncdirac runs scalars and lie_algebra only; a name of an upper
    # layer loads that layer and what it imports when first read, and
    # resolves to the very object its module defines
    home = _defining_modules(set(ncdirac.__all__) - {"__version__"})
    assert set(home) == set(ncdirac.__all__) - {"__version__"}
    core = ["lie_algebra", "scalars"]
    assert _run_python(f"HOME = {home!r}\n{_LAZY_LAYERS}") == [
        repr(core),
        "[] False",
        repr(core),
        repr(["clifford", "lie_algebra", "matrices", "scalars"]),
        repr(["clifford", "lie_algebra", "matrices", "modes", "scalars"]),
        "True",
        repr(["clifford", "enveloping", "lie_algebra", "matrices", "modes", "scalars",
              "seesaw", "weyl"]),
        "[]",
    ]


_TABLE_ROUND = """
import sys
import ncdirac
from ncdirac import (StructureConstants, build_deformed_algebra, contract, jacobi_residual,
                     solve_isomorphism_scalings, verify_linear_isomorphism)
table = StructureConstants.from_json(build_deformed_algebra(1, -1).to_json())
jacobi_residual(table)
verify_linear_isomorphism(solve_isomorphism_scalings(1, 1).map)
jacobi_residual(contract(table, rho_to_zero=True))
jacobi_residual(contract(table, ell_to_zero=True))
print(sorted(m.removeprefix("ncdirac.") for m in sys.modules if m.startswith("ncdirac.")))
print(sorted(name for core in (ncdirac.scalars, ncdirac.lie_algebra) for name in vars(core)
             if name in {"QuadraticScalar", "exact_sqrt", "rounded", "LinearCombination"}))
"""


def test_a_table_round_compiles_only_the_exact_core_and_the_fixture_format():
    # reading a table and deciding Jacobi, the isomorphism and the
    # contractions load scalars, lie_algebra and fixture alone, and neither
    # core module holds the surds of modes or the LinearCombination of weyl
    assert _run_python(_TABLE_ROUND) == [repr(["fixture", "lie_algebra", "scalars"]), "[]"]


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
from ncdirac import clifford
from ncdirac.cli import main
from ncdirac.modes import dirac_matrix, operator_residual

true_perms = clifford._gamma_perms


def tampered(eps5):
    *gammas, ((c, p), *rest) = true_perms(eps5)
    return (*gammas, ((c, (p + 2) % 4), *rest))


clifford._gamma_perms = tampered
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = main(["verify", "clifford"])
rows = json.loads(buf.getvalue())["reports"]
print(json.dumps([code, {r["check"]: [r["status"], r["residual"]] for r in rows}]))
print(repr(operator_residual(dirac_matrix(1, (1, 0, 0, 1), 1), (1, 0, 0, 0))))
"""


def test_failing_relation_reports_without_numpy():
    # the unit in row 0 of g^4 negated in the store, numpy blocked: the
    # failing rows are sized from the exact entries, and the run exits 1
    # with no traceback
    src = str(Path(ncdirac.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _TAMPERED_G4], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0 and "Traceback" not in done.stderr, done.stderr
    report, size = done.stdout.splitlines()
    code, rows = json.loads(report)
    assert code == 1
    # the tampered g^4 is D g4 with D = diag(-1, 1, 1, 1), and g4 E00 g4 =
    # E11: (D g4)^2 = diag(-1, -1, 1, 1) misses I by 2 twice, so {g4, g4}
    # is 4 off; {g^mu, D g4} = -2 (g^mu E00 g4 + E00 g4 g^mu)
    # is 2 off but for the diagonal g3, where the two terms cancel; and
    # g0 g1 g2 g3 - (-i gamma5) = -i g4 + i D g4 = -2i E00 g4
    assert {check: row for check, row in rows.items() if row[0] == "fail"} == {
        "clifford_anticommutator_g0_g4": ["fail", "2"],
        "clifford_anticommutator_g1_g4": ["fail", "2"],
        "clifford_anticommutator_g2_g4": ["fail", "2"],
        "clifford_anticommutator_g4_g4": ["fail", "4"],
        "clifford_gamma5_product": ["fail", "2"],
    }
    assert rows["clifford_anticommutator_g3_g4"] == ["pass", "0"]
    # the residual of a non-solution is rounded once from exact norms:
    # D(k) e_0 = (-i, 0, 0, i) at k = (1, 0, 0, 1), where k^2 = 0 leaves
    # g^4 out
    assert float(size) == np.sqrt(2.0)


def _is_real(basis) -> bool:
    return all(x == x.conjugate() for vec in basis for x in vec)


def _with_kernel(span):
    """An operator whose kernel is the span of ``span``: the rows of the
    annihilator of the span, whose own annihilator it is."""
    return ExactMatrix(ExactMatrix(span).kernel())


_PAIRED = [(1, 0, I, 0), (0, 1, 0, I)]
_MIXED = [  # 3 a - 5 b and (2 + i) a + (1 - i) b of the paired a, b
    (3, -5, 3 * I, -5 * I),
    (2 + I, 1 - I, -1 + 2 * I, 1 + I),
]


@pytest.mark.parametrize("span, cls", [
    ([(1, 1, 0, 0), (0, 0, 1, -1)], "Majorana"),  # real
    ([(I, I, 0, 0), (0, 0, I, -I)], "Majorana"),  # i times real: the same span
    ([(1, I, 0, 0), (1, -I, 0, 0)], "Majorana"),  # a vector and its conjugate
    (_PAIRED, "Dirac"),                           # paired +-i blocks
    (_MIXED, "Dirac"),                            # the same span
])
def test_a_kernel_class_is_a_property_of_its_span(span, cls):
    assert modes.spinor_kernel(_with_kernel(span), (0, 0, 0, 0), 1)[1] == cls


@pytest.mark.parametrize("rows, closed", [
    ([[1, 0], [0, 1]], True),           # the full span: an empty kernel
    ([[0, 0, 0]], True),                # no span: the whole space is the kernel
    ([[1, I]], False),
    ([[I, I]], True),                   # i times a real row
    ([[1, I, 0], [1, -I, 0]], True),    # a row with its conjugate
    ([[1, I, 0], [0, 0, 1]], False),
])
def test_the_kernel_of_rows_is_real_when_their_span_is_closed(rows, closed):
    assert _is_real(ExactMatrix(rows).kernel()) is closed


def _seeded_subspaces(rng, scalar, shape=None):
    """Row lists of three kinds: random rows (rarely closed), random
    combinations of real rows, and rows next to their conjugates (both
    closed, though no row need be real).  ``scalar(real)`` draws a field
    element, real or not; ``shape`` fixes (columns, rows), else both are
    drawn (a paired list has two rows)."""
    for _ in range(40):
        if shape:
            ncols, k = shape
        else:
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


def _gaussian_scalar(rng):
    """``scalar(real)`` for ``_seeded_subspaces``: small Gaussian rationals."""
    def scalar(real):
        im = 0 if real else Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        return ExactScalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), im)
    return scalar


def test_the_kernel_basis_is_real_exactly_when_the_span_is_closed():
    # the rows' span and their kernel annihilate each other, and conjugation
    # carries the pair to the conjugate pair: the two are closed together,
    # and the stacked rank decides it without the kernel
    rng = random.Random("conjugation_closed:Q(i)")
    verdicts = {}
    for kind, rows in _seeded_subspaces(rng, _gaussian_scalar(rng)):
        want = stacked_rank_closed(rows)
        assert _is_real(ExactMatrix(rows).kernel()) is want
        verdicts.setdefault(kind, set()).add(want)
    assert verdicts["real span"] == verdicts["paired"] == {True}
    assert False in verdicts["random"]


def test_spinor_kernel_classes_seeded_rank_two_operators():
    # a 4x2 mixing of two seeded rows: the operator's rows span what they
    # do, and its kernel is two-dimensional whenever both have rank 2
    rng = random.Random("spinor_kernel:Q(i)")
    scalar = _gaussian_scalar(rng)
    classes = []
    for _, rows in _seeded_subspaces(rng, scalar, shape=(4, 2)):
        op = ExactMatrix([[scalar(False) for _ in range(2)] for _ in range(4)]) @ ExactMatrix(rows)
        try:
            basis, cls = modes.spinor_kernel(op, (0, 0, 0, 0), 1)
        except VerificationError:
            continue  # rank below 2
        want = "Majorana" if stacked_rank_closed(basis) else "Dirac"
        assert cls == want
        assert stacked_rank_closed(op.scalar_entries()) is (want == "Majorana")
        classes.append(cls)
    assert len(classes) >= 30 and set(classes) == {"Majorana", "Dirac"}
