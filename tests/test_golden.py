"""Byte-for-byte pins of the exact engine's reports.

``check_all_seed42.json`` is the one golden report of the check families:
every row of every family, once.  A command that runs one family (``verify
algebra|rep|clifford|planewave``, ``modes``, ``seesaw``) prints a view of
it, and ``test_a_view_prints_its_rows_of_check_all`` checks seven views
byte for byte, with their exit codes, against documents rebuilt from it:
the rows of the view's family, named here by a table of check-name
prefixes, at the settings its flags set, and the rows that run once
(``ONCE``) whatever the flags; the check all ``config`` restricted to the
settings the view reads (``checks.READS``), with its flags on top; and the
``summary`` counted from those rows.  The CSV view of ``verify rep`` is
``check_all.csv``'s header and its ``rep_*`` lines.  Seven golden files
of views went when that test replaced them:
``verify_algebra_all_signs.json``, ``verify_rep_all_signs.json`` and its
CSV, ``verify_clifford_all_signs.json``,
``verify_planewave_all_signs.json``, ``modes_eps5_minus.json`` and
``seesaw_default.json``; the test rebuilt each of them byte for byte.
``commands.txt`` lists only reports that hold a row check all does not,
and ``test_every_listed_golden_holds_a_row_check_all_does_not`` keeps it
so.

``verify_algebra_tampered_fixture.json`` was written by the
combo-of-ParamPoly bracket engine that the flat bracket kernel replaced.
``check_all_seed42.json`` was written once the plane-wave lemma, the boost
covariance and the seesaw reality classes ran in exact arithmetic.
``check_all.csv``, the CSV rendering of every family's rows, was written
by the engine that built each row through one ``CheckReport`` constructor
and sized a failing Clifford relation on the gammas' phased permutations;
it pins the CSV of every family's rows, and reads the same under
``PYTHONHASHSEED`` 0, 1 and 7.  Each was written with its command in
``tests/golden/commands.txt``, the one list of the commands and their exit
codes, run from the repository root.  The reports carry no timings, and
every value is exact but the seesaw masses and deviations, which are exact
values rounded once to a float, with no BLAS involved.  Change a golden
file only together with a report change that is meant.  CI runs the same
list with ``tests/golden/compare.sh``, which compares with ``cmp``, with and
without numpy installed, and runs this file under ``PYTHONHASHSEED`` 0 and
1.

``tampered_deformed_fixture.json`` is the deformed table for
(eps4, eps5) = (1, -1) with generator a rescaled by (-1)^a (a+2)/(2a+1),
and (1/3 - 2/5 i) l rho added to the M01 coefficient of [x0, x1].

``rescaled_tampered_fixture.json`` is a table as the ``algebra-fixtures``
benchmark draws them: the deformed table for (1, 1) with each generator
rescaled by a rational of up to 9 digits over 9 digits
(``perfbench/workloads.py`` ``rescale_table`` and ``tamper_table`` with
``random.Random("rescaled-tampered-fixture")``), and the P2 coefficient of
[M02, P0] doubled.  Its report, ``verify_algebra_rescaled_fixture.json``,
was written by the flat kernel that paired ExactScalars over all 455
triples, before the integer sparse-join kernel replaced it; the residual
it pins is a rational of 31 digits over 32.

``scan_vev_eps5_plus.json`` and its CSV rendering sweep the condensate
over 1/2, 1, 3/2, 2 at eps5 = +1: one ok row, one at the critical coupling
delta = 0, whose light root is the heavy one (fail, with the reason in its
``error`` column), and two overcritical error rows, so the run exits 1.
They pin the scan path and the seesaw spectrum and classes, and were
written by the engine whose ``clifford`` kept dense gamma literals and
whose ``cayley`` read them as signed permutations.

Every JSON report was rewritten once when the plane-wave truncation order
left the command line: that dropped the ``order`` key from each
``config``, and from each ``planewave_*`` row its ``order`` parameter and
its ``min_ell_degree`` detail, and named the critical-coupling reason in
the scan.  Nothing else in them changed.  Every JSON report but
``check_all_seed42.json`` was rewritten once more when each command came to
echo in its ``config`` only the format and the settings its rows read
(``checks.READS``); nothing but the ``config`` changed.  The eps5 = +1
``seesaw_spectrum`` ``heavy_k2`` of ``check_all_seed42.json`` was rewritten
once, from -3.99979999749987 to -3.99979999749988, when the spectrum came
to be rounded once from one exact square root; the exact value is
-3.99979999749987499218...  ``check_all_seed42.json`` and
``check_all.csv`` were rewritten once when the ``planewave_lemma`` relation
came to read "on a nilpotent model", not "on a nilpotent matrix model":
the model acts on polynomials in the symbol ``m`` and forms no matrix.
Nothing else in them changed.

Eight files were rewritten once when every row that another row of the
same report already decides left the report; five of them remain:
``check_all_seed42.json``, ``check_all.csv``, the two ``verify_algebra_*``
fixture reports and ``demo_04.txt``.  The rows that went are
``clifford_square_g0`` to ``clifford_square_g4``, which decide what the
``clifford_anticommutator`` row of the same gamma decides; ``planewave_centrality``, which follows from
``planewave_momentum``'s scalar ``[p_mu, A] = k_mu``; and
``jacobi_orthogonal``, which follows from ``isomorphism`` and
``jacobi_deformed``.  The ``contraction`` rows no longer re-run Jacobi on
the two limits, a substitution that keeps the identity: their relation
lost "Jacobi survives both limits", their ``residual`` became null and
their two ``jacobi_violations_*`` details went.  ``demo_04.txt`` counts 15
relations per signature, not 20.  Nothing else in them changed.

Four files were rewritten once when each identity that holds at every
sign came to be decided once, at eps5 = 1 (eps4 = eps5 = 1 for the
algebra), and carried to the other signs by a continuation row:
``check_all_seed42.json``, ``check_all.csv`` and the two
``verify_algebra_*`` fixture reports.  The report went from 92 rows to
57: 39 rows at the other signs went (``jacobi_deformed`` and
``contraction`` at three sign pairs; ``rep_closure_*``, ``clifford_*``,
``planewave_*``, ``dispersion_identity``, ``modes_scaling`` and
``modes_lorentz_generators`` at eps5 = -1), and ``rep_continuation``,
``clifford_continuation``, ``planewave_continuation`` and
``modes_continuation`` came.  Each row that stays kept its status,
residual and details; the carried rows' relations name what carries them.
The fixture reports' ``jacobi_deformed`` and ``contraction`` rows run at
(1, 1), whatever the flags.  ``isomorphism``, ``dispersion_roots``,
``modes_reference_*`` and every ``seesaw_*`` row stay per sign, and no
demo changed.

``check_all_seed42.json`` and ``check_all.csv`` were rewritten once more
when the eps5 = -1 data came to be built only as the twist of the +1
data, so that no continuation row had a typed copy left to compare: the
four ``*_continuation`` rows went (57 rows to 53), and each carried row's
relation names the twist that carries it instead of its continuation
row.  Nothing else in them changed.

Four files were rewritten once more when the last two row kinds whose
data does not depend on the sign came to be decided once:
``check_all_seed42.json``, ``check_all.csv`` and the two
``verify_algebra_*`` fixture reports.  ``isomorphism`` runs at (1, 1)
only, where the map (r, l, -r*l) is a homomorphism at every pair when it
is one there, and ``modes_reference_massless`` at eps5 = 1 only, where
k^2 = 0 drops the g^4 term of D(k) (53 rows to 49).  Their relations name
the twists that carry them, the fixture reports' ``isomorphism`` row ran
at (1, -1) before, and no ``config`` holds ``eps4`` any more, since no
command reads it; the fixture reports were written by ``verify algebra
--fixture``, which takes no sign.  Nothing else in them changed.

``demo_04.txt`` pins the Clifford relations of ``verify_clifford``, the
counts of the generator proof ``modes.lorentz_covariance`` and the generator
``L_03`` read off the flat table; ``demo_05.txt`` the dispersion branches,
the reference nullspaces and their exact residuals.  They were rewritten
once when the Cayley boosts left the package for the tests' oracle, and
no demo printed a boost any more.

``demo_02.txt`` pins the differential operators and their closure
counts, which read the same under ``PYTHONHASHSEED`` 0 and 1; it was
written by the engine whose plane-wave rows passed on a zero remainder
only, before the seesaw spectrum was rounded from one exact square root.

``seesaw_complex_g_eps5_minus.json`` pins an example of the README:
``seesaw`` with a complex ``--g``, which no other golden command passes
(the README's ``modes --eps5 -1`` is one of the views).  It was written by
the engine whose ``checks`` typed the heavy branch ``-4 eps5 / l^2``
itself, before ``modes`` held the heavy mass, frame and class.

Every modes and seesaw report was rewritten once when ``modes_scaling``
came to prove ``s D(k; s l) = D(s k; l)``: ``dispersion_sweep`` gave way
to ``modes_scaling``, ``dispersion_roots`` and ``modes_reference_*`` lost
their ``ell`` parameter and run at ``l = 2``, with relations that say so,
and ``modes`` lost ``--ell``.  ``seesaw_leading``, which could not fail,
went too, and its ``mass`` and ``k2`` joined the ``seesaw_effective``
details: ``check_all_seed42.json``, ``check_all.csv`` and the ``seesaw``
files changed in those rows and the counts.  In the same change
``scan_vev_eps5_plus.json`` came to echo its swept range (``param``,
``from``, ``to``, ``steps``) in its ``config`` in place of the base
``vev``; its rows and its CSV did not change.

Every file in this folder is a golden of ``commands.txt``, a demo's
golden, or an input a listed command reads; the list, ``commands.txt``,
and its runner ``compare.sh`` are two others.  The last, ``usage.json``,
pins the help and usage text: ``--help`` for the program and each verb,
an empty command line, an unknown verb, a missing target, a refused flag
value, a flag the target does not read and an unrecognized argument.  It
was written under Python 3.11 by the parser that registered every verb
for every command, before a command came to build only the verb it names.

``seesaw_from_config.json`` is the report of ``seesaw --config
tests/golden/seesaw_config.json``, the one golden command that reads its
settings from a ``--config`` file: eps5 = +1, ``ell`` 1/2, the complex
coupling ``g`` 3/5 - 4/5 i and ``vev`` 1/50, each a string or int as a
config file writes it.  It was written by the engine whose plane-wave lemma
ran at one fixed point on coefficient lists.

``demo_01.txt`` pins the contractions and the isomorphism signs, and
``demo_06.txt`` the seesaw deviations and reality classes.  They were
written by the engine that substituted tables coefficient by coefficient
through ``ParamPoly`` and took the seesaw certificate as a dense 8x8
determinant.

``demo_03.txt`` pins the ``Cinv`` rewrite, every plane-wave remainder, the
vacuum scalar and the lemma residuals.  It was written by the engine that
normal-ordered both ``a*b`` and ``b*a`` for each plane-wave commutator and
summed the lemma model one addition at a time.  Its two lemma lines were
relabelled once, from "degree-12 nilpotent model" to "nilpotent model, l
and k symbolic", when the model left its degree-12 coefficient lists for
``ParamPoly``; the residuals did not change.
"""

import json
import os
import runpy
import subprocess
import sys

import pytest
from golden_commands import COMMANDS, GOLDEN

from ncdirac import checks, cli
from ncdirac.cli import main

SCAN_VEV = ["scan", "--param", "vev", "--from", "1/2", "--to", "2", "--steps", "4",
            "--eps5", "1"]


@pytest.mark.parametrize("argv,golden,code", COMMANDS)
def test_exact_report_matches_golden(monkeypatch, capsys, argv, golden, code):
    # the fixture path is part of the report, so run where CI runs
    monkeypatch.chdir(GOLDEN.parent.parent)
    assert main(argv) == code
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / golden).read_bytes()


def test_timings_change_nothing_but_the_durations(capsys):
    assert main(["check", "all", "--seed", "42", "--timings"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(r["duration_ms"] is not None for r in doc["reports"])
    for r in doc["reports"]:
        r["duration_ms"] = None
    assert doc == json.loads((GOLDEN / "check_all_seed42.json").read_text())


# the help and usage text of the command line: per run its argv, exit code,
# stdout and stderr, written at COLUMNS=80 on the Python named in "python"
# by the parser that registered every verb for every command
USAGE = json.loads((GOLDEN / "usage.json").read_text())


@pytest.mark.parametrize("run", USAGE["runs"], ids=lambda run: " ".join(run["argv"]) or "none")
def test_help_and_usage_text_match_their_goldens(monkeypatch, capsys, run):
    # the parser registers only the verb the command names, and reads as
    # one with every verb.  argparse words some messages differently from
    # one Python to the next, so the golden bytes are compared on the
    # Python that wrote them, and the two parsers on every Python
    monkeypatch.setenv("COLUMNS", "80")

    def text():
        code = main(list(run["argv"]))
        return code, *capsys.readouterr()

    got = text()
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv: build(()))
    assert text() == got
    if list(sys.version_info[:2]) == USAGE["python"]:
        assert got == (run["exit"], run["stdout"], run["stderr"])


CHECK_ALL = (GOLDEN / "check_all_seed42.json").read_text()
CHECK_ALL_CSV = (GOLDEN / "check_all.csv").read_text()

# The views of check all: (command, the check-name prefixes of its family's
# rows, the settings its flags set, its format).  The family's rows are
# named here, not asked of the engine.  The CSV view sets no flag.
VIEWS = [
    ("verify algebra", ("jacobi_", "isomorphism", "contraction"), {}, "json"),
    ("verify rep", ("rep_",), {}, "json"),
    ("verify rep", ("rep_",), {}, "csv"),
    ("verify clifford", ("clifford_",), {}, "json"),
    ("verify planewave", ("planewave_",), {}, "json"),
    ("modes", ("dispersion_", "modes_"), {"eps5": -1}, "json"),
    ("seesaw", ("seesaw_",), {}, "json"),
]


def _argv(view) -> list:
    command, _, flags, fmt = view
    argv = [*command.split(), *(arg for name, value in flags.items()
                                for arg in (f"--{name}", str(value)))]
    return argv + ["--format", "csv"] if fmt == "csv" else argv


VIEW_IDS = [" ".join(_argv(view)) for view in VIEWS]


# The rows that run once, whatever the flags: each identity decided at
# eps5 = 1 (eps4 = eps5 = 1 for the algebra).  A view holds them with the
# params they ran at.
ONCE = ("jacobi_deformed", "contraction", "isomorphism", "rep_", "clifford_", "planewave_",
        "dispersion_identity", "modes_scaling", "modes_lorentz_generators",
        "modes_reference_massless")


def _rows(view, report: dict) -> list:
    """The rows of ``report``, a check all document, of the view's family
    at the settings its flags set, in their order: each row that runs
    once, and each other row whose params match the flags."""
    _, prefixes, flags, _ = view
    return [row for row in report["reports"] if row["check"].startswith(prefixes)
            and (row["check"].startswith(ONCE)
                 or all(row["params"][name] == value for name, value in flags.items()))]


def _expected(view, check_all: str = CHECK_ALL, check_all_csv: str = CHECK_ALL_CSV):
    """(exit code, stdout) of ``view``, rebuilt from the text of the check
    all report and of its CSV rendering."""
    command, prefixes, flags, fmt = view
    report = json.loads(check_all)
    rows = _rows(view, report)
    passed = sum(row["status"] == "pass" for row in rows)
    code = 0 if passed == len(rows) else 1
    if fmt == "csv":
        header, *lines = check_all_csv.splitlines(keepends=True)
        return code, header + "".join(line for line in lines if line.startswith(prefixes))
    config = {name: value for name, value in report["config"].items()
              if name == "format" or name in checks.READS[command]}
    document = {
        "config": {**config, **flags},
        "reports": rows,
        "summary": {"total": len(rows), "passed": passed, "failed": len(rows) - passed},
    }
    return code, json.dumps(document, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("view", VIEWS, ids=VIEW_IDS)
def test_a_view_prints_its_rows_of_check_all(capsys, view):
    code = main(_argv(view))
    assert (code, capsys.readouterr().out) == _expected(view)


def _tampered(view, how: str) -> tuple:
    """The check all report and CSV texts with the first row of the view's
    family edited: its status flipped, or a detail (in the CSV, the
    residual) changed."""
    report = json.loads(CHECK_ALL)
    row = _rows(view, report)[0]
    if how == "status":
        row["status"] = "fail"
    else:
        row["details"]["tampered"] = True
    header, *lines = CHECK_ALL_CSV.splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if line.startswith(view[1]))
    check, params, status, residual, rest = lines[at].split(",", 4)
    lines[at] = ",".join([check, params, "fail", residual, rest] if how == "status"
                         else [check, params, status, "7", rest])
    return json.dumps(report), header + "".join(lines)


@pytest.mark.parametrize("how", ["status", "detail"])
@pytest.mark.parametrize("view", VIEWS, ids=VIEW_IDS)
def test_a_tampered_row_of_the_family_fails_the_view(capsys, view, how):
    code = main(_argv(view))
    assert (code, capsys.readouterr().out) != _expected(view, *_tampered(view, how))


@pytest.mark.parametrize("view", VIEWS, ids=VIEW_IDS)
def test_a_view_that_drops_its_last_row_fails(monkeypatch, capsys, view):
    # checks.command looks the function up when called, so the patch runs
    run = checks.command(view[0])
    monkeypatch.setattr(checks, run.__name__, lambda cfg: run(cfg)[:-1])
    code = main(_argv(view))
    assert (code, capsys.readouterr().out) != _expected(view)


def test_each_check_is_in_one_family_and_check_all_keeps_the_report_order():
    # check all merges the sorted family lists on the check name alone,
    # which is the report order only while no check name is in two families
    cfg = checks.RunConfig()
    owners = {}
    for command, _ in checks.FAMILIES.values():
        for report in checks.command(command)(cfg):
            owners.setdefault(report.check, set()).add(command)
    assert {check: names for check, names in owners.items() if len(names) > 1} == {}
    keys = [checks._order(report) for report in checks.cmd_check_all(cfg)]
    assert keys == sorted(keys) and len(keys) == 49


def _golden_rows(path) -> set:
    """The rows of the golden report at ``path``: a CSV's lines but its
    header, a JSON report's rows as sorted JSON."""
    text = path.read_text()
    if path.suffix == ".csv":
        return set(text.splitlines()[1:])
    document = json.loads(text)
    return {json.dumps(row, sort_keys=True)
            for row in document.get("reports", document.get("rows"))}


def test_every_listed_golden_holds_a_row_check_all_does_not():
    # a report of rows check all holds is a view, checked above
    whole = _golden_rows(GOLDEN / "check_all_seed42.json") | _golden_rows(
        GOLDEN / "check_all.csv")
    views = [golden for _, golden, _ in COMMANDS if not golden.startswith("check_all")
             and _golden_rows(GOLDEN / golden) <= whole]
    assert not views


DEMOS = GOLDEN.parent.parent / "demos"
DEMO_GOLDENS = {f"demo_{path.stem.split('_')[0]}.txt" for path in DEMOS.glob("*.py")}


def test_every_golden_file_is_read():
    # a golden replaced in commands.txt must not linger beside its successor
    listed = {golden for _, golden, _ in COMMANDS}
    inputs = {arg.rpartition("/")[2] for argv, _, _ in COMMANDS for arg in argv
              if arg.startswith("tests/golden/")}
    tooling = {"commands.txt", "compare.sh"}
    pinned_here = {"usage.json"}  # test_help_and_usage_text_match_their_goldens reads it
    stray = ({path.name for path in GOLDEN.iterdir()} - listed - inputs - DEMO_GOLDENS
             - tooling - pinned_here)
    assert not stray, sorted(stray)


@pytest.mark.parametrize("demo", sorted(path.stem for path in DEMOS.glob("*.py")))
def test_demo_output_matches_golden(capsys, demo):
    runpy.run_path(str(DEMOS / f"{demo}.py"), run_name="__main__")
    golden = GOLDEN / f"demo_{demo.split('_')[0]}.txt"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


# (argv, exit code, stdout or None for the same command with numpy)
NUMPY_FREE = [
    (["check", "all", "--seed", "42"], 0, CHECK_ALL),
    (["modes"], 0, None),
    (SCAN_VEV, 1, (GOLDEN / "scan_vev_eps5_plus.json").read_text()),
    *((_argv(view), *_expected(view)) for view in VIEWS),
]


def test_commands_run_without_numpy(capsys):
    # numpy is blocked in a fresh interpreter, so importing it would raise
    argvs = [argv for argv, _, _ in NUMPY_FREE]
    script = (
        "import contextlib, io, json, sys\n"
        "sys.modules['numpy'] = None\n"
        "from ncdirac.cli import main\n"
        "out = []\n"
        f"for argv in {argvs!r}:\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        code = main(argv)\n"
        "    out.append([code, buf.getvalue()])\n"
        "print(json.dumps(out))\n"
    )
    root = GOLDEN.parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], cwd=root, env=env,
                          capture_output=True, text=True, check=True)
    for (argv, code, expected), (got, text) in zip(NUMPY_FREE, json.loads(done.stdout)):
        assert got == code, argv
        if expected is not None:
            assert text == expected, argv
        else:
            assert main(argv) == code
            assert text == capsys.readouterr().out, argv
