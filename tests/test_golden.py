"""Byte-for-byte pins of the exact engine's reports.

The ``verify algebra`` files were written by the combo-of-ParamPoly
bracket engine that the flat bracket kernel replaced; the ``verify rep``,
``verify clifford`` and ``verify planewave`` files by the engine that
rebuilt every gamma and structure-constant table per call, formed Weyl
commutators as ``(a@b) - (b@a)`` and summed ``g.k`` by matrix adds and
scales.  ``seesaw_default.json`` and the CSV rendering of ``verify rep``
were written by the engine whose commands each kept their own report list
and timers, before one runner drove every check family.
``check_all_seed42.json`` and the planewave file were written once the
plane-wave lemma, the boost covariance and the seesaw reality classes ran
in exact arithmetic.  Each was written with the command below, run from
the repository root.  The reports carry no timings, and every value is
exact but the seesaw masses and deviations, which ``math`` computes from
exact roots, with no BLAS involved.  Change a golden file only together
with a report change that is meant.  CI runs the same commands with
``tests/golden/compare.sh``, which compares with ``cmp``, with and without
numpy installed.

``tampered_deformed_fixture.json`` is the deformed table for
(eps4, eps5) = (1, -1) with generator a rescaled by (-1)^a (a+2)/(2a+1),
and (1/3 - 2/5 i) l rho added to the M01 coefficient of [x0, x1].
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ncdirac.cli import main

GOLDEN = Path(__file__).parent / "golden"
FIXTURE = "tests/golden/tampered_deformed_fixture.json"


@pytest.mark.parametrize("argv,golden,code", [
    (["verify", "algebra", "--all-signs"], "verify_algebra_all_signs.json", 0),
    (["verify", "algebra", "--eps4", "1", "--eps5", "-1", "--fixture", FIXTURE],
     "verify_algebra_tampered_fixture.json", 1),
    (["verify", "rep", "--all-signs"], "verify_rep_all_signs.json", 0),
    (["verify", "clifford", "--all-signs"], "verify_clifford_all_signs.json", 0),
    (["verify", "planewave", "--all-signs"], "verify_planewave_all_signs.json", 0),
    (["verify", "rep", "--all-signs", "--format", "csv"], "verify_rep_all_signs.csv", 0),
    (["seesaw"], "seesaw_default.json", 0),
    (["check", "all", "--seed", "42"], "check_all_seed42.json", 0),
])
def test_exact_report_matches_golden(monkeypatch, capsys, argv, golden, code):
    # the fixture path is part of the report, so run where CI runs
    monkeypatch.chdir(GOLDEN.parent.parent)
    assert main(argv) == code
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / golden).read_bytes()


# (argv, exit code, golden file or None for the same command with numpy)
NUMPY_FREE = [
    (["check", "all", "--seed", "42"], 0, "check_all_seed42.json"),
    (["verify", "planewave", "--all-signs"], 0, "verify_planewave_all_signs.json"),
    (["modes"], 0, None),
    (["seesaw"], 0, "seesaw_default.json"),
    (["scan", "--param", "vev", "--from", "1/2", "--to", "2", "--steps", "4",
      "--eps5", "1"], 1, None),
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
    for (argv, code, golden), (got, text) in zip(NUMPY_FREE, json.loads(done.stdout)):
        assert got == code, argv
        if golden:
            assert text.encode() == (GOLDEN / golden).read_bytes(), argv
        else:
            assert main(argv) == code
            assert text == capsys.readouterr().out, argv
