"""Byte-for-byte pins of the exact engine's reports.

The ``verify algebra`` files were written by the combo-of-ParamPoly
bracket engine that the flat bracket kernel replaced; the ``verify rep``,
``verify clifford`` and ``verify planewave`` files by the engine that
rebuilt every gamma and structure-constant table per call, formed Weyl
commutators as ``(a@b) - (b@a)`` and summed ``g.k`` by matrix adds and
scales.  ``seesaw_default.json`` and the CSV rendering of ``verify rep``
were written by the engine whose commands each kept their own report list
and timers, before one runner drove every check family.  Each was written
with the command below, run from the repository root.  The reports carry
no timings, and all but two kinds of value are exact: the planewave
report's ``planewave_lemma_numeric`` rows hold a float roundoff residual
of a 13x13 complex matrix model (1.63e-16), which a different BLAS build
could round otherwise, and the seesaw report's floats come from ``math``
on exact roots, not from BLAS.  Change a golden file only together with a
report change that is meant.  CI runs the same commands and compares with
``cmp``.

``tampered_deformed_fixture.json`` is the deformed table for
(eps4, eps5) = (1, -1) with generator a rescaled by (-1)^a (a+2)/(2a+1),
and (1/3 - 2/5 i) l rho added to the M01 coefficient of [x0, x1].
"""

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
])
def test_exact_report_matches_golden(monkeypatch, capsys, argv, golden, code):
    # the fixture path is part of the report, so run where CI runs
    monkeypatch.chdir(GOLDEN.parent.parent)
    assert main(argv) == code
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / golden).read_bytes()
