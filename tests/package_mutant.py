"""One source edit in a copy of the package, run as a command in a fresh
interpreter: a mutant that must fail the rows that read what it edits."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from ncdirac import checks

PACKAGE = Path(checks.__file__).parent


def mutant_report(tmp_path, module: str, old: str, new: str, *argv) -> dict:
    """The JSON report of ``python -m ncdirac *argv`` run on a copy of the
    package in ``tmp_path`` whose file ``module`` has its one ``old``
    replaced by ``new``.  The run must exit 1."""
    mutant = tmp_path / "ncdirac"
    shutil.copytree(PACKAGE, mutant, ignore=shutil.ignore_patterns("__pycache__"))
    source = (mutant / module).read_text()
    assert source.count(old) == 1, old
    (mutant / module).write_text(source.replace(old, new))
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    done = subprocess.run([sys.executable, "-m", "ncdirac", *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 1, done.stderr
    return json.loads(done.stdout)


def failed(report: dict) -> set:
    """(check, eps5) of each failed row of ``report``."""
    return {(r["check"], r["params"]["eps5"]) for r in report["reports"] if r["status"] == "fail"}


def failed_rows(tmp_path, module: str, old: str, new: str, *argv) -> set:
    """(check, eps5) of each failed row of ``mutant_report``."""
    return failed(mutant_report(tmp_path, module, old, new, *argv))
