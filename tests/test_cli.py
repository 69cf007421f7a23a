"""Command line behavior: exit codes, formats, config files (determinism
of `check all` is acceptance criterion 11)."""

import copy
import json
import math
import os
import subprocess
import sys
from itertools import chain
from pathlib import Path
from types import SimpleNamespace

import pytest
from package_mutant import failed, mutant_report

from ncdirac import checks, enveloping, seesaw, weyl
from ncdirac.cli import main
from ncdirac.lie_algebra import build_deformed_algebra


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_algebra_single_pair(capsys):
    code, out = run(capsys, "verify", "algebra")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["failed"] == 0
    # Jacobi, the limits and the isomorphism each run once, at (1, 1)
    assert sorted((r["check"], r["params"]["eps4"], r["params"]["eps5"])
                  for r in doc["reports"]) == [
        ("contraction", 1, 1), ("isomorphism", 1, 1), ("jacobi_deformed", 1, 1)]


def test_all_signs_sweep(capsys):
    # no sign flag sweeps every sign, so modes takes no --all-signs
    code, out = run(capsys, "modes")
    assert code == 0
    doc = json.loads(out)
    # 4 rows once, and dispersion_roots and modes_reference_heavy per sign
    assert doc["summary"]["total"] == 8
    assert main(["modes", "--all-signs"]) == 2


def test_invalid_sign_is_usage_error(capsys):
    code, _ = run(capsys, "modes", "--eps5", "0")
    assert code == 2


def test_a_config_sign_that_is_no_sign_names_its_key(tmp_path, capsys):
    # the sign is checked by lie_algebra.quarter, the package's one sign check
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"eps5": 2}))
    assert main(["modes", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "ncdirac: error: eps5 must be +1 or -1\n"


def test_invalid_coupling_is_usage_error(capsys):
    code, _ = run(capsys, "seesaw", "--g", "nonsense")
    assert code == 2


@pytest.mark.parametrize("flag", [["--ell=-1/2"], ["--ell", "-1/2"]], ids=["joined", "split"])
def test_negative_ell_is_usage_error(capsys, flag):
    code = main(["seesaw", *flag])
    assert code == 2
    assert "ell must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("joined", [
    ["seesaw", "--g=-1/2", "--eps5", "1"],
    ["seesaw", "--g=-1/2+1i", "--eps5", "1"],
    ["seesaw", "--g=-i", "--eps5", "1"],
    ["scan", "--param", "g", "--from=-1/2", "--to", "1/2", "--steps", "3", "--eps5", "-1"],
])
def test_a_negative_value_after_its_flag_is_read(capsys, joined):
    # argparse once read the -1/2 of --g -1/2 (and the -i of --g -i) as an
    # option and refused the flag, "expected one argument"; only --g=-1/2
    # worked
    split = [part for arg in joined for part in arg.split("=")]
    code, out = run(capsys, *split)
    assert code == 0
    assert run(capsys, *joined) == (0, out)


def test_modes_reads_no_ell(tmp_path, capsys):
    # modes_scaling carries every modes row from l = 2 to every l > 0, so
    # modes takes no --ell, and a --config ell names the commands that do
    assert main(["modes", "--ell", "2"]) == 2
    assert "unrecognized arguments: --ell 2" in capsys.readouterr().err
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"ell": "2"}))
    assert main(["modes", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "ncdirac: error: modes reads no ell (read by: seesaw, scan, check all)\n")


def test_missing_subcommand(capsys):
    assert main([]) == 2


def test_rep_family_count(capsys):
    code, out = run(capsys, "verify", "rep")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"] == {"failed": 0, "passed": 8, "total": 8}  # 8 families


def test_clifford_relation_count(capsys):
    code, out = run(capsys, "verify", "clifford")
    assert code == 0
    doc = json.loads(out)
    relation_reports = [r for r in doc["reports"] if "anticommutator" in r["check"]]
    # and two product checks
    assert len(relation_reports) == 15 == len(doc["reports"]) - 2


@pytest.mark.parametrize("argv", [
    ("verify", "algebra", "--eps4", "1"),
    ("verify", "algebra", "--eps5", "1"),
    ("verify", "rep", "--eps5", "1"),
    ("verify", "clifford", "--eps5", "1"),
    ("verify", "planewave", "--eps5", "1"),
])
def test_a_sign_free_family_takes_no_sign(capsys, argv):
    # these families run once, at eps5 = 1 (eps4 = eps5 = 1 for the
    # algebra), and the twist that builds the data at the other signs
    # carries them there: a sign would pick nothing to print
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"unrecognized arguments: {argv[2]} 1" in captured.err


def test_timings_charge_each_row_its_own_work(capsys, monkeypatch):
    # a fake clock that advances one second per Weyl commutator or normal
    # form, so a row's duration counts the work its own check did
    ticks = [0]

    def counted(fn):
        def wrapped(*args, **kwargs):
            ticks[0] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(weyl, "_commutator_into", counted(weyl._commutator_into))
    monkeypatch.setattr(enveloping, "normal_form", counted(enveloping.normal_form))
    monkeypatch.setattr(checks, "time", SimpleNamespace(perf_counter=lambda: float(ticks[0])))
    code, out = run(capsys, "check", "all", "--eps5", "-1", "--timings")
    assert code == 0
    reports = json.loads(out)["reports"]
    rep = [r for r in reports if r["check"].startswith("rep_closure_")]
    assert len(rep) == 8
    for r in rep:
        assert float(r["duration_ms"]) == 1000 * r["details"]["pairs"], r["check"]
    forms = {r["check"]: float(r["duration_ms"]) / 1000
             for r in reports if r["check"].startswith("planewave_")}
    assert forms == {
        "planewave_momentum": 4,  # [p_mu, A]
        "planewave_derivative": 1,
        "planewave_mixed": 1,  # [A, d4(A)], which the vacuum row reuses
        "planewave_vacuum": 0,
        "planewave_lemma": 0,
    }


def test_planewave_order_flag(tmp_path, capsys):
    # the plane-wave identities are exact: there is no truncation to choose
    code, out = run(capsys, "verify", "planewave", "--order", "3", "--eps5", "-1")
    assert code == 2 and out == ""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"order": 4}))
    code = main(["verify", "planewave", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "unknown config keys: ['order']" in captured.err


def test_modes_roots_example(capsys):
    code, out = run(capsys, "modes", "--eps5", "-1")
    assert code == 0
    doc = json.loads(out)
    roots = [r for r in doc["reports"] if r["check"] == "dispersion_roots"]
    assert roots[0]["details"]["roots"] == ["0", "1"]
    heavy = [r for r in doc["reports"] if r["check"] == "modes_reference_heavy"]
    assert heavy[0]["details"]["class"] == "Dirac"


def test_seesaw_example(capsys):
    code, out = run(capsys, "seesaw", "--g", "1", "--vev", "0.01", "--ell", "1")
    assert code == 0
    doc = json.loads(out)
    for r in doc["reports"]:
        if r["check"] == "seesaw_effective":
            assert r["details"]["mass"] == "1/20000"  # 5e-5
        if r["check"] == "seesaw_spectrum":
            assert float(r["residual"]) < 1e-3


def test_seesaw_coupling_with_exponent(capsys):
    # the sign of an exponent is not the real/imaginary split
    code, out = run(capsys, "seesaw", "--g", "2e-3i", "--eps5", "-1")
    assert code == 0
    code, same = run(capsys, "seesaw", "--g", "1/500i", "--eps5", "-1")
    assert code == 0
    assert out == same


@pytest.mark.parametrize("vev", ["1/10000", "0"])
def test_seesaw_hierarchy_and_zero_coupling(capsys, vev):
    code, out = run(capsys, "seesaw", "--vev", vev, "--eps5", "-1")
    assert code == 0
    spectrum = [r for r in json.loads(out)["reports"] if r["check"] == "seesaw_spectrum"]
    expected = "Dirac" if vev != "0" else None
    assert spectrum[0]["details"]["light_class"] == expected


@pytest.mark.parametrize("eps5", [1, -1])
def test_rest_frame_kernel_of_wrong_dimension_fails_the_effective_row(
        capsys, monkeypatch, eps5):
    # an effective operator read at twice its rest-frame momentum has no
    # kernel there: the row fails with the dimension, not a silent pass
    reduce = seesaw._reduction

    def off_shell(c, vev, ell):
        w, effective = reduce(c, vev, ell)
        return w, lambda k: effective(tuple(2 * x for x in k))

    monkeypatch.setattr(seesaw, "_reduction", off_shell)
    code, out = run(capsys, "seesaw", "--eps5", str(eps5))
    assert code == 1
    rows = {r["check"]: r for r in json.loads(out)["reports"]}
    effective = rows.pop("seesaw_effective")
    assert effective["status"] == "fail"
    k = {1: "(0, 0, 0, 1/20000)", -1: "(1/20000, 0, 0, 0)"}[eps5]
    assert effective["details"] == {
        "error": f"nullspace dimension 0 != 2 at k={k} (eps5={eps5})"}
    assert all(r["status"] == "pass" for r in rows.values())


_FRAME = "((0, 0, 0, x), (x, 0, 0, 0))[quarter(eps5)]"


def test_a_swapped_frame_fails_every_massive_row(tmp_path):
    # the massive frame is written once, in modes.frame: swap its two axes
    # in a copy of the package, and every row that reads a massive mode at
    # rest fails for both eps5, while check all still prints every row
    report = mutant_report(tmp_path, "modes.py", _FRAME,
                           "((x, 0, 0, 0), (0, 0, 0, x))[quarter(eps5)]",
                           "check", "all", "--seed", "42")
    assert report["summary"]["total"] == len(report["reports"]) == 49
    assert failed(report) == {(check, e5) for e5 in (1, -1) for check in (
        "modes_reference_heavy", "seesaw_spectrum", "seesaw_effective",
        "seesaw_convergence", "seesaw_decoupling")}


def test_scan_deep_hierarchy(capsys):
    code, out = run(
        capsys, "scan", "--param", "vev", "--from", "1/1000000",
        "--to", "1/1000000", "--steps", "1", "--eps5", "-1",
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["status"] == "ok"
    assert float(row["deviation"]) < 1e-12


def test_scan_row_fails_on_heavy_root_as_light(capsys, monkeypatch):
    exact = checks.exact_mode_spectrum

    def heavy_as_light(coupling):
        right = exact(coupling)
        m = float(right.leading_light_mass)
        wrong = math.sqrt(abs(right.heavy_k2))
        return right._replace(
            light_k2=right.heavy_k2, deviation=abs(wrong - m) / m
        )

    monkeypatch.setattr(checks, "exact_mode_spectrum", heavy_as_light)
    code, out = run(
        capsys, "scan", "--param", "vev", "--from", "1/1000", "--to", "1/1000",
        "--steps", "1", "--eps5", "-1",
    )
    assert code == 1
    assert json.loads(out)["rows"][0]["status"] == "fail"


@pytest.mark.parametrize("argv", [
    ("seesaw", "--ell", "1e-320", "--eps5", "-1"),  # M and the heavy root overflow
    ("seesaw", "--ell", "1e400", "--eps5", "-1"),  # M rounds to 0, mu/M overflows
    ("seesaw", "--vev", "1e200", "--eps5", "-1"),  # the heavy k^2 overflows
    ("seesaw", "--vev", "1e-200", "--eps5", "1"),  # the light k^2 underflows
    ("seesaw", "--g", "1e-400", "--eps5", "-1"),  # mu/M underflows
    ("check", "all", "--ell", "1e-400"),
])
def test_a_float_past_its_range_fails_only_the_seesaw_rows(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 1
    reports = json.loads(out)["reports"]
    assert len(reports) == (49 if argv[0] == "check" else 4)
    failed = [r for r in reports if r["status"] != "pass"]
    assert failed and all(r["check"].startswith("seesaw_") for r in failed)
    spectra = [r for r in reports if r["check"] == "seesaw_spectrum"]
    assert spectra and all(r["status"] == "fail" and r["details"]["error"] for r in spectra)


def test_a_float_past_its_range_gives_a_scan_error_row(capsys):
    code, out = run(capsys, "scan", "--param", "vev", "--from", "0", "--to", "1e400",
                    "--steps", "2", "--eps5", "-1")
    assert code == 1
    rows = json.loads(out)["rows"]
    assert [row["status"] for row in rows] == ["ok", "error"]
    assert rows[1]["error"] == "a reported value is past the float range"


def test_scan_rows(capsys):
    code, out = run(
        capsys, "scan", "--param", "ell", "--from", "0.5", "--to", "2",
        "--steps", "4", "--eps5", "-1",
    )
    assert code == 0
    doc = json.loads(out)
    rows = doc["rows"]
    assert len(rows) == 4
    assert [r["value"] for r in rows] == ["1/2", "1", "3/2", "2"]
    assert [r["dispersion_heavy_k2"] for r in rows] == ["16", "4", "16/9", "1"]


@pytest.mark.parametrize("start,stop,bad", [("0", "1", 1), ("-1", "1", 2)])
def test_scan_nonpositive_ell_gives_error_rows(capsys, start, stop, bad):
    # ell <= 0 leaves D(k) undefined: those rows carry no dispersion value,
    # the run goes on to the positive ell and exits 1
    code, out = run(capsys, "scan", "--param", "ell", "--from", start, "--to", stop,
                    "--steps", str(bad + 1))
    assert code == 1
    rows = json.loads(out)["rows"]
    for row in rows[:bad]:
        assert (row["status"], row["error"], row["dispersion_heavy_k2"]) == (
            "error", "ell must be positive", None)
    assert (rows[-1]["value"], rows[-1]["status"], rows[-1]["dispersion_heavy_k2"]) == (
        "1", "ok", "4")


@pytest.mark.parametrize("param,value,status", [
    ("vev", "1/100", "ok"),
    ("vev", "1", "fail"),  # the critical coupling
    ("vev", "3/2", "error"),  # overcritical: no real determinant root
    ("ell", "0", "error"),  # refused by CouplingConfig
])
def test_a_scan_row_reads_the_seesaw_spectrum_row(capsys, param, value, status):
    # a coupling is judged alike in a scan and in the seesaw command: the
    # same values, status, and reason or error
    flags = ["--eps5", "1", *(word for name in ("g", "ell") if name != param
                              for word in (f"--{name}", "1"))]
    _, out = run(capsys, "scan", "--param", param, "--from", value, "--to", value,
                 "--steps", "1", *flags)
    [row] = json.loads(out)["rows"]
    assert row["status"] == status
    seesaw_argv = ["seesaw", f"--{param}", value, *flags]
    if param == "ell":
        assert row["error"] == "ell must be positive"
        assert main(seesaw_argv) == 2
        assert "ncdirac: error: ell must be positive" in capsys.readouterr().err
        return
    _, out = run(capsys, *seesaw_argv)
    [spectrum] = [r for r in json.loads(out)["reports"] if r["check"] == "seesaw_spectrum"]
    details = spectrum["details"]
    assert spectrum["status"] == ("pass" if status == "ok" else "fail")
    assert ("error" in details) == (status == "error")
    assert row["deviation"] == spectrum["residual"]
    for key in ("light_k2", "heavy_k2", "leading_light_mass"):
        assert row[key] == details.get(key)
    assert row["error"] == details.get("error", details.get("reason"))
    if status == "fail":
        assert row["error"] == seesaw.CRITICAL


def test_scan_csv_and_error_rows(capsys):
    # vev sweep crosses the critical coupling for eps5 = +1
    code, out = run(
        capsys, "scan", "--param", "vev", "--from", "1/10", "--to", "2",
        "--steps", "3", "--eps5", "+1", "--format", "csv",
    )
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[0].startswith("param,value,eps5,")
    assert len(lines) == 4
    assert any(",error," in line for line in lines[1:])
    assert any(",ok," in line for line in lines[1:])


def test_scan_one_step_needs_equal_ends(capsys):
    # one step cannot reach a stop value other than its start;
    # test_scan_deep_hierarchy takes one step with equal ends
    assert main(["scan", "--param", "vev", "--from", "1", "--to", "2", "--steps", "1"]) == 2
    assert "ncdirac: error: one step needs --from equal to --to" in capsys.readouterr().err


def test_scan_rejects_bad_param(capsys):
    assert main(["scan", "--param", "mass", "--from", "0", "--to", "1",
                 "--steps", "2"]) == 2


def test_tampered_fixture_names_triple(tmp_path, capsys):
    alg = build_deformed_algebra(1, -1)
    doc = alg.to_json()
    bad = copy.deepcopy(doc)
    names = bad["basis"]
    for key, entry in bad["brackets"].items():
        i, j = map(int, key.split(","))
        if names[i] == "P0" and names[j] == "x0":
            for _, terms in entry:
                for term in terms:
                    term[2] = "2"  # iC -> 2iC
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out = run(
        capsys, "verify", "algebra", "--fixture", str(path),
    )
    assert code == 1
    report = json.loads(out)
    fixture_reports = [r for r in report["reports"] if r["check"] == "jacobi_fixture"]
    assert fixture_reports[0]["status"] == "fail"
    assert fixture_reports[0]["details"]["first_violation"] == ["M01", "P0", "x1"]
    assert fixture_reports[0]["details"]["violations"] == 12
    assert fixture_reports[0]["details"]["first_residual"] == {"C": "1"}


def _rekeyed(key):
    """An edit that moves the table's "0,10" entry to ``key``."""
    return lambda doc: doc["brackets"].update({key: doc["brackets"].pop("0,10")})


@pytest.mark.parametrize("edit,message", [
    (lambda doc: doc["brackets"].update({"0,99": [[14, [[[0] * 10, "1", "0"]]]]}),
     "bracket key '0,99': generator index 99"),
    (lambda doc: doc["brackets"].update({"6,10": [[-1, [[[0] * 10, "1", "0"]]]]}),
     "bracket key '6,10': output index -1"),
    (lambda doc: doc["brackets"].update({"10,6": doc["brackets"]["6,10"]}),
     "bracket key '10,6': repeats the pair of key '6,10'"),
    (lambda doc: doc.pop("brackets"),
     "a structure-constant table is an object with a 'basis' list and a 'brackets' object"),
    (lambda doc: doc["basis"].__setitem__(14, "x3"),
     "duplicate basis names ['x3']"),
    (lambda doc: doc["brackets"]["0,1"][0][1][0].__setitem__(2, "1/0"),
     "bracket key '0,1': coefficient '1/0' has a zero denominator"),
    (lambda doc: doc["brackets"]["0,1"][0][1][0].__setitem__(1, 0.5),
     "bracket key '0,1': expected a str or int coefficient, got float"),
    # output indices and exponents are JSON integers: each of these was once
    # read as a different, valid table or failed with an unrelated message
    (lambda doc: doc["brackets"]["6,10"][0].__setitem__(0, 1.7),
     "bracket key '6,10': output index 1.7 is not an integer"),
    (lambda doc: doc["brackets"]["6,10"][0].__setitem__(0, 1.0),
     "bracket key '6,10': output index 1.0 is not an integer"),
    (lambda doc: doc["brackets"]["6,10"][0].__setitem__(0, True),
     "bracket key '6,10': output index True is not an integer"),
    (lambda doc: doc["brackets"]["6,10"][0].__setitem__(0, "2"),
     "bracket key '6,10': output index '2' is not an integer"),
    (lambda doc: doc["brackets"]["6,10"][0][1][0][0].__setitem__(0, True),
     "bracket key '6,10': exponent True is not an integer"),
    (lambda doc: doc["brackets"]["6,10"][0][1][0][0].__setitem__(0, 1.0),
     "bracket key '6,10': exponent 1.0 is not an integer"),
    # an exponent field that is not a list is named with its term: these
    # once failed with "'int' object is not iterable" or read a string or
    # an object one character or key at a time
    (lambda doc: doc["brackets"]["6,10"][0][1][0].__setitem__(0, 3),
     "bracket key '6,10': exponents 3 of term [3, '0', '1'] are not a list"),
    (lambda doc: doc["brackets"]["6,10"][0][1][0].__setitem__(0, None),
     "bracket key '6,10': exponents None of term [None, '0', '1'] are not a list"),
    (lambda doc: doc["brackets"]["6,10"][0][1][0].__setitem__(0, "0" * 10),
     "bracket key '6,10': exponents '0000000000' of term"),
    (lambda doc: doc["brackets"]["6,10"][0][1][0].__setitem__(0, {"l": 1}),
     "bracket key '6,10': exponents {'l': 1} of term [{'l': 1}, '0', '1'] are not a list"),
    # bracket keys are read only in the form to_json writes: int() once read
    # "0,1_0" as (0, 10), " 2,+3" as (2, 3) and "\u0663,4" as (3, 4)
    (_rekeyed("0,1_0"), "bracket key '0,1_0': is not written as 0,10"),
    (_rekeyed(" 2,+3"), "bracket key ' 2,+3': is not written as 2,3"),
    (_rekeyed("\u0663,4"), "bracket key '\u0663,4': is not written as 3,4"),
    (_rekeyed("0, 12"), "bracket key '0, 12': is not written as 0,12"),
    # a bracket is a list of [index, coefficient] pairs: these once failed
    # with "not enough values to unpack"
    (lambda doc: doc["brackets"].update({"6,10": {"1": 2}}),
     "bracket key '6,10': entries must be a list of [index, coefficient] pairs"),
    (lambda doc: doc["brackets"].update({"6,10": "x"}),
     "bracket key '6,10': entries must be a list of [index, coefficient] pairs"),
    (lambda doc: doc["brackets"].update({"6,10": [[1]]}),
     "bracket key '6,10': entries must be a list of [index, coefficient] pairs"),
])
def test_malformed_fixture_is_usage_error(tmp_path, capsys, edit, message):
    doc = build_deformed_algebra(1, -1).to_json()
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = main(["verify", "algebra", "--fixture", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("basis", ["abc", [1, 2, 3], []])
def test_fixture_basis_that_is_not_a_list_of_names_is_usage_error(tmp_path, capsys, basis):
    # an empty basis once passed jacobi_fixture over 0 triples and exited 0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"basis": basis, "brackets": {}}))
    code = main(["verify", "algebra", "--fixture", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    message = ("the table's basis is empty" if basis == []
               else "a structure-constant table is an object with a 'basis' list")
    assert message in captured.err


@pytest.mark.parametrize("flag,text,message", [
    ("--fixture", "{bad", "Expecting property name enclosed in double quotes"),
    ("--fixture", "[1]", "a structure-constant table is an object"),
    ("--config", "{bad", "Expecting property name enclosed in double quotes"),
    ("--config", "[1]", "config file must hold a JSON object"),
])
def test_a_file_that_is_not_a_table_names_its_flag_and_path(tmp_path, capsys, flag, text,
                                                           message):
    # such an error once named neither the flag nor the file
    path = tmp_path / "bad.json"
    path.write_text(text)
    command = ["verify", "algebra"] if flag == "--fixture" else ["seesaw"]
    code = main([*command, flag, str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"ncdirac: error: {flag} {path}: {message}")


def test_fixture_key_that_is_not_a_string_is_usage_error(tmp_path, capsys, monkeypatch):
    # JSON text cannot hold such a key, so the parsed document is swapped
    # in: a tuple key once let an AttributeError escape
    doc = {"basis": ["a", "b"], "brackets": {(0, 1): []}}
    path = tmp_path / "bad.json"
    path.write_text("{}")
    monkeypatch.setattr(json, "load", lambda fh: doc)
    code = main(["verify", "algebra", "--fixture", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "bracket key (0, 1): is not a string" in captured.err


def test_module_entry_point_matches_main(capsys):
    code, out = run(capsys, "verify", "clifford")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "ncdirac", "verify", "clifford"],
                          capture_output=True, text=True, env=env, check=False)
    assert (proc.returncode, proc.stdout) == (code, out)


ROOT = Path(__file__).resolve().parents[1]


def _readme_command_lines() -> list:
    """The ``ncdirac ...`` lines of README's "Command line" block, each
    without its comment."""
    section = (ROOT / "README.md").read_text().split("\n## Command line\n")[1].split("\n## ")[0]
    return [line.split("#")[0].split() for line in section.splitlines()
            if line.startswith("ncdirac ")]


@pytest.mark.parametrize("argv", _readme_command_lines(), ids=" ".join)
def test_readme_command_line_runs(tmp_path, argv):
    # an exit 2 is a README drifted from the parser; an exit 1 a failing
    # row, or a warning raised as an error
    env = dict(os.environ, PYTHONWARNINGS="error", PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", *argv], cwd=tmp_path, env=env,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_intact_fixture_passes(tmp_path, capsys):
    alg = build_deformed_algebra(1, -1)
    path = tmp_path / "good.json"
    path.write_text(json.dumps(alg.to_json()))
    code, _ = run(
        capsys, "verify", "algebra", "--fixture", str(path),
    )
    assert code == 0


# the argv of each command of checks.READS, and a value of each setting as a
# flag and as a config key, with the value its config echoes
_ARGV = {
    "verify algebra": ("verify", "algebra"),
    "verify rep": ("verify", "rep"),
    "verify clifford": ("verify", "clifford"),
    "verify planewave": ("verify", "planewave"),
    "modes": ("modes",),
    "seesaw": ("seesaw",),
    "scan": ("scan", "--param", "vev", "--from", "1/100", "--to", "1/10", "--steps", "2"),
    "check all": ("check", "all"),
}
_VALUES = {  # setting: (flag value, config key value, echoed value)
    "eps5": ("+1", 1, 1),
    "ell": ("2", "2", "2"),
    "g": ("3/5+4/5i", "0.6+0.8i", "3/5+4/5i"),
    "vev": ("1/50", 0.02, "1/50"),
    "seed": ("7", 7, 7),
    "fixture": (None, None, None),  # the path of an intact table
}


def _setting_value(setting, tmp_path):
    """(flag value, config key value, echoed value) of ``setting``."""
    if setting == "eps4":
        return "-1", -1, None
    if setting != "fixture":
        return _VALUES[setting]
    path = tmp_path / "good.json"
    path.write_text(json.dumps(build_deformed_algebra(1, -1).to_json()))
    return str(path), str(path), str(path)


def test_the_settings_table_covers_every_command_and_setting():
    assert set(_ARGV) == set(checks.READS)
    assert set(_VALUES) == set(chain.from_iterable(checks.READS.values()))


@pytest.mark.parametrize("by_key", [False, True], ids=["flag", "config_key"])
@pytest.mark.parametrize("command", list(_ARGV))
def test_a_command_echoes_exactly_the_settings_it_reads(tmp_path, capsys, command,
                                                        by_key):
    argv, keys, echoed = list(_ARGV[command]), {}, {"format": "json"}
    for setting in checks.READS[command]:
        flag, key, echo = _setting_value(setting, tmp_path)
        if by_key:
            keys[setting] = key
        else:
            argv += [f"--{setting}", flag]
        echoed[setting] = echo
    if command == "scan":
        # a scan echoes its range in place of the base value it sweeps
        del echoed["vev"]
        echoed.update({"param": "vev", "from": "1/100", "to": "1/10", "steps": 2})
    if by_key:
        config = tmp_path / "run.json"
        config.write_text(json.dumps(keys))
        argv += ["--config", str(config)]
    code, out = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["config"] == echoed


# eps4 is read by no command: the isomorphism, its last reader, runs once
_UNREAD = [(command, setting) for command in _ARGV for setting in (*_VALUES, "eps4")
           if setting not in checks.READS[command]]


@pytest.mark.parametrize("by_key", [False, True], ids=["flag", "config_key"])
@pytest.mark.parametrize("command,setting", _UNREAD,
                         ids=[f"{c.replace(' ', '_')}-{s}" for c, s in _UNREAD])
def test_a_setting_the_command_does_not_read_is_usage_error(tmp_path, capsys, command,
                                                            setting, by_key):
    # these commands once accepted every setting and echoed it in their
    # config without reading it: an eps4 or an ell that changed no row, or
    # a fixture never opened, even a missing file
    flag, key, _ = _setting_value(setting, tmp_path)
    if by_key:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({setting: key}))
        argv = (*_ARGV[command], "--config", str(config))
    else:
        argv = (*_ARGV[command], f"--{setting}", flag)
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    line = captured.err.splitlines()[-1]
    assert line.startswith("ncdirac: error: ")
    assert (f"--{setting} " in line or f" reads no {setting} " in line
            or line.endswith(f"unknown config keys: ['{setting}']")), line


def test_scan_takes_no_timings(capsys):
    # scan rows carry no durations: the flag was once accepted and ignored
    code = main([*_ARGV["scan"], "--timings"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "unrecognized arguments: --timings" in captured.err


def test_scan_echoes_its_range_not_the_base_value_it_sweeps(capsys):
    # the config once echoed "vev": "1/100" next to a row run at vev 3/2
    code, out = run(capsys, "scan", "--param", "vev", "--from", "3/2", "--to", "3/2",
                    "--steps", "1", "--eps5", "1")
    assert code == 1
    doc = json.loads(out)
    assert doc["config"] == {"eps5": 1, "ell": "1", "format": "json", "g": "1",
                             "param": "vev", "from": "3/2", "to": "3/2", "steps": 1}
    assert [row["value"] for row in doc["rows"]] == ["3/2"]


def test_scan_echoes_the_sign_it_runs_at(capsys):
    # the config once read "eps5": null next to rows run at -1
    code, out = run(capsys, *_ARGV["scan"])
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["eps5"] == -1
    assert [row["eps5"] for row in doc["rows"]] == [-1, -1]


def test_check_all_reads_a_fixture_from_the_config_key(tmp_path, capsys):
    fixture = tmp_path / "good.json"
    fixture.write_text(json.dumps(build_deformed_algebra(1, -1).to_json()))
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"fixture": str(fixture)}))
    code, out = run(capsys, "check", "all", "--config", str(config))
    doc = json.loads(out)
    assert code == 0 and doc["config"]["fixture"] == str(fixture)
    assert [r["status"] for r in doc["reports"] if r["check"] == "jacobi_fixture"] == ["pass"]


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"eps5": -1, "ell": "2", "seed": 9}))
    code, out = run(capsys, "check", "all", "--config", str(cfg))
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["ell"] == "2"
    assert doc["config"]["seed"] == 9

    code, out = run(capsys, "check", "all", "--config", str(cfg), "--ell", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["ell"] == "1"  # flag wins


@pytest.mark.parametrize("key,value", [
    ("seed", 1.9), ("eps5", True), ("eps5", -1.0), ("seed", "7"),
])
def test_integer_config_key_takes_only_json_integers(tmp_path, capsys, key, value):
    # int() would run seed 1 and eps5 = +1 from the first two
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: value}))
    code = main(["check", "all", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"config key {key!r} must be a JSON integer" in captured.err


@pytest.mark.parametrize("key,value", [("ell", "1/0"), ("vev", "1/0"), ("g", "1/0i")])
def test_config_zero_denominator_is_usage_error(tmp_path, capsys, key, value):
    # the same values as flags exit 2; from a config file they once raised
    # ZeroDivisionError, which exited 1 as if a check had failed
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: value}))
    code = main(["seesaw", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"ncdirac: error: config key {key!r} has a zero denominator: "
                            f"{value!r}\n")


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"epsilon": 1}))
    code, _ = run(capsys, "modes", "--config", str(cfg))
    assert code == 2


def test_missing_config_file(capsys):
    code, _ = run(capsys, "modes", "--config", "/nonexistent/cfg.json")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("check", "all"),
    ("verify", "algebra"),
    ("modes",),
    ("seesaw",),
    ("scan", "--param", "vev", "--from", "1/2", "--to", "2", "--steps", "2", "--eps5", "1"),
])
@pytest.mark.parametrize("target", ["missing_dir", "directory"])
def test_unwritable_out_is_usage_error(tmp_path, capsys, argv, target):
    # a report that cannot be written is a usage error, not a failed check
    out = tmp_path / "missing" / "x.json" if target == "missing_dir" else tmp_path
    code = main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("ncdirac: error: ")
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("argv,config,name", [
    (("verify", "algebra", "--fixture", ""), None, "fixture"),
    (("verify", "algebra"), {"fixture": ""}, "fixture"),
    (("verify", "clifford", "--out", ""), None, "out"),
], ids=["fixture_flag", "fixture_key", "out_flag"])
def test_empty_path_is_usage_error(tmp_path, capsys, argv, config, name):
    # an empty fixture once dropped the jacobi_fixture row, and an empty
    # --out wrote the report to stdout, both without a word
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        argv = (*argv, "--config", str(path))
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"ncdirac: error: {name} must name a file, not be empty\n"
