"""Command line behavior: exit codes, formats, config files (determinism
of `check all` is acceptance criterion 11)."""

import copy
import json
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

from ncdirac import checks, enveloping, weyl
from ncdirac.cli import main
from ncdirac.lie_algebra import build_deformed_algebra


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_algebra_single_pair(capsys):
    code, out = run(capsys, "verify", "algebra", "--eps4", "+1", "--eps5", "-1")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["failed"] == 0
    checks = sorted({r["check"] for r in doc["reports"]})
    assert checks == [
        "contraction", "isomorphism", "jacobi_deformed", "jacobi_orthogonal",
    ]


def test_all_signs_sweep(capsys):
    code, out = run(capsys, "verify", "algebra", "--all-signs")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["total"] == 16  # 4 checks x 4 sign pairs


def test_invalid_sign_is_usage_error(capsys):
    code, _ = run(capsys, "verify", "algebra", "--eps4", "+1", "--eps5", "0")
    assert code == 2


def test_invalid_coupling_is_usage_error(capsys):
    code, _ = run(capsys, "seesaw", "--g", "nonsense")
    assert code == 2


def test_negative_ell_is_usage_error(capsys):
    code, _ = run(capsys, "modes", "--ell", "-1/2")
    assert code == 2


def test_missing_subcommand(capsys):
    assert main([]) == 2


def test_rep_family_count(capsys):
    code, out = run(capsys, "verify", "rep", "--eps5", "-1")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"] == {"failed": 0, "passed": 8, "total": 8}


def test_clifford_relation_count(capsys):
    code, out = run(capsys, "verify", "clifford", "--eps5", "+1")
    assert code == 0
    doc = json.loads(out)
    relation_reports = [
        r for r in doc["reports"]
        if "anticommutator" in r["check"] or "square" in r["check"]
    ]
    assert len(relation_reports) == 20


def test_timings_charge_each_row_its_own_work(capsys, monkeypatch):
    # a fake clock that advances one second per Weyl commutator or normal
    # form, so a row's duration counts the work its own check did
    ticks = [0]

    def counted(fn):
        def wrapped(*args, **kwargs):
            ticks[0] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(weyl.WeylOperator, "commutator",
                        counted(weyl.WeylOperator.commutator))
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
        "planewave_centrality": 4 * len(enveloping.TOKENS),  # [[p_mu, A], X]
        "planewave_derivative": 1,
        "planewave_mixed": 1,  # [A, d4(A)], which the vacuum row reuses
        "planewave_vacuum": 0,
        "planewave_lemma": 0,
    }


def test_planewave_order_flag(capsys):
    code, out = run(capsys, "verify", "planewave", "--order", "3", "--eps5", "-1")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["order"] == 3
    momentum = [r for r in doc["reports"] if r["check"] == "planewave_momentum"]
    assert momentum[0]["details"]["exactly_zero"] is True


def test_modes_roots_example(capsys):
    code, out = run(capsys, "modes", "--eps5", "-1", "--ell", "2")
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
        if r["check"] == "seesaw_leading":
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
        capsys, "verify", "algebra", "--eps4", "1", "--eps5", "-1",
        "--fixture", str(path),
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
    code = main(["verify", "algebra", "--eps4", "1", "--eps5", "-1",
                 "--fixture", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("basis", ["abc", [1, 2, 3]])
def test_fixture_basis_that_is_not_a_list_of_names_is_usage_error(tmp_path, capsys, basis):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"basis": basis, "brackets": {}}))
    code = main(["verify", "algebra", "--eps4", "1", "--eps5", "-1",
                 "--fixture", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "a structure-constant table is an object with a 'basis' list" in captured.err


def test_fixture_key_that_is_not_a_string_is_usage_error(tmp_path, capsys, monkeypatch):
    # JSON text cannot hold such a key, so the parsed document is swapped
    # in: a tuple key once let an AttributeError escape
    doc = {"basis": ["a", "b"], "brackets": {(0, 1): []}}
    path = tmp_path / "bad.json"
    path.write_text("{}")
    monkeypatch.setattr(json, "load", lambda fh: doc)
    code = main(["verify", "algebra", "--eps4", "1", "--eps5", "-1",
                 "--fixture", str(path)])
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


def test_intact_fixture_passes(tmp_path, capsys):
    alg = build_deformed_algebra(1, -1)
    path = tmp_path / "good.json"
    path.write_text(json.dumps(alg.to_json()))
    code, _ = run(
        capsys, "verify", "algebra", "--eps4", "1", "--eps5", "-1",
        "--fixture", str(path),
    )
    assert code == 0


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"eps5": -1, "ell": "2", "seed": 9}))
    code, out = run(capsys, "modes", "--config", str(cfg))
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["ell"] == "2"
    assert doc["config"]["seed"] == 9

    code, out = run(capsys, "modes", "--config", str(cfg), "--ell", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["ell"] == "1"  # flag wins


@pytest.mark.parametrize("key,value", [
    ("seed", 1.9), ("order", 4.7), ("eps5", True), ("eps4", 1.0), ("seed", "7"),
])
def test_integer_config_key_takes_only_json_integers(tmp_path, capsys, key, value):
    # int() would run seed 1, order 4 and eps5 = +1 from the first three
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: value}))
    code = main(["modes", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"config key {key!r} must be a JSON integer" in captured.err


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"epsilon": 1}))
    code, _ = run(capsys, "modes", "--config", str(cfg))
    assert code == 2


def test_missing_config_file(capsys):
    code, _ = run(capsys, "modes", "--config", "/nonexistent/cfg.json")
    assert code == 2
