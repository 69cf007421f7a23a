"""Tests of the benchmark itself: seeded inputs, oracles, tracer and contract.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from ncdirac import (  # noqa: E402
    CouplingConfig,
    ExactScalar,
    NCExpression,
    StructureConstants,
    build_deformed_algebra,
    exact_mode_spectrum,
    jacobi_residual,
    normal_form,
    verify_effective_equation,
)
from ncdirac.scalars import P_I  # noqa: E402


def _inputs(workload: str, seed: int):
    rng = wl.rng_for(workload, seed)
    if workload == "algebra-fixtures":
        base = build_deformed_algebra(1, -1).to_json()
        return [(mix, wl.fixture_table(base, rng, mix[2])) for mix in wl.fixture_mix(rng, 16)]
    if workload == "seesaw-hierarchy":
        return [wl.seesaw_input(rng) for _ in range(8)]
    return [wl.random_word(rng, n) for n in wl.word_lengths(rng, 8)]


@pytest.mark.parametrize("workload", ["algebra-fixtures", "seesaw-hierarchy", "rewrite"])
def test_one_seed_gives_the_same_inputs(workload):
    assert _inputs(workload, 17) == _inputs(workload, 17)
    assert _inputs(workload, 17) != _inputs(workload, 18)
    labels = [op.label for op in wl.round_ops(workload, 17)]
    assert labels == [op.label for op in wl.round_ops(workload, 17)]
    # enough timed ops per round for the 90th percentile to have ten beyond it
    assert len([op for op in wl.round_ops(workload, 17) if op.timed]) >= 100


def test_fixture_oracle_passes_rescaled_and_fails_tampered_tables():
    import random

    rng = random.Random(5)
    base = build_deformed_algebra(-1, 1).to_json()
    point = wl.random_point(rng)
    scales = [wl._big_rational(rng) for _ in base["basis"]]
    clean = wl.rescale_table(base, scales)
    assert not wl.jacobi_violations(wl.table_tensor(clean, point))
    clean_out = jacobi_residual(StructureConstants.from_json(clean))
    assert clean_out == []
    assert wl.fixture_oracle(clean, point, clean_out) is None

    tampered = wl.tamper_table(clean, rng)
    assert wl.jacobi_violations(wl.table_tensor(tampered, point))
    tampered_out = jacobi_residual(StructureConstants.from_json(tampered))
    assert wl.fixture_oracle(tampered, point, tampered_out) is None
    # a program that passed the tampered table, or named the wrong triples
    assert wl.fixture_oracle(tampered, point, []) is not None
    assert wl.fixture_oracle(clean, point, tampered_out) is not None


def _seesaw_case(ratio: Fraction, eps5: int):
    ell, size = Fraction(1), Fraction(1)
    inp = wl.SeesawInput(eps5, Fraction(3, 5), Fraction(4, 5), size, ell,
                         ratio * 2 / (ell * size), ratio)
    coupling = CouplingConfig(g=ExactScalar(inp.g_re, inp.g_im), vev=inp.vev,
                              ell=inp.ell, eps5=eps5)
    return inp, coupling


@pytest.mark.parametrize("eps5", [1, -1])
def test_seesaw_oracle_accepts_a_right_spectrum(eps5):
    inp, coupling = _seesaw_case(Fraction(1, 100), eps5)
    spectrum = exact_mode_spectrum(coupling)
    effective = verify_effective_equation(coupling)
    assert wl.seesaw_oracle(inp, spectrum, effective) is None


def test_seesaw_oracle_rejects_the_heavy_root_as_light():
    inp, coupling = _seesaw_case(Fraction(1, 100), -1)
    right = exact_mode_spectrum(coupling)
    effective = verify_effective_equation(coupling)
    wrong = SimpleNamespace(light_k2=right.heavy_k2, heavy_k2=right.heavy_k2,
                            light_class="Dirac")
    assert "light mass" in wl.seesaw_oracle(inp, wrong, effective)
    wrong_class = SimpleNamespace(light_k2=right.light_k2, heavy_k2=right.heavy_k2,
                                  light_class="Majorana")
    assert "class" in wl.seesaw_oracle(inp, wrong_class, effective)


def test_word_oracle_accepts_a_known_normal_form():
    # x0 p0 = p0 x0 + [x0, p0] = p0 x0 - i C
    known = NCExpression({("p0", "x0"): 1, ("C",): -P_I})
    word = NCExpression({("x0", "p0"): 1})
    for eps5 in (1, -1):
        left = normal_form(word, eps5, order=4, leftmost=True)
        right = normal_form(word, eps5, order=4, leftmost=False)
        assert left == known == right
        assert wl.word_oracle(left, right, 4) is None
    unordered = NCExpression({("x0", "p0"): 1})
    assert wl.word_oracle(unordered, unordered, 4) is not None
    assert wl.word_oracle(known, unordered, 4) is not None


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(1, 101))) == (90, 90)
    assert run.tail_percentile(list(range(1, 100)))[0] == 50
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (50, 2.0)


def test_round_count_depends_on_the_seconds_only():
    assert run.rounds_for("check-all", 30) == run.rounds_for("check-all", 30.0)
    assert run.rounds_for("check-all", 1) == run.MIN_ROUNDS
    assert run.rounds_for("algebra-fixtures", 300) > run.rounds_for("algebra-fixtures", 30)


def test_reference_clock_counts_each_stretch_at_its_bursts_speed():
    # bursts at clock readings 1, 2, 3 taking REFERENCE_MS, twice that, and REFERENCE_MS
    ms = reference.REFERENCE_MS
    clock = reference.ReferenceClock([(1.0, ms), (2.0, 2 * ms), (3.0, ms)])
    assert clock.seconds((0.0, 1.0)) == pytest.approx(1.0)
    assert clock.seconds((1.0, 2.0)) == pytest.approx(0.75)
    assert clock.seconds((0.0, 4.0)) == pytest.approx(3.5)
    assert clock.seconds((1.5, 2.5)) == pytest.approx(0.75)


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_traced_check_all_is_byte_identical_and_counts_repeat():
    cold = subprocess.run(
        [sys.executable, "-m", "ncdirac.cli", "check", "all", "--seed", "42"],
        cwd=ROOT, env=run.child_env(), stdout=subprocess.PIPE, check=True,
    ).stdout
    traced = [run.child_round("check-all", 42, traced=True) for _ in range(2)]
    for result in traced:
        assert result["digest"] == hashlib.sha256(cold).hexdigest()
        t = result["trace"]
        assert sum(t["self_s"].values()) + t["outside_s"] == pytest.approx(t["wall_s"], abs=1e-6)
    counts = [run.layer_metrics(r, r) for r in traced]
    for c in counts:
        assert c["clifford.build_rep_calls"] == 854
        assert c["lie_algebra.iso_verify_calls"] == 36
    assert traced[0]["trace"]["counts"] == traced[1]["trace"]["counts"]


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rewrite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == b""
