"""The ncdirac benchmark: end-to-end metrics and a traced per-layer run.

    python3 perfbench/run.py --workload check-all --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --seed 1            # every workload in turn

Run from the root of a checkout that holds ``src/ncdirac``.  Each round of
a workload runs in a fresh interpreter (``child.py``) with one BLAS thread,
one round after another; every round repeats the seed's inputs.  The number
of rounds follows from ``--seconds`` alone, never from how fast the rounds
go, so two commits get the same number of samples.  Every time is converted
to reference seconds by the speedometer that runs inside each round
(``reference.py``) and reported as the median over rounds.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name and unit.  See README.md in this directory for what each
workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import REFERENCE_MS, ReferenceClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

WORKLOADS = ("check-all", "algebra-fixtures", "seesaw-hierarchy", "rewrite")
# Seconds one round takes, checks of its outputs included, at the commit
# the benchmark was defined on; --seconds / ROUND_S rounds run, whatever
# their speed.
ROUND_S = {"check-all": 4.0, "algebra-fixtures": 7.0, "seesaw-hierarchy": 3.5,
           "rewrite": 4.0}
MIN_ROUNDS = 5
TRACED_PAIR_ROUNDS = 3   # a traced round and an untraced one cost about three rounds
HARD_STOP_S = 120        # no new round starts after this; the run reports what it has
CHILD_TIMEOUT_S = 50     # a child still running after this is killed

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

LAYERS = ("scalars", "matrices", "lie_algebra", "weyl", "enveloping", "clifford",
          "modes", "seesaw")

# per-layer call counts: metric name -> tracer keys summed
COUNTS = {
    "clifford.build_rep_calls": ("clifford.build_majorana_rep",),
    "clifford.boost_calls": ("clifford.boost_matrix",),
    "modes.dirac_matrix_calls": ("modes.dirac_matrix",),
    "modes.boost_solution_calls": ("modes.boost_solution",),
    "lie_algebra.iso_verify_calls": ("lie_algebra.verify_linear_isomorphism",),
    "lie_algebra.jacobi_calls": ("lie_algebra.jacobi_residual",),
    "scalars.poly_mul_calls": ("scalars.ParamPoly.__mul__", "scalars.ParamPoly.__rmul__"),
    "matrices.rank_calls": ("matrices.ExactMatrix.rank",),
    "matrices.det_calls": ("matrices.ExactMatrix.det",),
    "matrices.kernel_calls": ("matrices.ExactMatrix.kernel",),
    "seesaw.spectrum_calls": ("seesaw.exact_mode_spectrum",),
    "enveloping.normal_form_calls": ("enveloping.normal_form",),
    "weyl.closure_calls": ("weyl.verify_rep_closure",),
}

# Inclusive time of each check family; only check-all runs them, so these
# are printed with the report but kept out of the JSON line (they read 0 on
# every other workload).
CHECK_FAMILIES = {
    "checks.algebra_s": "checks.cmd_verify_algebra",
    "checks.rep_s": "checks.cmd_verify_rep",
    "checks.clifford_s": "checks.cmd_verify_clifford",
    "checks.planewave_s": "checks.cmd_verify_planewave",
    "checks.modes_s": "checks.cmd_modes",
    "checks.seesaw_s": "checks.cmd_seesaw",
}


def per_layer_names() -> list[tuple[str, str]]:
    names = [(name, "count") for name in COUNTS]
    names += [(f"{layer}.self_s", "s") for layer in LAYERS]
    names += [("trace.wall_s", "s"), ("trace.outside_s", "s"), ("trace.overhead_s", "s")]
    return names


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a failed op)."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv: list[str]) -> tuple[int, bytes, float]:
    """Run one child to completion: exit code, stdout, wall seconds."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{' '.join(argv[1:3])} ran past {CHILD_TIMEOUT_S} s") from exc
    return proc.returncode, proc.stdout, time.perf_counter() - t0


def child_round(workload: str, seed: int, traced: bool = False) -> dict:
    argv = [sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed)]
    if traced:
        argv.append("--traced")
    rc, out, _ = spawn(argv)
    lines = out.decode().strip().splitlines()
    if rc != 0 or not lines:
        raise HarnessError(f"{workload} round exited {rc} without a result")
    return json.loads(lines[-1])


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the 90th when at least 10 samples lie beyond it,
    else the median."""
    ordered = sorted(samples)
    rank = math.ceil(0.9 * len(ordered))
    if len(ordered) - rank >= 10:
        return 90, ordered[rank - 1]
    return 50, statistics.median(ordered)


def rounds_for(workload: str, seconds: float) -> int:
    return max(MIN_ROUNDS, round(seconds / ROUND_S[workload]))


# -- end-to-end runs ------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float) -> dict:
    """A fixed number of rounds of the seed's inputs, each with the
    speedometer running.  Every interval is converted to reference seconds
    by its round's ReferenceClock; each metric is the median over rounds of
    that round's value.  ``setup_s`` is a round's ``import ncdirac``;
    ``wall_s`` its first op to last verdict (for check-all the imports and
    the command); ``op_p50_ms`` and ``op_p90_ms`` the percentiles of its
    timed op latencies."""
    warm = spawn([sys.executable, "-c", "import ncdirac"])  # page and bytecode caches
    if warm[0] != 0:
        raise HarnessError("import ncdirac failed")
    n_rounds = rounds_for(workload, seconds)
    start = time.perf_counter()
    rounds = []
    while len(rounds) < n_rounds and time.perf_counter() - start < HARD_STOP_S:
        rounds.append(child_round(workload, seed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    setup, walls, p50s, p90s = [], [], [], []
    for r in rounds:
        clock = ReferenceClock(r["bursts"])
        setup.append(clock.seconds(r["setup_span"]))
        walls.append(clock.seconds(r["wall_span"]))
        latencies = [clock.seconds(span) * 1e3 for span in r["op_spans"]]
        pct, tail = tail_percentile(latencies)
        p50s.append(statistics.median(latencies))
        p90s.append(tail)
    bursts = [ms for r in rounds for _, ms in r["bursts"]]
    raw_wall = statistics.median(r["wall_span"][1] - r["wall_span"][0] for r in rounds)

    failures = [f for r in rounds for f in r["failures"]]
    failed = sum(r["failed"] for r in rounds)
    if workload == "check-all":
        # same seed, same bytes: every invocation must match the first
        differing = sum(r["digest"] != rounds[0]["digest"] for r in rounds[1:])
        if differing:
            failed += differing
            failures.append(f"{differing} invocations differ from the first")
    attempted = sum(r["attempted"] for r in rounds)
    n_ops = len(rounds[0]["latencies_ms"])
    return {
        "metrics": {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "op_p50_ms": statistics.median(p50s),
            "op_p90_ms": statistics.median(p90s),
            "peak_rss_mb": peak_rss_mb,
        },
        "attempted": attempted,
        "failed": failed,
        "notes": [
            f"rounds: {len(rounds)} of {n_rounds}, timed ops per round: {n_ops}",
            f"op_p90_ms is percentile {pct} of a round's {n_ops} ops, median of {len(rounds)} rounds"
            + (" (one op per round: it repeats wall_s)" if n_ops == 1 else ""),
            f"speedometer: {len(bursts)} bursts, median {statistics.median(bursts):.6g} ms "
            f"(REFERENCE_MS {REFERENCE_MS})",
            f"unscaled median round wall: {raw_wall:.6g} s",
            f"fail_share: {failed / attempted:.6g} ratio ({failed} of {attempted})",
        ] + [f"failure: {f}" for f in failures[:5]],
        "units": dict(END_TO_END),
    }


# -- traced runs ----------------------------------------------------------------


def layer_metrics(traced: dict, untraced: dict) -> dict:
    t = traced["trace"]
    out = {name: sum(t["counts"].get(k, 0) for k in keys) for name, keys in COUNTS.items()}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = t["self_s"].get(layer, 0.0)
    out["trace.wall_s"] = t["wall_s"]
    out["trace.outside_s"] = t["outside_s"]
    out["trace.overhead_s"] = t["wall_s"] - (untraced["import_s"] + untraced["ops_wall_s"])
    return out


def trace(workload: str, seed: int, seconds: float) -> dict:
    """A fixed number of (traced, untraced) round pairs; counts must repeat
    exactly across pairs, times are reported as medians."""
    n_pairs = max(1, rounds_for(workload, seconds) // TRACED_PAIR_ROUNDS)
    start = time.perf_counter()
    pairs = []
    while len(pairs) < n_pairs and (not pairs or time.perf_counter() - start < HARD_STOP_S):
        traced = child_round(workload, seed, traced=True)
        untraced = child_round(workload, seed)
        pairs.append((traced, untraced))

    problems = []
    for traced, untraced in pairs:
        t = traced["trace"]
        total = sum(t["self_s"].values()) + t["outside_s"]
        if abs(total - t["wall_s"]) > 1e-6 * max(t["wall_s"], 1.0):
            problems.append(f"self times + outside {total:.6f} s != traced wall {t['wall_s']:.6f} s")
        if t["counts"] != pairs[0][0]["trace"]["counts"]:
            problems.append("call counts differ between traced runs of the same inputs")
        if traced.get("digest") != untraced.get("digest"):
            problems.append("traced check-all JSON differs from the untraced JSON")

    rows = [layer_metrics(traced, untraced) for traced, untraced in pairs]
    metrics = {name: statistics.median(row[name] for row in rows) for name, _ in per_layer_names()}
    families = {
        name: statistics.median(tr["trace"]["inclusive_s"].get(key, 0.0) for tr, _ in pairs)
        for name, key in CHECK_FAMILIES.items()
    }
    families["checks.self_s"] = statistics.median(tr["trace"]["self_s"].get("checks", 0.0) for tr, _ in pairs)
    families["cli.self_s"] = statistics.median(tr["trace"]["self_s"].get("cli", 0.0) for tr, _ in pairs)

    failures = [f for tr, _ in pairs for f in tr["failures"]] + problems
    attempted = sum(tr["attempted"] for tr, _ in pairs)
    failed = sum(tr["failed"] for tr, _ in pairs)
    notes = [f"traced pairs: {len(pairs)}; sum of self times + outside = traced wall "
             f"({'ok' if not problems else 'MISMATCH'})"]
    notes += [f"{name}: {value:.6g} s (printed only)" for name, value in families.items()]
    notes += [f"failure: {f}" for f in failures[:5]]
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "notes": notes,
        "units": dict(per_layer_names()),
    }


# -- entry point ---------------------------------------------------------------


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    result = trace(workload, seed, seconds) if traced else measure(workload, seed, seconds)
    for note in result["notes"]:
        print(f"# {workload}: {note}")
    for name, value in result["metrics"].items():
        print(f"{workload}  {name:32s} {value:.6g} {result['units'][name]}")
    correct = result["failed"] == 0 and not result.get("problems")
    return {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ncdirac benchmark")
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ncdirac" / "__init__.py").is_file():
        print(f"perfbench: no ncdirac sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    seed = args.seed % 2 ** 64  # the range `ncdirac --seed` accepts
    if args.workload != "all":
        try:
            result = run_one(args.workload, seed, args.seconds, bool(args.trace))
        except HarnessError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result, sort_keys=True))
        return 0

    # every workload in its own process tree, so peak RSS is per workload
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, check=False)
        lines = proc.stdout.decode().strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {workload} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
