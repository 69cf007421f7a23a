"""One round of one workload in a fresh interpreter.

    python3 perfbench/child.py --workload rewrite --seed 7 [--traced]

Without ``--traced`` a :class:`reference.Speedometer` runs from before the
import to the end, and every time below leaves out its bursts (a traced
round runs without it: its signal would land inside the tracer's spans).

Prints one JSON object on its last stdout line:

* ``import_s``: time of ``import ncdirac`` (``ncdirac.cli`` for check-all);
* ``ops_wall_s``: first op start to last op end;
* ``latencies_ms``: one sample per timed op (the untimed ops, such as the
  isomorphism, contraction, plane-wave and closure checks, count only
  towards ``ops_wall_s``); for check-all the one op is the invocation,
  import included;
* ``setup_span``, ``wall_span``, ``op_spans``: intervals as clock
  readings, for the runner to convert: ``import ncdirac``; the imports
  and the command for check-all, first op to last op otherwise; each
  timed op;
* ``attempted``, ``failed``, ``failures``: ops run, ops that raised or that
  the oracle rejected, and the first few reasons;
* ``digest``: check-all only, the SHA-256 of the JSON report;
* ``trace``: with ``--traced``, the tracer's counts and times;
* ``bursts``: without ``--traced``, every burst as (clock reading,
  milliseconds).

The workload's outputs are verified after the last op, outside the timed
region and with the tracer paused.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from reference import Speedometer  # noqa: E402
from tracer import Tracer  # noqa: E402

CHECK_SPANS = (
    "checks.cmd_verify_algebra", "checks.cmd_verify_rep", "checks.cmd_verify_clifford",
    "checks.cmd_verify_planewave", "checks.cmd_modes", "checks.cmd_seesaw",
)
MAX_FAILURES = 5

_meter: Speedometer | None = None


def now() -> float:
    """perf_counter less the time the speedometer's bursts took so far."""
    if _meter is None:
        return time.perf_counter()
    while True:  # retry if a burst ran between the two reads
        spent = _meter.spent_s
        t = time.perf_counter()
        if spent == _meter.spent_s:
            return t - spent


def run_check_all(seed: int, tracer: Tracer | None) -> dict:
    if tracer:
        tracer.start()
    t0 = now()
    import ncdirac  # noqa: F401
    t_setup = now()
    from ncdirac import cli
    t1 = now()
    if tracer:
        tracer.finish_install()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["check", "all", "--seed", str(seed)])
    t2 = now()
    if tracer:
        tracer.stop()
    text = buf.getvalue()
    import workloads  # after the timed region: it imports numpy
    failure = workloads.check_all_failure(rc, text)
    return {
        "import_s": t1 - t0,
        "ops_wall_s": t2 - t1,
        "latencies_ms": [(t2 - t0) * 1e3],
        "setup_span": [t0, t_setup],
        "wall_span": [t0, t2],
        "op_spans": [[t0, t2]],
        "attempted": 1,
        "failed": 0 if failure is None else 1,
        "failures": [] if failure is None else [failure],
        "digest": hashlib.sha256(text.encode()).hexdigest(),
    }


def run_ops(workload: str, seed: int, tracer: Tracer | None) -> dict:
    if tracer:
        tracer.start()
    t0 = now()
    import ncdirac  # noqa: F401
    t1 = now()
    if tracer:
        tracer.finish_install()
        tracer.stop()

    import workloads  # after `import ncdirac`, which it must not pre-empt
    ops = workloads.round_ops(workload, seed)

    outputs, spans = [], []
    if tracer:
        tracer.start()
    first = now()
    for op in ops:
        t = now()
        try:
            out = (True, op.run())
        except Exception as exc:  # a raising op is a failed op, not a crash
            out = (False, f"{op.label}: raised {type(exc).__name__}: {exc}")
        if op.timed:
            spans.append([t, now()])
        outputs.append(out)
    last = now()
    if tracer:
        tracer.stop()

    failures = []
    for op, (ran, out) in zip(ops, outputs):
        reason = out if not ran else op.verify(out)
        if reason is not None:
            failures.append(reason if not ran else f"{op.label}: {reason}")
    return {
        "import_s": t1 - t0,
        "ops_wall_s": last - first,
        "latencies_ms": [(b - a) * 1e3 for a, b in spans],
        "setup_span": [t0, t1],
        "wall_span": [first, last],
        "op_spans": spans,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:MAX_FAILURES],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    global _meter
    tracer = None
    if args.traced:
        tracer = Tracer(always_span=CHECK_SPANS)
        tracer.install()
    else:
        _meter = Speedometer()
        _meter.start()
    if args.workload == "check-all":
        result = run_check_all(args.seed, tracer)
    else:
        result = run_ops(args.workload, args.seed, tracer)
    if _meter:
        _meter.stop()
        result["bursts"] = _meter.bursts
    if tracer:
        result["trace"] = {
            "wall_s": tracer.wall,
            "outside_s": tracer.outside(),
            "self_s": dict(tracer.self_time),
            "inclusive_s": dict(tracer.inclusive),
            "counts": dict(tracer.counts),
        }
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
