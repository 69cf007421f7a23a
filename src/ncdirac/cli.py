"""Command line front end.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
configuration error.  Flags override values from --config; a missing sign
flag means "sweep both signs" for the verification commands.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .scalars import ExactScalar
from . import checks
from .checks import RunConfig


def _sign(text: str) -> int:
    if text in ("+1", "1"):
        return 1
    if text == "-1":
        return -1
    raise argparse.ArgumentTypeError(f"expected +1 or -1, got {text!r}")


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _coupling(text: str) -> ExactScalar:
    try:
        return ExactScalar.parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact scalar: {text!r}") from exc


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--eps4", type=_sign, default=None,
                    help="time-like sector sign (+1 or -1); default: sweep both")
    sp.add_argument("--eps5", type=_sign, default=None,
                    help="extra-direction sign (+1 or -1); default: sweep both")
    sp.add_argument("--ell", type=_rational, default=None,
                    help="length scale l as an exact rational, e.g. 1/100")
    sp.add_argument("--g", type=_coupling, default=None,
                    help="coupling, exact complex rational like 3/5+4/5i")
    sp.add_argument("--vev", type=_rational, default=None,
                    help="scalar background value as an exact rational")
    sp.add_argument("--seed", type=int, default=None,
                    help="echoed in the report's config only; no check reads it "
                         "(64-bit unsigned)")
    sp.add_argument("--format", dest="fmt", choices=("json", "csv"), default=None)
    sp.add_argument("--out", default=None, help="write the report here")
    sp.add_argument("--fixture", default=None,
                    help="JSON structure-constant table to validate")
    sp.add_argument("--config", default=None,
                    help="JSON file with default values for these flags")
    sp.add_argument("--timings", action="store_true",
                    help="include wall-clock durations in reports")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncdirac",
        description="verification suite for the deformed relativistic algebra "
                    "and its Dirac sector",
    )
    sub = parser.add_subparsers(dest="cmd")

    p_verify = sub.add_parser("verify", help="run one family of identity checks")
    p_verify.add_argument("target", choices=checks.VERIFY_FAMILIES)
    p_verify.add_argument("--all-signs", action="store_true",
                          help="force the sweep over every sign choice")
    _add_common(p_verify)

    p_modes = sub.add_parser("modes", help="dispersion roots and spinor modes")
    _add_common(p_modes)

    p_seesaw = sub.add_parser("seesaw", help="coupled light/heavy mass checks")
    _add_common(p_seesaw)

    p_scan = sub.add_parser("scan", help="sweep one parameter over a range")
    p_scan.add_argument("--param", required=True, choices=checks.SCAN_PARAMS)
    p_scan.add_argument("--from", dest="start", required=True, type=_rational)
    p_scan.add_argument("--to", dest="stop", required=True, type=_rational)
    p_scan.add_argument("--steps", required=True, type=int)
    _add_common(p_scan)

    p_check = sub.add_parser("check", help="run every check family")
    p_check.add_argument("target", choices=("all",))
    _add_common(p_check)

    return parser


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


_CONFIG_KEYS = {
    "eps4", "eps5", "ell", "g", "vev", "seed", "format", "fixture",
}

# the commands whose rows read a fixture (the jacobi_fixture row); every
# other command refuses one rather than echo a file it never opens
_FIXTURE_READERS = ("verify algebra", "check all")


def resolve_config(args: argparse.Namespace) -> RunConfig:
    file_cfg = {}
    if getattr(args, "config", None):
        file_cfg = _load_config_file(args.config)
        unknown = set(file_cfg) - _CONFIG_KEYS
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")

    defaults = RunConfig()

    def pick(flag, key, convert, field=None):
        """The flag, else the config file's value, else the default.  An
        integer key takes only a JSON integer: int() would round a float and
        read a bool or a string.  A zero denominator is a usage error that
        names its key, as it is for the flag."""
        if flag is not None:
            return flag
        value = file_cfg.get(key)
        if value is not None:
            if convert is int and type(value) is not int:
                raise ValueError(f"config key {key!r} must be a JSON integer, "
                                 f"got {value!r}")
            try:
                return convert(value)
            except ZeroDivisionError:
                raise ValueError(f"config key {key!r} has a zero denominator: "
                                 f"{value!r}") from None
        return getattr(defaults, field or key)

    fixture = pick(args.fixture, "fixture", str)
    name = " ".join(filter(None, (args.cmd, getattr(args, "target", None))))
    if fixture is not None and name not in _FIXTURE_READERS:
        raise ValueError(f"{name} reads no fixture; only "
                         f"{' and '.join(_FIXTURE_READERS)} validate one")
    eps4 = pick(args.eps4, "eps4", int)
    eps5 = pick(args.eps5, "eps5", int)
    if getattr(args, "all_signs", False):
        eps4 = eps5 = None
    return RunConfig(
        eps4=eps4,
        eps5=eps5,
        ell=pick(args.ell, "ell", lambda v: Fraction(str(v))),
        g=pick(args.g, "g", lambda v: ExactScalar.parse(str(v))),
        vev=pick(args.vev, "vev", lambda v: Fraction(str(v))),
        seed=pick(args.seed, "seed", int),
        fmt=pick(args.fmt, "format", str, "fmt"),
        out=args.out,
        fixture=fixture,
        timings=getattr(args, "timings", False),
    )


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (0, None):
            return 0
        return 2
    if args.cmd is None:
        parser.print_usage(sys.stderr)
        return 2

    try:
        cfg = resolve_config(args)
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"ncdirac: error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.cmd == "scan":
            rows = checks.cmd_scan(cfg, args.param, args.start, args.stop, args.steps)
            if cfg.fmt == "csv":
                text = checks.render_scan_csv(rows)
            else:
                text = checks.render_json(checks.scan_document(cfg, rows))
            passed = all(r["status"] == "ok" for r in rows)
        else:
            if args.cmd == "check":
                reports = checks.cmd_check_all(cfg)
            else:
                family = args.target if args.cmd == "verify" else args.cmd
                reports = checks.command(family)(cfg)
            if cfg.fmt == "csv":
                text = checks.render_reports_csv(reports)
            else:
                text = checks.render_json(checks.reports_document(cfg, reports))
            passed = all(r.passed for r in reports)
        _emit(text, cfg.out)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"ncdirac: error: {exc}", file=sys.stderr)
        return 2
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
