"""Command line front end.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
configuration error.  Flags override values from --config; a missing sign
flag means "sweep both signs" for the commands that read one.
"""

from __future__ import annotations

import argparse
import json
import re
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


class _Parser(argparse.ArgumentParser):
    """argparse takes a token that starts with "-" for an option unless it
    looks like a negative number, on some Pythons only -1 or -1.5, so a
    value flag refused -1/2, -1/2+1i and -i.  Here -digit and -.digit start
    a number, and -i is one."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|i$)")


# the flag type, --config reader and help of each setting of checks.READS
_SETTINGS = {
    "eps5": (_sign, int, "extra-direction sign (+1 or -1); default: sweep both, "
                         "but -1 for scan"),
    "ell": (_rational, lambda v: Fraction(str(v)),
            "length scale l as an exact rational, e.g. 1/100"),
    "g": (_coupling, lambda v: ExactScalar.parse(str(v)),
          "coupling, exact complex rational like 3/5+4/5i"),
    "vev": (_rational, lambda v: Fraction(str(v)),
            "scalar background value as an exact rational"),
    "fixture": (str, str, "JSON structure-constant table to validate"),
    "seed": (int, int, "echoed in the report's config only; no check reads it "
                       "(64-bit unsigned)"),
}


def _add_settings(sp: argparse.ArgumentParser, commands, timings: bool = True) -> None:
    """The flags of the settings that ``commands`` read, and the flags every
    command takes."""
    for name, (flag_type, _, help_text) in _SETTINGS.items():
        if any(name in checks.READS[command] for command in commands):
            sp.add_argument(f"--{name}", type=flag_type, default=None, help=help_text)
    sp.add_argument("--format", dest="fmt", choices=("json", "csv"), default=None)
    sp.add_argument("--out", default=None, help="write the report here")
    sp.add_argument("--config", default=None,
                    help="JSON file with defaults for this command's settings "
                         "and format")
    if timings:
        sp.add_argument("--timings", action="store_true",
                        help="include wall-clock durations in reports")


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser of the command line ``argv``: with the subparser of the
    verb ``argv[0]`` names only, or of every verb when it names none, so
    that --help and a usage error list them all."""
    parser = _Parser(
        prog="ncdirac",
        description="verification suite for the deformed relativistic algebra "
                    "and its Dirac sector",
    )
    verbs = [argv[0]] if argv and argv[0] in checks.VERBS else list(checks.VERBS)
    # one verb's usage still lists every verb: an error of this parser,
    # such as an unrecognized argument, prints it (with every verb, the
    # default metavar lists them, and an invalid one is named as "cmd")
    metavar = "{" + ",".join(checks.VERBS) + "}" if len(verbs) == 1 else None
    sub = parser.add_subparsers(dest="cmd", metavar=metavar)

    # one subparser per verb: a verb with targets takes one, and offers the
    # flags of every target's settings; resolve_config refuses a flag that
    # the target does not read
    for verb in verbs:
        commands = [name for name in checks.READS if name.partition(" ")[0] == verb]
        sp = sub.add_parser(verb, help=checks.VERBS[verb])
        targets = [command.partition(" ")[2] for command in commands if " " in command]
        if targets:
            sp.add_argument("target", choices=targets)
        if verb == "scan":
            sp.add_argument("--param", required=True, choices=checks.SCAN_PARAMS)
            sp.add_argument("--from", dest="start", required=True, type=_rational)
            sp.add_argument("--to", dest="stop", required=True, type=_rational)
            sp.add_argument("--steps", required=True, type=int)
        # scan rows carry no durations
        _add_settings(sp, commands, timings=verb != "scan")

    return parser


def _load_config_file(path: str) -> dict:
    """The JSON object in ``path``; text that is not JSON, or JSON that is
    not an object, is a ValueError that names the flag and the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError is one
            raise ValueError(f"--config {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"--config {path}: config file must hold a JSON object")
    return data


def resolve_config(args: argparse.Namespace, command: str) -> RunConfig:
    """The RunConfig of ``command`` from its flags and --config file; a
    setting the command does not read is a usage error."""
    reads = checks.READS[command]
    file_cfg = {}
    if args.config:
        file_cfg = _load_config_file(args.config)
        unknown = set(file_cfg) - {"format", *_SETTINGS}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for name in _SETTINGS:
        if name not in reads and (getattr(args, name, None) is not None
                                  or name in file_cfg):
            readers = [other for other, its in checks.READS.items() if name in its]
            raise ValueError(f"{command} reads no {name} (read by: {', '.join(readers)})")

    def pick(flag, key, convert):
        """The flag, else the config file's value, else None.  An integer
        key takes only a JSON integer: int() would round a float and read a
        bool or a string.  A zero denominator is a usage error that names
        its key, as it is for the flag."""
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
        return None

    values = {name: pick(getattr(args, name), name, _SETTINGS[name][1]) for name in reads}
    values["fmt"] = pick(args.fmt, "format", str)
    if command == "scan" and values["eps5"] is None:
        values["eps5"] = -1  # a scan runs at one sign
    return RunConfig(
        out=args.out,
        timings=getattr(args, "timings", False),
        **{name: value for name, value in values.items() if value is not None},
    )


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
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

    command = " ".join(filter(None, (args.cmd, getattr(args, "target", None))))
    try:
        cfg = resolve_config(args, command)
    except (ValueError, TypeError, OSError) as exc:
        print(f"ncdirac: error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.cmd == "scan":
            from . import scan  # the scan and the CSV renderers load on first use
            sweep = (args.param, args.start, args.stop, args.steps)
            rows = scan.cmd_scan(cfg, *sweep)
            if cfg.fmt == "csv":
                text = scan.render_scan_csv(rows)
            else:
                text = checks.render_json(scan.scan_document(cfg, rows, *sweep))
            passed = all(r["status"] == "ok" for r in rows)
        else:
            reports = checks.command(command)(cfg)
            if cfg.fmt == "csv":
                from .scan import render_reports_csv
                text = render_reports_csv(reports)
            else:
                text = checks.render_json(checks.reports_document(cfg, command, reports))
            passed = all(r.passed for r in reports)
        _emit(text, cfg.out)
    except (ValueError, OSError) as exc:
        print(f"ncdirac: error: {exc}", file=sys.stderr)
        return 2
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
