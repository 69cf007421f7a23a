"""The ``scan`` command and the CSV text of every report.

A scan sweeps one coupling setting over a range and judges each value as
the ``seesaw_spectrum`` row judges its coupling, by ``checks.judged``.
Only ``scan`` and ``--format csv`` import this module.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction

from .checks import SCAN_PARAMS, CheckReport, RunConfig, config_dict, json_value, judged
from .modes import heavy_k2
from .seesaw import CouplingConfig

SCAN_COLUMNS = (
    "param", "value", "eps5", "dispersion_heavy_k2", "light_k2", "heavy_k2",
    "leading_light_mass", "deviation", "status", "error",
)


def cmd_scan(cfg: RunConfig, param: str, start: Fraction, stop: Fraction,
             steps: int) -> list[dict]:
    """One row per parameter value; root-finder failures do not abort."""
    if param not in SCAN_PARAMS:
        raise ValueError(f"scan parameter must be one of {SCAN_PARAMS}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if cfg.eps5 is None:
        raise ValueError("a scan runs at one eps5, not a sweep of both")
    e5 = cfg.eps5
    start, stop = Fraction(start), Fraction(stop)
    if steps == 1 and start != stop:
        raise ValueError("one step needs --from equal to --to")
    values = [
        start + (stop - start) * Fraction(i, max(steps - 1, 1))
        for i in range(steps)
    ]
    rows = []
    for value in values:
        fields = {"ell": cfg.ell, "g": cfg.g, "vev": cfg.vev}
        fields[param] = value
        ell = Fraction(fields["ell"])
        row = {
            "param": param,
            "value": str(value),
            "eps5": e5,
            # no dispersion branch at ell <= 0, which CouplingConfig refuses
            "dispersion_heavy_k2": str(heavy_k2(ell, e5)) if ell > 0 else None,
        }
        try:
            coupling = CouplingConfig(**fields, eps5=e5)
        except ValueError as exc:  # a refused coupling, such as ell <= 0
            ok, deviation, details = False, None, {"error": str(exc)}
        else:
            ok, deviation, details = judged(coupling)
        row.update(
            {key: details.get(key) for key in ("light_k2", "heavy_k2", "leading_light_mass")},
            deviation=deviation,
            status="error" if "error" in details else "ok" if ok else "fail",
            error=details.get("error", details.get("reason")),
        )
        rows.append(row)
    return rows


def scan_document(cfg: RunConfig, rows: list[dict], param: str, start: Fraction,
                  stop: Fraction, steps: int) -> dict:
    """The scan's rows, and a config that echoes the swept range in place
    of the base value of the swept setting, which no row reads."""
    config = config_dict(cfg, "scan")
    del config[param]
    config.update({"param": param, "from": json_value(start), "to": json_value(stop),
                   "steps": steps})
    return {
        "config": config,
        "rows": [{k: json_value(v) for k, v in row.items()} for row in rows],
    }


def _render_csv(header, rows) -> str:
    """The CSV text of a header row and then ``rows``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def render_reports_csv(reports: list[CheckReport]) -> str:
    return _render_csv(
        ("check", "params", "status", "residual", "relation", "duration_ms"),
        ([r.check, ";".join(f"{k}={json_value(v)}" for k, v in sorted(r.params.items())),
          r.status, json_value(r.residual), r.relation, json_value(r.duration_ms)]
         for r in reports),
    )


def render_scan_csv(rows: list[dict]) -> str:
    return _render_csv(SCAN_COLUMNS,
                       ([json_value(row.get(col)) for col in SCAN_COLUMNS] for row in rows))
