"""Check-suite drivers with deterministic, machine-readable reports.

Every check produces a CheckReport whose `relation` field states the
identity being verified in plain ASCII.  Reports serialize to JSON with
sorted keys; floats are rendered as 15-significant-digit strings and exact
rationals as "p/q" strings, so a run with a fixed seed is byte-identical.
Timings are opt-in (null by default) to keep that reproducibility.
"""

from __future__ import annotations

import functools
import io
import json
import math
import time
from fractions import Fraction
from itertools import chain

from .scalars import MOMENTUM_SYMBOLS, ExactScalar, ParamPoly, poly, sym
from .lie_algebra import (
    StructureConstants,
    build_deformed_algebra,
    build_orthogonal_algebra,
    contract,
    flat_deformed_algebra,
    jacobi_residual,
    jacobi_triple_count,
    minkowski_square,
    solve_isomorphism_scalings,
)
from .weyl import closure_families
from .enveloping import lemma_matrix_check, verify_plane_wave_relations
from .clifford import (
    VerificationError,
    build_majorana_rep,
    clifford_relations,
    gamma5_product_check,
    majorana_imaginary_check,
)
from .lorentz import lorentz_covariance
from .modes import (
    dispersion_roots,
    reference_solutions,
    residual as mode_residual,
    squared_identity_residual,
)
from .seesaw import (
    CouplingConfig,
    RootFindingError,
    exact_mode_spectrum,
    leading_mass,
    light_mass_leading,
    verify_effective_equation,
)

SIGN_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


class RunConfig:
    """Shared knobs for every check command.  A None sign means
    "sweep both values" (both eps4 values where eps4 matters).  The default
    background vev sits well inside the seesaw regime mu/M << 1."""

    __slots__ = ("eps4", "eps5", "ell", "g", "vev", "order", "seed", "fmt", "out",
                 "fixture", "timings")

    def __init__(self, eps4: int | None = None, eps5: int | None = None,
                 ell: Fraction = Fraction(1), g: ExactScalar = ExactScalar(Fraction(1)),
                 vev: Fraction = Fraction(1, 100), order: int = 4, seed: int = 0,
                 fmt: str = "json", out: str | None = None, fixture: str | None = None,
                 timings: bool = False):
        if eps4 not in (None, 1, -1) or eps5 not in (None, 1, -1):
            raise ValueError("sign parameters must be +1 or -1")
        if not ell > 0:
            raise ValueError("ell must be positive")
        if vev < 0:
            raise ValueError("vev must be nonnegative")
        if order < 1:
            raise ValueError("truncation order must be >= 1")
        if not 0 <= seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if fmt not in ("json", "csv"):
            raise ValueError("format must be json or csv")
        self.eps4, self.eps5, self.ell, self.g, self.vev = eps4, eps5, ell, g, vev
        self.order, self.seed, self.fmt, self.out = order, seed, fmt, out
        self.fixture, self.timings = fixture, timings

    def sign_pairs(self):
        return tuple(
            (e4, e5)
            for e4, e5 in SIGN_PAIRS
            if (self.eps4 is None or e4 == self.eps4)
            and (self.eps5 is None or e5 == self.eps5)
        )

    def eps5_values(self):
        return (1, -1) if self.eps5 is None else (self.eps5,)


class CheckReport:
    """One check's verdict; the runner sets ``duration_ms`` under --timings."""

    __slots__ = ("check", "params", "status", "residual", "relation", "details",
                 "duration_ms")

    def __init__(self, check: str, params: dict, status: str, residual, relation: str,
                 details: dict | None = None, duration_ms: float | None = None):
        self.check, self.params, self.status = check, params, status
        self.residual, self.relation = residual, relation
        self.details = {} if details is None else details
        self.duration_ms = duration_ms

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _fmt(value):
    """Deterministic JSON-friendly rendering of numbers and containers."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return format(value, ".15g")
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (ExactScalar, ParamPoly)):
        return str(value)
    if isinstance(value, complex):
        return format(value.real, ".15g") + ("+" if value.imag >= 0 else "") + format(
            value.imag, ".15g"
        ) + "i"
    if isinstance(value, dict):
        return {str(k): _fmt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    return str(value)


def _row(check, params, ok, relation, residual=None, details=None) -> CheckReport:
    return CheckReport(
        check=check,
        params=dict(params),
        status="pass" if ok else "fail",
        residual=residual,
        relation=relation,
        details=details or {},
    )


def _run(cfg: RunConfig, *families) -> list[CheckReport]:
    """Every report of ``families``, callables of cfg that give reports,
    sorted once by check name and params.

    A family is a generator that yields one finished report per check, so
    with ``cfg.timings`` each report's ``duration_ms`` is the time of the
    step that produced it: that check's own work.  Reports that arrive
    timed (check all runs the public commands) keep their time."""
    clock = time.perf_counter if cfg.timings else None
    reports = []
    for family in families:
        rows = iter(family(cfg))
        while True:
            start = clock() if clock else None
            report = next(rows, None)
            if report is None:
                break
            if clock and report.duration_ms is None:
                report.duration_ms = (clock() - start) * 1000.0
            reports.append(report)
    return sorted(
        reports, key=lambda r: (r.check, json.dumps(_fmt(r.params), sort_keys=True))
    )


def _command(family):
    """The public command of a family generator: its reports through the
    runner, as a list."""
    @functools.wraps(family)
    def run(cfg: RunConfig) -> list[CheckReport]:
        return _run(cfg, family)
    return run


# -- algebra ---------------------------------------------------------------

_P_RANGE = range(6, 10)
_X_RANGE = range(10, 14)
_ISO_RELATION = ("phi([a,b]) = [phi(a), phi(b)] with P -> alpha*M_mu4, "
                 "x -> beta*M_mu5, C -> gamma*M45")


@_command
def cmd_verify_algebra(cfg: RunConfig):
    # the rho -> 0 table does not depend on eps4, nor the l -> 0 table on
    # eps5: check each once per sign it keeps
    rho_limit: dict[int, tuple[bool, list]] = {}
    ell_limit: dict[int, tuple[bool, list]] = {}
    for e4, e5 in cfg.sign_pairs():
        params = {"eps4": e4, "eps5": e5}

        alg = build_deformed_algebra(e4, e5)
        violations = jacobi_residual(alg)
        yield _row(
            "jacobi_deformed", params,
            ok=not violations,
            relation="[[a,b],c] + [[b,c],a] + [[c,a],b] = 0",
            residual=len(violations),
            details={
                "triples": jacobi_triple_count(alg),
                "violations": len(violations),
                "first_violation": list(violations[0][0]) if violations else None,
            },
        )

        ortho = build_orthogonal_algebra(e4, e5)
        oviol = jacobi_residual(ortho)
        yield _row(
            "jacobi_orthogonal", params,
            ok=not oviol,
            relation="[[a,b],c] + [[b,c],a] + [[c,a],b] = 0",
            residual=len(oviol),
            details={"triples": jacobi_triple_count(ortho), "violations": len(oviol)},
        )

        try:
            sol = solve_isomorphism_scalings(e4, e5)
        except ArithmeticError as exc:
            # no sign choice passes: a fail row, and the run goes on
            yield _row("isomorphism", params, ok=False, relation=_ISO_RELATION,
                       details={"passing_sign_choices": [], "error": str(exc)})
        else:
            iso = sol.check
            yield _row(
                "isomorphism", params,
                ok=iso.ok and iso.invertible and len(sol.passing_sign_choices) == 4,
                relation=_ISO_RELATION,
                residual=len(iso.mismatches),
                details={
                    "alpha": str(sol.alpha),
                    "beta": str(sol.beta),
                    "gamma": str(sol.gamma),
                    "invertible": iso.invertible,
                    "passing_sign_choices": [list(s) for s in sol.passing_sign_choices],
                    "mismatched_brackets": len(iso.mismatches),
                },
            )

        if e5 not in rho_limit:
            flat_rho = flat_deformed_algebra(e5)
            rho_limit[e5] = (
                all(not flat_rho.bracket(i, j) for i in _P_RANGE for j in _P_RANGE if i < j),
                jacobi_residual(flat_rho),
            )
        if e4 not in ell_limit:
            flat_ell = contract(alg, ell_to_zero=True)
            ell_limit[e4] = (
                all(not flat_ell.bracket(i, j) for i in _X_RANGE for j in _X_RANGE if i < j),
                jacobi_residual(flat_ell),
            )
        pp_vanish, rho_viol = rho_limit[e5]
        xx_vanish, ell_viol = ell_limit[e4]
        yield _row(
            "contraction", params,
            ok=pp_vanish and xx_vanish and not rho_viol and not ell_viol,
            relation="rho -> 0 flattens [p,p]; l -> 0 flattens [x,x]; "
                     "Jacobi survives both limits",
            residual=len(rho_viol) + len(ell_viol),
            details={
                "momentum_brackets_vanish": pp_vanish,
                "coordinate_brackets_vanish": xx_vanish,
                "jacobi_violations_rho_limit": len(rho_viol),
                "jacobi_violations_ell_limit": len(ell_viol),
            },
        )

    if cfg.fixture:
        with open(cfg.fixture, "r", encoding="utf-8") as fh:
            table = StructureConstants.from_json(json.load(fh))
        violations = jacobi_residual(table)
        yield _row(
            "jacobi_fixture", {"basis_dim": table.dim()},
            ok=not violations,
            relation="[[a,b],c] + [[b,c],a] + [[c,a],b] = 0",
            residual=len(violations),
            details={
                "path": cfg.fixture,
                "triples": jacobi_triple_count(table),
                "violations": len(violations),
                "first_violation": list(violations[0][0]) if violations else None,
                "first_residual": (
                    {table.basis[i]: str(c) for i, c in violations[0][1].items()}
                    if violations
                    else None
                ),
            },
        )


# -- differential realization ----------------------------------------------


@_command
def cmd_verify_rep(cfg: RunConfig):
    for e5 in cfg.eps5_values():
        for fam, rows in closure_families(e5):
            bad = [pair for pair, r in rows if not r.is_zero()]
            yield _row(
                f"rep_closure_{fam}", {"eps5": e5, "family": fam},
                ok=not bad,
                relation="[rep(a), rep(b)] = rep([a, b])",
                residual=len(bad),
                details={"pairs": len(rows), "violations": len(bad),
                         "first_violation": list(bad[0]) if bad else None},
            )


# -- gamma matrices ----------------------------------------------------------


@_command
def cmd_verify_clifford(cfg: RunConfig):
    for e5 in cfg.eps5_values():
        rep = build_majorana_rep(e5)
        # each relation and each product check runs in its own step
        results = chain(
            clifford_relations(rep),
            (check(rep) for check in (gamma5_product_check, majorana_imaginary_check)),
        )
        for rc in results:
            yield _row(
                f"clifford_{rc.name}", {"eps5": e5},
                ok=rc.ok, relation=rc.relation, residual=rc.residual,
            )


# -- plane wave ---------------------------------------------------------------


def _remainder_detail(rems, order):
    zero = all(r.is_zero() for r in rems)
    degrees = [r.min_ell_degree() for r in rems if not r.is_zero()]
    ok = zero or all(d is not None and d >= order + 1 for d in degrees)
    return ok, {
        "exactly_zero": zero,
        "min_ell_degree": min(degrees) if degrees else None,
    }


@_command
def cmd_verify_planewave(cfg: RunConfig):
    half = ExactScalar(Fraction(1, 2))
    for e5 in cfg.eps5_values():
        params = {"eps5": e5, "order": cfg.order}
        # the check computes each identity when its row reads it
        chk = verify_plane_wave_relations(e5, cfg.order)
        ok, det = _remainder_detail(chk.momentum_remainders, cfg.order)
        yield _row("planewave_momentum", params, ok=ok,
                   relation="[p_mu, A] = k_mu", details=det)

        yield _row(
            "planewave_centrality", params,
            ok=not chk.centrality_remainders,
            relation="[[p_mu, A], X] = 0 for every generator X",
            residual=len(chk.centrality_remainders),
            details={"violations": len(chk.centrality_remainders)},
        )

        ok, det = _remainder_detail([chk.derivative_remainder], cfg.order)
        yield _row("planewave_derivative", params, ok=ok,
                   relation="d4(A) = i*eps5*l*(k.p)", details=det)

        ok, det = _remainder_detail([chk.mixed_remainder], cfg.order)
        yield _row("planewave_mixed", params, ok=ok,
                   relation="[A, d4(A)] = -i*eps5*l*k^2", details=det)

        expect = (
            ParamPoly.from_scalar(ExactScalar(Fraction(0), Fraction(1)))
            * poly(e5) * sym("l") * minkowski_square(MOMENTUM_SYMBOLS) * poly(half)
        )
        ok = chk.vacuum_scalar == expect
        yield _row(
            "planewave_vacuum", params, ok=ok,
            relation="(d4(A) + (1/2)[A, d4(A)]) on the vacuum = i*eps5*l*k^2/2",
            details={"value": str(chk.vacuum_scalar)},
        )

        res = lemma_matrix_check(e5)
        worst = max(res.values())
        yield _row(
            "planewave_lemma", params,
            ok=worst == 0,
            relation="[p, e^A] = [p, A] e^A and d(e^A) = (dA + (1/2)[A, dA]) e^A "
                     "on a nilpotent matrix model",
            residual=worst,
            details=res,
        )


# -- dispersion and modes -----------------------------------------------------


@_command
def cmd_modes(cfg: RunConfig):
    for e5 in cfg.eps5_values():
        params = {"ell": str(cfg.ell), "eps5": e5}

        identity = squared_identity_residual(e5)
        yield _row(
            "dispersion_identity", {"eps5": e5},
            ok=identity.is_zero(),
            relation="D(k)^2 = (k^2 + eps5*(l^2/4)*(k^2)^2) * Id",
        )

        roots = dispersion_roots(cfg.ell, e5)
        expected = {Fraction(0), Fraction(-4 * e5) / Fraction(cfg.ell) ** 2}
        yield _row(
            "dispersion_roots", params,
            ok=roots == expected,
            relation="k^2 * (1 + eps5*(l^2/4)*k^2) = 0",
            details={"roots": sorted(str(r) for r in roots)},
        )

        sweep = {}
        sweep_ok = True
        for ell in (Fraction(1, 2), Fraction(1), Fraction(2)):
            got = dispersion_roots(ell, e5)
            want = {Fraction(0), Fraction(-4 * e5) / ell ** 2}
            sweep[str(ell)] = sorted(str(r) for r in got)
            sweep_ok = sweep_ok and got == want
        yield _row(
            "dispersion_sweep", {"eps5": e5},
            ok=sweep_ok,
            relation="heavy root equals -eps5*4/l^2 exactly at l in {1/2, 1, 2}",
            details=sweep,
        )

        for branch, want in (("heavy", "Dirac" if e5 == -1 else "Majorana"),
                             ("massless", "Majorana")):
            try:
                sol = reference_solutions(cfg.ell, e5, branch)
                worst = max(mode_residual(sol.k, u, sol.ell, e5) for u in sol.basis)
                ok = sol.spinor_class == want and worst == 0.0
                details = {"k": [str(c) for c in sol.k],
                           "nullspace_dim": len(sol.basis), "class": sol.spinor_class}
                if branch == "heavy":
                    details.update(k2=str(sol.k2), expected_class=want)
            except VerificationError as exc:
                ok, worst, details = False, None, {"error": str(exc)}
            yield _row(
                f"modes_reference_{branch}", params, ok=ok,
                relation=f"D(k) u = 0 with dim ker = 2 on the {branch} branch",
                residual=worst, details=details,
            )

        covariance = lorentz_covariance(e5)
        yield _row(
            "modes_lorentz_generators", {"eps5": e5},
            ok=covariance["failure"] is None,
            relation="S_munu = (1/4)[g^mu, g^nu]: [S_munu, g^s] = g^r (L_munu)^r_s,"
                     " [S_munu, g^4] = 0 and [S_munu, D(k)] = (L_munu k).grad D(k),"
                     " k and l symbolic",
            details=covariance,
        )


# -- seesaw -------------------------------------------------------------------


def seesaw_verdict(coupling: CouplingConfig, spectrum) -> tuple[bool, float, float]:
    """(ok, deviation tolerance, mu/M) for one exact spectrum: the light
    mass within max(2 (mu/M)^2, 1e-12) of its leading value, the heavy mass
    within 2 (mu/M)^2 of M = 2/l, and the light class unset or the one the
    leading order predicts."""
    big_m = 2.0 / float(coupling.ell)
    ratio = coupling.mu() / big_m
    tol = max(2.0 * ratio * ratio, 1e-12)
    heavy_drift = abs(math.sqrt(abs(spectrum.heavy_k2)) - big_m) / big_m
    ok = (
        spectrum.deviation <= tol
        and heavy_drift <= 2.0 * ratio * ratio + 1e-12
        and spectrum.light_class in (None, light_mass_leading(coupling)[1])
    )
    return ok, tol, ratio


@_command
def cmd_seesaw(cfg: RunConfig):
    for e5 in cfg.eps5_values():
        coupling = CouplingConfig(g=cfg.g, vev=cfg.vev, ell=cfg.ell, eps5=e5)
        params = {
            "ell": str(cfg.ell), "eps5": e5, "g": str(cfg.g), "vev": str(cfg.vev),
        }

        k2, cls = light_mass_leading(coupling)
        mass = leading_mass(coupling)
        yield _row(
            "seesaw_leading", params,
            ok=True,
            relation="m = |g|^2 vev^2 l / 2; k^2 = -eps5 * m^2",
            details={"mass": mass, "k2": k2, "class": cls},
        )

        eff = verify_effective_equation(coupling)
        class_ok = eff.rest_frame_class in (None, cls)
        yield _row(
            "seesaw_effective", params,
            ok=eff.identity_ok and class_ok,
            relation="g.k - eps5*|g|^2*vev^2*(l/2)*g4 reproduces the printed "
                     "gamma5 mass term",
            details={
                "identity_exact": eff.identity_ok,
                "rest_frame_class": eff.rest_frame_class,
                "expected_class": cls,
            },
        )

        try:
            spectrum = exact_mode_spectrum(coupling)
        except RootFindingError as exc:
            ok, residual = False, None
            details = {"error": str(exc), "diagnostics": _fmt(exc.diagnostics)}
        else:
            ok, tol, ratio = seesaw_verdict(coupling, spectrum)
            residual = spectrum.deviation
            details = {
                "deviation_tolerance": tol,
                "leading_light_mass": spectrum.leading_light_mass,
                "light_k2": spectrum.light_k2,
                "heavy_k2": spectrum.heavy_k2,
                "heavy_k2_exact": spectrum.heavy_k2_exact,
                "light_class": spectrum.light_class,
                "heavy_class": spectrum.heavy_class,
                "roots": list(spectrum.roots),
                "mu_over_M": ratio,
            }
        yield _row(
            "seesaw_spectrum", params, ok=ok,
            relation="light root of det(coupled matrix) matches "
                     "|g|^2 vev^2 l/2 to second order in mu/M",
            residual=residual, details=details,
        )

        # quadratic convergence sweep: mu/M = 1e-2 then 1e-3, unit coupling
        sweep_details = {}
        sweep_ok = True
        for sweep_ratio, bound in ((Fraction(1, 100), 1e-3), (Fraction(1, 1000), 1e-5)):
            probe = CouplingConfig(
                g=ExactScalar(Fraction(1)),
                vev=2 * sweep_ratio / cfg.ell,
                ell=cfg.ell,
                eps5=e5,
            )
            try:
                sw = exact_mode_spectrum(probe)
            except RootFindingError as exc:
                sweep_ok = False
                sweep_details[str(sweep_ratio)] = {"error": str(exc)}
                continue
            scaling = sw.deviation / float(sweep_ratio) ** 2
            sweep_ok = sweep_ok and sw.deviation < bound and scaling <= 2.0
            sweep_details[str(sweep_ratio)] = {
                "deviation": sw.deviation,
                "bound": bound,
                "scaling_constant": scaling,
            }
        yield _row(
            "seesaw_convergence",
            {"ell": str(cfg.ell), "eps5": e5},
            ok=sweep_ok,
            relation="deviation from leading mass scales as (mu/M)^2 "
                     "with constant <= 2",
            details=sweep_details,
        )

        free = CouplingConfig(
            g=ExactScalar(Fraction(0)), vev=cfg.vev, ell=cfg.ell, eps5=e5
        )
        try:
            sw0 = exact_mode_spectrum(free)
            heavy_expected = Fraction(-4 * e5) / Fraction(cfg.ell) ** 2
            decouple_ok = (
                sw0.heavy_k2_exact == heavy_expected
                and sw0.light_k2_exact == Fraction(0)
            )
            details = {
                "heavy_k2_exact": sw0.heavy_k2_exact,
                "light_k2_exact": sw0.light_k2_exact,
                "expected_heavy_k2": heavy_expected,
            }
        except RootFindingError as exc:
            decouple_ok, details = False, {"error": str(exc)}
        yield _row(
            "seesaw_decoupling",
            {"ell": str(cfg.ell), "eps5": e5},
            ok=decouple_ok,
            relation="at g = 0 the heavy root equals -eps5*4/l^2 exactly "
                     "and the light root is 0",
            details=details,
        )


# -- scans --------------------------------------------------------------------

SCAN_PARAMS = ("ell", "g", "vev")
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
    e5 = -1 if cfg.eps5 is None else cfg.eps5
    start, stop = Fraction(start), Fraction(stop)
    values = [
        start + (stop - start) * Fraction(i, max(steps - 1, 1))
        for i in range(steps)
    ]
    rows = []
    for value in values:
        fields = {"ell": cfg.ell, "g": cfg.g, "vev": cfg.vev}
        fields[param] = value
        row = {
            "param": param,
            "value": str(value),
            "eps5": e5,
            "dispersion_heavy_k2": str(Fraction(-4 * e5) / Fraction(fields["ell"]) ** 2),
        }
        try:
            coupling = CouplingConfig(
                g=fields["g"], vev=fields["vev"], ell=fields["ell"], eps5=e5
            )
            spectrum = exact_mode_spectrum(coupling)
            row.update(
                light_k2=spectrum.light_k2,
                heavy_k2=spectrum.heavy_k2,
                leading_light_mass=spectrum.leading_light_mass,
                deviation=spectrum.deviation,
                status="ok" if seesaw_verdict(coupling, spectrum)[0] else "fail",
                error=None,
            )
        except (RootFindingError, ValueError) as exc:
            row.update(
                light_k2=None, heavy_k2=None, leading_light_mass=None,
                deviation=None, status="error", error=str(exc),
            )
        rows.append(row)
    return rows


# -- commands -----------------------------------------------------------------

# the report families in the order check all runs them; the first four are
# the targets of ``verify``
VERIFY_FAMILIES = ("algebra", "rep", "clifford", "planewave")
FAMILIES = VERIFY_FAMILIES + ("modes", "seesaw")


def command(family: str):
    """The public command of one family, looked up when called, so that a
    wrapper installed on this module (a profiler's span) is what runs."""
    verb = "verify_" if family in VERIFY_FAMILIES else ""
    return globals()[f"cmd_{verb}{family}"]


def cmd_check_all(cfg: RunConfig) -> list[CheckReport]:
    return _run(cfg, *map(command, FAMILIES))


# -- serialization ------------------------------------------------------------


def config_dict(cfg: RunConfig) -> dict:
    out = {
        "eps4": cfg.eps4,
        "eps5": cfg.eps5,
        "ell": str(cfg.ell),
        "g": str(cfg.g),
        "vev": str(cfg.vev),
        "order": cfg.order,
        "seed": cfg.seed,
        "format": cfg.fmt,
    }
    if cfg.fixture:
        out["fixture"] = cfg.fixture
    return out


def report_dict(report: CheckReport) -> dict:
    return {
        "check": report.check,
        "params": _fmt(report.params),
        "status": report.status,
        "residual": _fmt(report.residual),
        "relation": report.relation,
        "details": _fmt(report.details),
        "duration_ms": _fmt(report.duration_ms),
    }


def reports_document(cfg: RunConfig, reports: list[CheckReport]) -> dict:
    passed = sum(1 for r in reports if r.passed)
    return {
        "config": config_dict(cfg),
        "reports": [report_dict(r) for r in reports],
        "summary": {
            "total": len(reports),
            "passed": passed,
            "failed": len(reports) - passed,
        },
    }


def render_json(document: dict) -> str:
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def render_reports_csv(reports: list[CheckReport]) -> str:
    import csv  # only --format csv needs it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["check", "params", "status", "residual", "relation", "duration_ms"]
    )
    for r in reports:
        params = ";".join(
            f"{k}={_fmt(v)}" for k, v in sorted(r.params.items())
        )
        writer.writerow(
            [r.check, params, r.status, _fmt(r.residual), r.relation,
             _fmt(r.duration_ms)]
        )
    return buf.getvalue()


def scan_document(cfg: RunConfig, rows: list[dict]) -> dict:
    return {
        "config": config_dict(cfg),
        "rows": [{k: _fmt(v) for k, v in row.items()} for row in rows],
    }


def render_scan_csv(rows: list[dict]) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SCAN_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(row.get(col)) for col in SCAN_COLUMNS])
    return buf.getvalue()
