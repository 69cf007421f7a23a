"""Check-suite drivers with deterministic, machine-readable reports.

Every check produces a CheckReport whose `relation` field states the
identity being verified in plain ASCII.  Reports serialize to JSON with
sorted keys; floats are rendered as 15-significant-digit strings and exact
rationals as "p/q" strings, so a run with a fixed seed is byte-identical.
Timings are opt-in (null by default) to keep that reproducibility.
"""

from __future__ import annotations

import functools
import json
import time
from fractions import Fraction
from itertools import chain, combinations
from operator import attrgetter

from .scalars import ExactScalar
from .lie_algebra import (
    P_LABELS,
    X_LABELS,
    StructureConstants,
    build_deformed_algebra,
    contract,
    flat_deformed_algebra,
    jacobi_residual,
    jacobi_triple_count,
    quarter,
    solve_isomorphism_scalings,
)
from .weyl import closure_families
from .enveloping import lemma_matrix_check, verify_plane_wave_relations
from .clifford import (
    VerificationError,
    clifford_relations,
    gamma5_product_check,
    majorana_imaginary_check,
)
from .modes import (
    MASSLESS_CLASS,
    dispersion_roots,
    heavy_k2,
    heavy_mass,
    lorentz_covariance,
    massive_class,
    operator_residual,
    reference_solutions,
    scaling_residual,
    squared_identity_residual,
)
from .seesaw import (
    CouplingConfig,
    RootFindingError,
    exact_mode_spectrum,
    leading_mass,
    light_mass_leading,
    seesaw_verdict,
    verify_effective_equation,
)

class RunConfig:
    """Shared knobs for every check command.  A None eps5 means "sweep both
    signs".  The default background vev sits well inside the seesaw regime
    mu/M << 1."""

    __slots__ = ("eps5", "ell", "g", "vev", "seed", "fmt", "out", "fixture", "timings")

    def __init__(self, eps5: int | None = None,
                 ell: Fraction = Fraction(1), g: ExactScalar = ExactScalar(Fraction(1)),
                 vev: Fraction = Fraction(1, 100), seed: int = 0,
                 fmt: str = "json", out: str | None = None, fixture: str | None = None,
                 timings: bool = False):
        if eps5 is not None:
            quarter(eps5)
        if not ell > 0:
            raise ValueError("ell must be positive")
        if vev < 0:
            raise ValueError("vev must be nonnegative")
        if not 0 <= seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if fmt not in ("json", "csv"):
            raise ValueError("format must be json or csv")
        for name, path in (("out", out), ("fixture", fixture)):
            if path == "":
                raise ValueError(f"{name} must name a file, not be empty")
        self.eps5, self.ell, self.g, self.vev = eps5, ell, g, vev
        self.seed, self.fmt, self.out = seed, fmt, out
        self.fixture, self.timings = fixture, timings

    def eps5_values(self):
        return (1, -1) if self.eps5 is None else (self.eps5,)


# Each report family once, in the order check all runs them: the command
# that runs it alone and the settings its rows read.  ``command`` finds
# each command's function by its name.
FAMILIES = {
    "algebra": ("verify algebra", ("fixture",)),
    "rep": ("verify rep", ()),
    "clifford": ("verify clifford", ()),
    "planewave": ("verify planewave", ()),
    "modes": ("modes", ("eps5",)),
    "seesaw": ("seesaw", ("eps5", "ell", "g", "vev")),
}

# The settings each command's rows read: the command line offers a command
# only these (with --format, --out and --config, and --timings everywhere
# but scan), refuses any other as a flag or a --config key, and the
# report's config echoes exactly these and the format (a scan echoes its
# range for the setting it sweeps).  A scan reads seesaw's; check all its
# families', and it echoes the seed, which no check reads.
READS = dict(FAMILIES.values())
READS["scan"] = READS["seesaw"]
READS["check all"] = (*dict.fromkeys(chain.from_iterable(READS.values())), "seed")
SCAN_PARAMS = ("ell", "g", "vev")  # the settings a scan sweeps, one per run

# the help of each verb of the command line, in the order it lists them
VERBS = {
    "verify": "run one family of identity checks",
    "modes": "dispersion roots and spinor modes",
    "seesaw": "coupled light/heavy mass checks",
    "scan": "sweep one parameter over a range",
    "check": "run every check family",
}


class CheckReport:
    """One check's verdict, pass or fail by ``ok``, on a copy of ``params``;
    the runner sets ``duration_ms`` under --timings."""

    __slots__ = ("check", "params", "status", "residual", "relation", "details",
                 "duration_ms")

    def __init__(self, check: str, params: dict, ok: bool, relation: str,
                 residual=None, details: dict | None = None):
        self.check, self.params = check, dict(params)
        self.status = "pass" if ok else "fail"
        self.residual, self.relation = residual, relation
        self.details = {} if details is None else details
        self.duration_ms = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def json_value(value):
    """Deterministic JSON rendering of numbers and containers; an exact number as its str."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return format(value, ".15g")
    if isinstance(value, dict):
        return {str(k): json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_value(v) for v in value]
    return str(value)


def _order(report: CheckReport) -> tuple:
    """The sort key of every report list: check name, then params."""
    return report.check, json.dumps(json_value(report.params), sort_keys=True)


def _command(family):
    """The public command of ``family``, a generator of cfg that yields one
    finished report per check: its reports as a list sorted by ``_order``.
    With ``cfg.timings`` each report's ``duration_ms`` is the time of the
    step that produced it: that check's own work."""
    @functools.wraps(family)
    def run(cfg: RunConfig) -> list[CheckReport]:
        reports = []
        start = time.perf_counter()
        for report in family(cfg):
            if cfg.timings:
                now = time.perf_counter()
                report.duration_ms, start = (now - start) * 1000.0, now
            reports.append(report)
        return sorted(reports, key=_order)
    return run


# -- algebra ---------------------------------------------------------------


def _commute(table: StructureConstants, labels) -> bool:
    """Whether the generators named ``labels`` commute pairwise in ``table``."""
    index = [table.index[name] for name in labels]
    return all(not table.bracket(i, j) for i, j in combinations(index, 2))


def _jacobi_row(check: str, params: dict, table: StructureConstants,
                details, carried: str = "") -> CheckReport:
    """The Jacobi row of ``table``: it passes when no triple is violated,
    and ``details(violations)`` adds to the counts what the row reports of
    the violations, ``jacobi_residual``'s list; ``carried`` ends the
    relation."""
    violations = jacobi_residual(table)
    return CheckReport(
        check, params,
        ok=not violations,
        relation="[[a,b],c] + [[b,c],a] + [[c,a],b] = 0" + carried,
        residual=len(violations),
        details={"triples": jacobi_triple_count(table), "violations": len(violations),
                 **details(violations)},
    )


def _first_violation(violations) -> dict:
    return {"first_violation": list(violations[0][0]) if violations else None}


# The four sign pairs are real forms of one complex algebra.  A complex
# identity is decided once, at eps5 = +1 (eps4 = eps5 = 1 for the algebra),
# and says in its relation what carries it to the other signs: the twist
# by which its family builds the data there from the data at +1.  Such a
# row keeps the params it ran at and is in every view of its family.
_TWISTED = ("; at eps4 = eps5 = 1: every other sign pair's table is its twist "
            "rho -> eps4*rho, l -> i*l, which keeps it")


def _twisted(rows, twist: str):
    """The ``rows``, decided at eps5 = 1, each relation naming the ``twist``
    that builds the eps5 = -1 data from the +1 data."""
    for row in rows:
        row.relation += f"; at eps5 = 1: the eps5 = -1 data is its twist {twist}, which keeps it"
        yield row


@_command
def cmd_verify_algebra(cfg: RunConfig):
    params = {"eps4": 1, "eps5": 1}
    # the orthogonal table's Jacobi identity is not a row of its own:
    # isomorphism maps this table, at rho = r^2, onto it invertibly
    alg = build_deformed_algebra(1, 1)
    yield _jacobi_row("jacobi_deformed", params, alg, _first_violation, _TWISTED)

    # a contraction is a substitution, a ring homomorphism, so each limit
    # keeps the Jacobi identity jacobi_deformed proves
    pp_vanish = _commute(flat_deformed_algebra(1), P_LABELS)
    xx_vanish = _commute(contract(alg, ell_to_zero=True), X_LABELS)
    yield CheckReport(
        "contraction", params,
        ok=pp_vanish and xx_vanish,
        relation="rho -> 0 flattens [p,p]; l -> 0 flattens [x,x]" + _TWISTED,
        details={
            "momentum_brackets_vanish": pp_vanish,
            "coordinate_brackets_vanish": xx_vanish,
        },
    )

    # the map keeps its formula (r, l, -r*l) at every pair: the twist of the
    # source's r and l turns each image by its target's basis phase
    try:
        sol = solve_isomorphism_scalings(1, 1)
    except ArithmeticError as exc:
        # no sign choice passes: a fail row, and the run goes on
        ok, residual = False, None
        details = {"passing_sign_choices": [], "error": str(exc)}
    else:
        # a returned solution is an invertible map that matches every
        # bracket; the row fails only when a sign choice is missing
        ok, residual = len(sol.passing_sign_choices) == 4, 0
        details = {
            "alpha": str(sol.alpha), "beta": str(sol.beta), "gamma": str(sol.gamma),
            "invertible": True,
            "passing_sign_choices": [list(s) for s in sol.passing_sign_choices],
            "mismatched_brackets": 0,
        }
    yield CheckReport(
        "isomorphism", params, ok=ok,
        relation="phi([a,b]) = [phi(a), phi(b)] with P -> alpha*M_mu4, "
                 "x -> beta*M_mu5, C -> gamma*M45; at eps4 = eps5 = 1: every other "
                 "sign pair's source is its twist r -> i*r (eps4 = -1), l -> i*l "
                 "(eps5 = -1), its target the twist M_a4 -> i*M_a4 (eps4 = -1), "
                 "M_a5 -> i*M_a5 (eps5 = -1), and the map keeps its formula",
        residual=residual, details=details,
    )

    if cfg.fixture:
        with open(cfg.fixture, "r", encoding="utf-8") as fh:
            try:
                table = StructureConstants.from_json(json.load(fh))
            except ValueError as exc:  # JSONDecodeError is one
                raise ValueError(f"--fixture {cfg.fixture}: {exc}") from None
        yield _jacobi_row(
            "jacobi_fixture", {"basis_dim": table.dim()}, table,
            lambda violations: {
                "path": cfg.fixture,
                **_first_violation(violations),
                "first_residual": (
                    {table.basis[i]: str(c) for i, c in violations[0][1].items()}
                    if violations
                    else None
                ),
            },
        )


# -- differential realization ----------------------------------------------


def _closure_rows():
    for fam, rows in closure_families(1):
        bad = [pair for pair, r in rows if not r.is_zero()]
        yield CheckReport(
            f"rep_closure_{fam}", {"eps5": 1, "family": fam},
            ok=not bad,
            relation="[rep(a), rep(b)] = rep([a, b])",
            residual=len(bad),
            details={"pairs": len(rows), "violations": len(bad),
                     "first_violation": list(bad[0]) if bad else None},
        )


@_command
def cmd_verify_rep(cfg: RunConfig):
    return _twisted(_closure_rows(), "l -> i*l, xi4 -> i*xi4, d4 -> -i*d4")


# -- gamma matrices ----------------------------------------------------------


@_command
def cmd_verify_clifford(cfg: RunConfig):
    # each relation and each product check runs in its own step
    results = chain(
        clifford_relations(1),
        (check(1) for check in (gamma5_product_check, majorana_imaginary_check)),
    )
    return _twisted((CheckReport(f"clifford_{rc.name}", {"eps5": 1}, ok=rc.ok,
                                 relation=rc.relation, residual=rc.residual) for rc in results),
                    "g4 -> i*g4")


# -- plane wave ---------------------------------------------------------------


def _remainder_row(check: str, params: dict, relation: str, rems) -> CheckReport:
    """A row of exact identities: it passes only when every remainder is 0."""
    zero = all(r.is_zero() for r in rems)
    return CheckReport(check, params, ok=zero, relation=relation,
                       details={"exactly_zero": zero})


def _plane_wave_rows():
    params = {"eps5": 1}
    # the check computes each identity when its row reads it; once
    # [p_mu, A] is the scalar k_mu, [[p_mu, A], X] = 0 needs no row
    chk = verify_plane_wave_relations(1)
    yield _remainder_row("planewave_momentum", params, "[p_mu, A] = k_mu",
                         chk.momentum_remainders)

    yield _remainder_row("planewave_derivative", params, "d4(A) = i*eps5*l*(k.p)",
                         [chk.derivative_remainder])

    yield _remainder_row("planewave_mixed", params, "[A, d4(A)] = -i*eps5*l*k^2",
                         [chk.mixed_remainder])

    yield CheckReport(
        "planewave_vacuum", params, ok=chk.vacuum_remainder.is_zero(),
        relation="(d4(A) + (1/2)[A, d4(A)]) on the vacuum = i*eps5*l*k^2/2",
        details={"value": str(chk.vacuum_scalar)},
    )

    res = lemma_matrix_check(1)
    worst = max(res.values())
    yield CheckReport(
        "planewave_lemma", params,
        ok=worst == 0,
        relation="[p, e^A] = [p, A] e^A and d(e^A) = (dA + (1/2)[A, dA]) e^A "
                 "on a nilpotent model",
        residual=worst,
        details=res,
    )


@_command
def cmd_verify_planewave(cfg: RunConfig):
    return _twisted(_plane_wave_rows(), "l -> i*l, d4 -> i*d4")


# -- dispersion and modes -----------------------------------------------------


# the roots and the reference kernels run at l = 2, M = 1: modes_scaling
# carries them to every l > 0, and the massless kernel, at k^2 = 0, reads no l
_MODES_ELL = Fraction(2)
_CARRIED = "at l = 2; modes_scaling carries it to every l > 0"


def _operator_rows():
    params = {"eps5": 1}
    yield CheckReport(
        "dispersion_identity", params,
        ok=squared_identity_residual(1).is_zero(),
        relation="D(k)^2 = (k^2 + eps5*(l^2/4)*(k^2)^2) * Id",
    )

    yield CheckReport(
        "modes_scaling", params,
        ok=scaling_residual(1).is_zero(),
        relation="s*D(k; s*l) = D(s*k; l) with k, l and s symbolic",
    )

    covariance = lorentz_covariance(1)
    yield CheckReport(
        "modes_lorentz_generators", params,
        ok=covariance["failure"] is None,
        relation="S_munu = (1/4)[g^mu, g^nu]: [S_munu, g^s] = g^r (L_munu)^r_s,"
                 " [S_munu, g^4] = 0 and [S_munu, D(k)] = (L_munu k).grad D(k),"
                 " k and l symbolic",
        details=covariance,
    )

    # at k^2 = 0 the g^4 term of D(k) vanishes: the massless kernel is the
    # same at either eps5
    yield _reference_row(1, "massless", MASSLESS_CLASS)


def _reference_row(eps5: int, branch: str, want: str) -> CheckReport:
    """The row of the reference kernel of ``branch`` at ``eps5``, whose
    class must be ``want``."""
    try:
        sol = reference_solutions(_MODES_ELL, eps5, branch)
        worst = max(operator_residual(sol.operator, u) for u in sol.basis)
        ok = sol.spinor_class == want and worst == 0.0
        details = {"k": [str(c) for c in sol.k],
                   "nullspace_dim": len(sol.basis), "class": sol.spinor_class}
        if branch == "heavy":
            details.update(k2=str(sol.k2), expected_class=want)
    except VerificationError as exc:
        ok, worst, details = False, None, {"error": str(exc)}
    return CheckReport(
        f"modes_reference_{branch}", {"eps5": eps5}, ok=ok,
        relation=f"D(k) u = 0 with dim ker = 2 on the {branch} branch {_CARRIED}",
        residual=worst, details=details,
    )


@_command
def cmd_modes(cfg: RunConfig):
    yield from _twisted(_operator_rows(), "l -> -i*l")

    # the roots and the heavy kernel are real-form facts: one set per sign
    for e5 in cfg.eps5_values():
        roots = dispersion_roots(_MODES_ELL, e5)
        yield CheckReport(
            "dispersion_roots", {"eps5": e5},
            ok=roots == {0, heavy_k2(_MODES_ELL, e5)},
            relation=f"k^2 * (1 + eps5*(l^2/4)*k^2) = 0 {_CARRIED}",
            details={"roots": sorted(str(r) for r in roots)},
        )
        yield _reference_row(e5, "heavy", massive_class(e5))


# -- seesaw -------------------------------------------------------------------


def judged(coupling: CouplingConfig) -> tuple:
    """(ok, deviation, details) of the ``seesaw_spectrum`` row of
    ``coupling``, or on RootFindingError (False, None, its error and
    diagnostics).  The one place a configured coupling's spectrum is
    computed and judged: every scan row reads it too."""
    try:
        spectrum = exact_mode_spectrum(coupling)
        ok, tol, ratio, reason = seesaw_verdict(coupling, spectrum)
    except RootFindingError as exc:
        return False, None, {"error": str(exc), "diagnostics": json_value(exc.diagnostics)}
    details = {
        "deviation_tolerance": tol,
        "leading_light_mass": spectrum.leading_light_mass,
        "light_k2": spectrum.light_k2, "heavy_k2": spectrum.heavy_k2,
        "heavy_k2_exact": spectrum.heavy_k2_exact,
        "light_class": spectrum.light_class, "heavy_class": spectrum.heavy_class,
        "roots": list(spectrum.roots),
        "mu_over_M": ratio,
    }
    if reason:
        details["reason"] = reason
    return ok, spectrum.deviation, details


@_command
def cmd_seesaw(cfg: RunConfig):
    for e5 in cfg.eps5_values():
        coupling = CouplingConfig(g=cfg.g, vev=cfg.vev, ell=cfg.ell, eps5=e5)
        params = {
            "ell": str(cfg.ell), "eps5": e5, "g": str(cfg.g), "vev": str(cfg.vev),
        }

        k2, cls = light_mass_leading(coupling)
        mass = leading_mass(coupling)
        try:
            eff = verify_effective_equation(coupling)
        except VerificationError as exc:
            ok, details = False, {"error": str(exc)}
        else:
            # a massless light mode has no rest frame to classify
            ok = eff.identity_ok and eff.rest_frame_class == (cls if mass else None)
            details = {
                "mass": mass, "k2": k2,
                "identity_exact": eff.identity_ok,
                "rest_frame_class": eff.rest_frame_class,
                "expected_class": cls,
            }
        yield CheckReport(
            "seesaw_effective", params, ok=ok,
            relation="g.k - eps5*|g|^2*vev^2*(l/2)*g4 reproduces the printed "
                     "gamma5 mass term",
            details=details,
        )

        ok, residual, details = judged(coupling)
        yield CheckReport(
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
                vev=sweep_ratio * heavy_mass(cfg.ell),
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
        yield CheckReport(
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
            heavy_expected = heavy_k2(cfg.ell, e5)
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
        yield CheckReport(
            "seesaw_decoupling",
            {"ell": str(cfg.ell), "eps5": e5},
            ok=decouple_ok,
            relation="at g = 0 the heavy root equals -eps5*4/l^2 exactly "
                     "and the light root is 0",
            details=details,
        )


# -- commands -----------------------------------------------------------------


def command(name: str):
    """The function of the command ``name``, looked up when called, so that
    a wrapper installed on its module (a profiler's span) is what runs.
    The scan's module loads here, on first use."""
    if name == "scan":
        from . import scan
        return scan.cmd_scan
    return globals()["cmd_" + name.replace(" ", "_")]


def cmd_check_all(cfg: RunConfig) -> list[CheckReport]:
    """Every family's reports in ``_order``.  Each family's list is sorted by
    it already, and no check name is in two families, so a stable sort on
    the check name alone merges them, with no params key formed again."""
    return sorted(chain.from_iterable(command(name)(cfg) for name, _ in FAMILIES.values()),
                  key=attrgetter("check"))


# -- serialization ------------------------------------------------------------


def config_dict(cfg: RunConfig, command: str) -> dict:
    """The format and the settings of ``READS[command]``, as ``command`` read
    them; a fixture only when one was given."""
    out = {"format": cfg.fmt}
    for name in READS[command]:
        value = getattr(cfg, name)
        if value is not None or name != "fixture":
            out[name] = json_value(value)
    return out


def report_dict(report: CheckReport) -> dict:
    return {name: json_value(getattr(report, name)) for name in CheckReport.__slots__}


def reports_document(cfg: RunConfig, command: str, reports: list[CheckReport]) -> dict:
    passed = sum(1 for r in reports if r.passed)
    return {
        "config": config_dict(cfg, command),
        "reports": [report_dict(r) for r in reports],
        "summary": {
            "total": len(reports),
            "passed": passed,
            "failed": len(reports) - passed,
        },
    }


def render_json(document: dict) -> str:
    return json.dumps(document, sort_keys=True, indent=2) + "\n"
