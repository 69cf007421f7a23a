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
    """One check's verdict, pass or fail by ``ok``, on a copy of ``params``,
    made by the runner of ``_command`` from the row a family yields; the
    runner sets ``duration_ms`` under --timings."""

    __slots__ = ("check", "params", "status", "residual", "relation", "details",
                 "duration_ms")

    def __init__(self, check: str, params: dict, relation: str, ok: bool, residual,
                 details: dict):
        self.check, self.params = check, dict(params)
        self.status = "pass" if ok else "fail"
        self.residual, self.relation, self.details = residual, relation, details
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
    row per check, ``(check, params, relation, ok, residual, details)``,
    each in its own step: the rows as reports sorted by ``_order``.  A row
    keeps exact values, which ``json_value`` renders.

    The four sign pairs are real forms of one complex algebra.  A family
    that decides a complex identity once, at eps5 = 1 (eps4 = eps5 = 1 for
    the algebra), yields its twist, a string, and then those rows, after
    every row it decides per sign: the twist by which it builds the data at
    the other signs from the data there.  Each row after the twist keeps the
    params it ran at, and its relation ends by naming the twist.  With ``cfg.timings`` each report's ``duration_ms``
    is the time of the step that produced it: that check's own work."""
    @functools.wraps(family)
    def run(cfg: RunConfig) -> list[CheckReport]:
        reports, twist, start = [], None, time.perf_counter()
        for row in family(cfg):
            if isinstance(row, str):
                twist = row
                continue
            check, params, relation, *verdict = row
            if twist:
                relation += "; at " + (
                    "eps4 = eps5 = 1: every other sign pair's table" if "eps4" in params
                    else "eps5 = 1: the eps5 = -1 data") + f" is its twist {twist}, which keeps it"
            reports.append(CheckReport(check, params, relation, *verdict))
            if cfg.timings:
                now = time.perf_counter()
                reports[-1].duration_ms, start = (now - start) * 1000.0, now
        return sorted(reports, key=_order)
    return run


def _violations(found, unit: str, total: int, **more) -> tuple:
    """(ok, residual, details) of a row that passes when nothing is
    ``found``, a list of (witness, residual) pairs out of ``total``
    ``unit``s: the count found is the residual, and the details add the
    first witness and ``more``."""
    return not found, len(found), {unit: total, "violations": len(found),
                                  "first_violation": found[0][0] if found else None, **more}


def _flags(**flags) -> tuple:
    """(ok, residual, details) of a row that passes when all ``flags``
    hold: the flags are its details."""
    return all(flags.values()), None, flags


# -- algebra ---------------------------------------------------------------


def _commute(table: StructureConstants, labels) -> bool:
    """Whether the generators named ``labels`` commute pairwise in ``table``."""
    return all(not table.bracket(table.index[a], table.index[b])
               for a, b in combinations(labels, 2))


_JACOBI = "[[a,b],c] + [[b,c],a] + [[c,a],b] = 0"


@_command
def cmd_verify_algebra(cfg: RunConfig):
    if cfg.fixture:
        with open(cfg.fixture, "r", encoding="utf-8") as fh:
            try:
                table = StructureConstants.from_json(json.load(fh))
            except ValueError as exc:  # JSONDecodeError is one
                raise ValueError(f"--fixture {cfg.fixture}: {exc}") from None
        found = jacobi_residual(table)
        yield "jacobi_fixture", {"basis_dim": table.dim()}, _JACOBI, *_violations(
            found, "triples", jacobi_triple_count(table), path=cfg.fixture,
            first_residual={table.basis[i]: c for i, c in found[0][1].items()} if found else None)

    # the map keeps its formula (r, l, -r*l) at every pair: the twist of the
    # source's r and l turns each image by its target's basis phase
    try:
        sol = solve_isomorphism_scalings(1, 1)
    except ArithmeticError as exc:
        # no sign choice passes: a fail row, and the run goes on
        ok, residual, details = False, None, {"passing_sign_choices": [], "error": str(exc)}
    else:
        # a returned solution is an invertible map that matches every
        # bracket; the row fails only when a sign choice is missing
        ok, residual, details = len(sol.passing_sign_choices) == 4, 0, {
            "alpha": sol.alpha, "beta": sol.beta, "gamma": sol.gamma, "invertible": True,
            "passing_sign_choices": sol.passing_sign_choices, "mismatched_brackets": 0}
    yield ("isomorphism", {"eps4": 1, "eps5": 1},
           "phi([a,b]) = [phi(a), phi(b)] with P -> alpha*M_mu4, "
           "x -> beta*M_mu5, C -> gamma*M45; at eps4 = eps5 = 1: every other "
           "sign pair's source is its twist r -> i*r (eps4 = -1), l -> i*l "
           "(eps5 = -1), its target the twist M_a4 -> i*M_a4 (eps4 = -1), "
           "M_a5 -> i*M_a5 (eps5 = -1), and the map keeps its formula",
           ok, residual, details)

    yield "rho -> eps4*rho, l -> i*l"
    # the orthogonal table's Jacobi identity is not a row of its own:
    # isomorphism maps this table, at rho = r^2, onto it invertibly
    alg = build_deformed_algebra(1, 1)
    yield "jacobi_deformed", {"eps4": 1, "eps5": 1}, _JACOBI, *_violations(
        jacobi_residual(alg), "triples", jacobi_triple_count(alg))

    # a contraction is a substitution, a ring homomorphism, so each limit
    # keeps the Jacobi identity jacobi_deformed proves
    yield ("contraction", {"eps4": 1, "eps5": 1}, "rho -> 0 flattens [p,p]; l -> 0 flattens [x,x]",
           *_flags(momentum_brackets_vanish=_commute(flat_deformed_algebra(1), P_LABELS),
                   coordinate_brackets_vanish=_commute(contract(alg, ell_to_zero=True),
                                                       X_LABELS)))


# -- differential realization ----------------------------------------------


@_command
def cmd_verify_rep(cfg: RunConfig):
    yield "l -> i*l, xi4 -> i*xi4, d4 -> -i*d4"
    for fam, rows in closure_families(1):
        yield (f"rep_closure_{fam}", {"eps5": 1, "family": fam}, "[rep(a), rep(b)] = rep([a, b])",
               *_violations([row for row in rows if not row[1].is_zero()], "pairs", len(rows)))


# -- gamma matrices ----------------------------------------------------------


@_command
def cmd_verify_clifford(cfg: RunConfig):
    yield "g4 -> i*g4"
    # each relation and each product check runs in its own step
    for rc in chain(clifford_relations(1),
                    (check(1) for check in (gamma5_product_check, majorana_imaginary_check))):
        yield f"clifford_{rc.name}", {"eps5": 1}, rc.relation, rc.ok, rc.residual, {}


# -- plane wave ---------------------------------------------------------------


@_command
def cmd_verify_planewave(cfg: RunConfig):
    yield "l -> i*l, d4 -> i*d4"
    params = {"eps5": 1}
    # the check computes each identity when its row reads it; once
    # [p_mu, A] is the scalar k_mu, [[p_mu, A], X] = 0 needs no row
    chk = verify_plane_wave_relations(1)
    yield "planewave_momentum", params, "[p_mu, A] = k_mu", *_flags(
        exactly_zero=all(r.is_zero() for r in chk.momentum_remainders))

    yield "planewave_derivative", params, "d4(A) = i*eps5*l*(k.p)", *_flags(
        exactly_zero=chk.derivative_remainder.is_zero())

    yield "planewave_mixed", params, "[A, d4(A)] = -i*eps5*l*k^2", *_flags(
        exactly_zero=chk.mixed_remainder.is_zero())

    yield ("planewave_vacuum", params,
           "(d4(A) + (1/2)[A, d4(A)]) on the vacuum = i*eps5*l*k^2/2",
           chk.vacuum_remainder.is_zero(), None, {"value": chk.vacuum_scalar})

    res = lemma_matrix_check(1)
    worst = max(res.values())
    yield ("planewave_lemma", params,
           "[p, e^A] = [p, A] e^A and d(e^A) = (dA + (1/2)[A, dA]) e^A on a nilpotent model",
           worst == 0, worst, res)


# -- dispersion and modes -----------------------------------------------------


# the roots and the reference kernels run at l = 2, M = 1: modes_scaling
# carries them to every l > 0, and the massless kernel, at k^2 = 0, reads no l
_MODES_ELL = Fraction(2)
_CARRIED = "at l = 2; modes_scaling carries it to every l > 0"


def _reference_row(eps5: int, branch: str, want: str) -> tuple:
    """The row of the reference kernel of ``branch`` at ``eps5``, whose
    class must be ``want``."""
    try:
        sol = reference_solutions(_MODES_ELL, eps5, branch)
    except VerificationError as exc:
        ok, worst, details = False, None, {"error": str(exc)}
    else:
        worst = max(operator_residual(sol.operator, u) for u in sol.basis)
        # k's int entries print as strings too, not as JSON numbers
        ok, details = sol.spinor_class == want and worst == 0.0, {
            "k": [str(c) for c in sol.k], "nullspace_dim": len(sol.basis),
            "class": sol.spinor_class,
            **({"k2": sol.k2, "expected_class": want} if branch == "heavy" else {})}
    return (f"modes_reference_{branch}", {"eps5": eps5},
            f"D(k) u = 0 with dim ker = 2 on the {branch} branch {_CARRIED}", ok, worst, details)


@_command
def cmd_modes(cfg: RunConfig):
    # the roots and the heavy kernel are real-form facts: one set per sign
    for e5 in cfg.eps5_values():
        roots = dispersion_roots(_MODES_ELL, e5)
        yield ("dispersion_roots", {"eps5": e5},
               f"k^2 * (1 + eps5*(l^2/4)*k^2) = 0 {_CARRIED}",
               roots == {0, heavy_k2(_MODES_ELL, e5)}, None,
               {"roots": sorted(str(r) for r in roots)})
        yield _reference_row(e5, "heavy", massive_class(e5))

    yield "l -> -i*l"
    yield ("dispersion_identity", {"eps5": 1}, "D(k)^2 = (k^2 + eps5*(l^2/4)*(k^2)^2) * Id",
           squared_identity_residual(1).is_zero(), None, {})

    yield ("modes_scaling", {"eps5": 1}, "s*D(k; s*l) = D(s*k; l) with k, l and s symbolic",
           scaling_residual(1).is_zero(), None, {})

    covariance = lorentz_covariance(1)
    yield ("modes_lorentz_generators", {"eps5": 1},
           "S_munu = (1/4)[g^mu, g^nu]: [S_munu, g^s] = g^r (L_munu)^r_s,"
           " [S_munu, g^4] = 0 and [S_munu, D(k)] = (L_munu k).grad D(k),"
           " k and l symbolic",
           covariance["failure"] is None, None, covariance)

    # at k^2 = 0 the g^4 term of D(k) vanishes: the massless kernel is the
    # same at either eps5
    yield _reference_row(1, "massless", MASSLESS_CLASS)


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
        return False, None, {"error": str(exc), "diagnostics": exc.diagnostics}
    details = {
        "deviation_tolerance": tol,
        "leading_light_mass": spectrum.leading_light_mass,
        "light_k2": spectrum.light_k2, "heavy_k2": spectrum.heavy_k2,
        "heavy_k2_exact": spectrum.heavy_k2_exact,
        "light_class": spectrum.light_class, "heavy_class": spectrum.heavy_class,
        "roots": spectrum.roots,
        "mu_over_M": ratio,
    }
    if reason:
        details["reason"] = reason
    return ok, spectrum.deviation, details


@_command
def cmd_seesaw(cfg: RunConfig):
    for e5 in cfg.eps5_values():
        coupling = CouplingConfig(g=cfg.g, vev=cfg.vev, ell=cfg.ell, eps5=e5)
        sweep = {"ell": cfg.ell, "eps5": e5}
        params = {**sweep, "g": cfg.g, "vev": cfg.vev}

        k2, cls = light_mass_leading(coupling)
        try:
            eff = verify_effective_equation(coupling)
        except VerificationError as exc:
            ok, details = False, {"error": str(exc)}
        else:
            # a massless light mode has no rest frame to classify
            ok, details = eff.identity_ok and eff.rest_frame_class == (cls if k2 else None), {
                "mass": leading_mass(coupling), "k2": k2, "identity_exact": eff.identity_ok,
                "rest_frame_class": eff.rest_frame_class, "expected_class": cls}
        yield ("seesaw_effective", params,
               "g.k - eps5*|g|^2*vev^2*(l/2)*g4 reproduces the printed gamma5 mass term",
               ok, None, details)

        yield ("seesaw_spectrum", params,
               "light root of det(coupled matrix) matches |g|^2 vev^2 l/2 to second order in mu/M",
               *judged(coupling))

        # quadratic convergence sweep: mu/M = 1e-2 then 1e-3, unit coupling
        details = {}
        for ratio, bound in ((Fraction(1, 100), 1e-3), (Fraction(1, 1000), 1e-5)):
            try:
                sw = exact_mode_spectrum(CouplingConfig(
                    g=ExactScalar(Fraction(1)), vev=ratio * heavy_mass(cfg.ell), ell=cfg.ell,
                    eps5=e5))
            except RootFindingError as exc:
                details[ratio] = {"error": str(exc)}
            else:
                details[ratio] = {"deviation": sw.deviation, "bound": bound,
                                  "scaling_constant": sw.deviation / float(ratio) ** 2}
        yield ("seesaw_convergence", sweep,
               "deviation from leading mass scales as (mu/M)^2 with constant <= 2",
               all("error" not in probe and probe["deviation"] < probe["bound"]
                   and probe["scaling_constant"] <= 2.0 for probe in details.values()),
               None, details)

        try:
            sw0 = exact_mode_spectrum(CouplingConfig(g=ExactScalar(Fraction(0)), vev=cfg.vev,
                                                     ell=cfg.ell, eps5=e5))
        except RootFindingError as exc:
            ok, details = False, {"error": str(exc)}
        else:
            details = {"heavy_k2_exact": sw0.heavy_k2_exact, "light_k2_exact": sw0.light_k2_exact,
                       "expected_heavy_k2": heavy_k2(cfg.ell, e5)}
            ok = sw0.heavy_k2_exact == details["expected_heavy_k2"] and sw0.light_k2_exact == 0
        yield ("seesaw_decoupling", sweep,
               "at g = 0 the heavy root equals -eps5*4/l^2 exactly and the light root is 0",
               ok, None, details)


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
