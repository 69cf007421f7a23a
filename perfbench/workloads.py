"""Inputs, operations and oracles of the in-process workloads.

Each workload turns a seeded ``random.Random`` into a list of :class:`Op`.
An op calls into ``ncdirac`` (its ``run`` is what the benchmark times) and
carries a ``verify`` function that judges the output with the benchmark's
own arithmetic, never with the program's pass/fail verdict:

* fixture tables: a float evaluation of the Jacobi sum at a random point;
* seesaw couplings: the closed-form light and heavy masses and the class
  the paper predicts;
* words: leftmost and rightmost normal forms must agree and be in normal
  order.

``verify`` returns ``None`` when the output is right and a one-line reason
otherwise.  Only ops with ``timed=True`` give latency samples; the others
(isomorphism, contractions, plane-wave and closure checks) count towards the
round's wall time and its attempted/failed totals.

Everything here that touches ``ncdirac`` imports it lazily, so the module
can be imported before the tracer is installed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

SIGN_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
SYMBOLS = ("l", "rho", "r", "m", "k0", "k1", "k2", "k3", "mu", "v")
REL_TOL = 1e-9


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    verify: Callable[[object], str | None]
    timed: bool = True


def rng_for(workload: str, seed: int) -> random.Random:
    """A round's inputs depend on the workload and the seed only."""
    return random.Random(f"{workload}:{seed}")


def check_all_failure(rc: int, report: bytes | str) -> str | None:
    """Oracle of one ``check all`` invocation: exit 0 and no failed report.
    (Byte identity across invocations is checked by the caller.)"""
    try:
        failed = json.loads(report)["summary"]["failed"]
    except (ValueError, KeyError, TypeError):
        failed = None
    return None if rc == 0 and failed == 0 else f"exit {rc}, failed reports {failed}"


# -- float evaluation of the program's serialized data ----------------------


def poly_value(terms: list, point: dict) -> complex:
    """Float value of a ``ParamPoly.to_json()`` term list at `point`."""
    total = 0j
    for exps, re_s, im_s in terms:
        mono = 1.0
        for name, e in zip(SYMBOLS, exps):
            if e:
                mono *= point[name] ** e
        total += complex(float(Fraction(re_s)), float(Fraction(im_s))) * mono
    return total


def table_tensor(table_json: dict, point: dict) -> np.ndarray:
    """Dense F[i, j, k] with [e_i, e_j] = sum_k F[i, j, k] e_k."""
    n = len(table_json["basis"])
    f = np.zeros((n, n, n), dtype=complex)
    for key, entries in table_json["brackets"].items():
        i, j = (int(s) for s in key.split(","))
        for k, terms in entries:
            value = poly_value(terms, point)
            f[i, j, k] += value
            f[j, i, k] -= value
    return f


def jacobi_violations(f: np.ndarray) -> set:
    """Index triples i < j < k whose float Jacobi sum is not zero relative
    to the sum of the magnitudes of its terms."""
    def cyclic(op):
        t = op(f)
        return (np.einsum("ijn,nkm->ijkm", t, t)
                + np.einsum("jkn,nim->ijkm", t, t)
                + np.einsum("kin,njm->ijkm", t, t))

    residual = np.abs(cyclic(lambda t: t))
    scale = cyclic(np.abs)
    bad = residual > REL_TOL * scale + 1e-300
    n = f.shape[0]
    return {
        (i, j, k)
        for i, j, k in zip(*np.nonzero(bad.any(axis=3)))
        if i < j < k < n
    }


def random_point(rng: random.Random) -> dict:
    return {name: rng.uniform(0.5, 2.0) for name in SYMBOLS}


# -- algebra-fixtures ----------------------------------------------------------


def _big_rational(rng: random.Random) -> Fraction:
    num = rng.randint(10 ** 5, 10 ** 9)
    den = rng.randint(10 ** 5, 10 ** 9)
    return Fraction(rng.choice((1, -1)) * num, den)


def rescale_table(table_json: dict, scales: list) -> dict:
    """Structure constants of the basis e'_i = scales[i] * e_i:
    f'_ij^k = f_ij^k * s_i * s_j / s_k.  Jacobi holds iff it held before."""
    brackets = {}
    for key, entries in table_json["brackets"].items():
        i, j = (int(s) for s in key.split(","))
        new_entries = []
        for k, terms in entries:
            factor = scales[i] * scales[j] / scales[k]
            new_entries.append([k, [
                [list(exps), str(Fraction(re_s) * factor), str(Fraction(im_s) * factor)]
                for exps, re_s, im_s in terms
            ]])
        brackets[key] = new_entries
    return {"basis": list(table_json["basis"]), "brackets": brackets}


def tamper_table(table_json: dict, rng: random.Random) -> dict:
    """Multiply one coefficient of one bracket by a rational factor != 1."""
    key = rng.choice(sorted(table_json["brackets"]))
    entries = table_json["brackets"][key]
    pos = rng.randrange(len(entries))
    k, terms = entries[pos]
    t = rng.randrange(len(terms))
    factor = Fraction(1)
    while factor == 1:
        factor = Fraction(rng.randint(2, 9), rng.randint(2, 9))
    exps, re_s, im_s = terms[t]
    new_terms = list(terms)
    new_terms[t] = [exps, str(Fraction(re_s) * factor), str(Fraction(im_s) * factor)]
    new_entries = list(entries)
    new_entries[pos] = [k, new_terms]
    brackets = dict(table_json["brackets"])
    brackets[key] = new_entries
    return {"basis": table_json["basis"], "brackets": brackets}


def fixture_table(base: dict, rng: random.Random, tampered: bool) -> dict:
    """`base` with its basis rescaled by large random rationals, and with
    one coefficient changed if `tampered`."""
    table = rescale_table(base, [_big_rational(rng) for _ in base["basis"]])
    return tamper_table(table, rng) if tampered else table


def fixture_mix(rng: random.Random, n_tables: int) -> list[tuple]:
    """(sign pair, kind, tampered) of each table: every combination equally
    often, in random order, so each seed's round has the same mix."""
    combos = [(pair, kind, tampered) for pair in SIGN_PAIRS
              for kind in ("deformed", "orthogonal") for tampered in (False, True)]
    mix = [combos[i % len(combos)] for i in range(n_tables)]
    rng.shuffle(mix)
    return mix


def fixture_oracle(table_json: dict, point: dict, violations) -> str | None:
    """`violations` is what ``jacobi_residual`` returned for the table."""
    basis = table_json["basis"]
    expected = {
        tuple(basis[x] for x in triple)
        for triple in jacobi_violations(table_tensor(table_json, point))
    }
    got = {tuple(names) for names, _ in violations}
    if got != expected:
        return (f"violated triples differ: program {len(got)}, float {len(expected)}"
                f" (first program {sorted(got)[:1]}, first float {sorted(expected)[:1]})")
    return None


def _iso_tensor(src_f, dst_f, phi):
    """phi F_src(e_i, e_j) - F_dst(phi e_i, phi e_j), indexed [i, j, m]."""
    lhs = np.einsum("ijk,mk->ijm", src_f, phi)
    rhs = np.einsum("ai,bj,abm->ijm", phi, phi, dst_f)
    return lhs - rhs, np.abs(lhs).max() + np.abs(rhs).max()


def _scaling_phi(src_basis, dst_basis, alpha, beta, gamma):
    """The benchmark's own copy of the map M -> M, P_mu -> alpha M_mu4,
    x_mu -> beta M_mu5, C -> gamma M45."""
    index = {name: i for i, name in enumerate(dst_basis)}
    phi = np.zeros((len(dst_basis), len(src_basis)), dtype=complex)
    for i, name in enumerate(src_basis):
        if name.startswith("M"):
            phi[index[name], i] = 1.0
        elif name.startswith("P"):
            phi[index[f"M{name[1]}4"], i] = alpha
        elif name.startswith("x"):
            phi[index[f"M{name[1]}5"], i] = beta
        else:
            phi[index["M45"], i] = gamma
    return phi


def isomorphism_oracle(src_json, dst_json, point, solution, check) -> str | None:
    """Which sign choices (alpha, beta, gamma) = (+-r, +-l, +-r*l) carry the
    deformed table onto the orthogonal one, decided in floats."""
    src_f = table_tensor(src_json, point)
    dst_f = table_tensor(dst_json, point)
    r, ell = point["r"], point["l"]
    passing = []
    for s_a in (1, -1):
        for s_b in (1, -1):
            for s_g in (1, -1):
                phi = _scaling_phi(src_json["basis"], dst_json["basis"],
                                   s_a * r, s_b * ell, s_g * r * ell)
                diff, scale = _iso_tensor(src_f, dst_f, phi)
                invertible = np.linalg.matrix_rank(phi) == phi.shape[1]
                if invertible and np.abs(diff).max() <= REL_TOL * scale:
                    passing.append((s_a, s_b, s_g))
    passing.sort()
    if sorted(solution.passing_sign_choices) != passing:
        return f"passing sign choices {solution.passing_sign_choices}, float {passing}"
    canonical_ok = any(s[:2] == (1, 1) for s in passing)
    if check.ok != canonical_ok or check.invertible != canonical_ok:
        return f"canonical map verdict {check.ok}, float {canonical_ok}"
    return None


def algebra_fixture_ops(rng: random.Random, n_tables: int) -> list[Op]:
    """Per sign pair: the isomorphism search and both contraction limits,
    then `n_tables` rescaled fixture tables, half of them tampered."""
    from ncdirac import (StructureConstants, build_deformed_algebra,
                         build_orthogonal_algebra, contract, jacobi_residual,
                         solve_isomorphism_scalings, verify_linear_isomorphism)

    ops: list[Op] = []
    bases = {}
    for e4, e5 in SIGN_PAIRS:
        deformed = build_deformed_algebra(e4, e5)
        bases[(e4, e5)] = (deformed.to_json(),
                           build_orthogonal_algebra(e4, e5).to_json())
        point = random_point(rng)

        def iso(e4=e4, e5=e5):
            sol = solve_isomorphism_scalings(e4, e5)
            return sol, verify_linear_isomorphism(sol.map)

        def iso_ok(out, point=point):
            sol, check = out
            return isomorphism_oracle(sol.src.to_json(), sol.dst.to_json(), point,
                                      sol, check)

        def contractions(alg=deformed):
            flat_rho = contract(alg, rho_to_zero=True)
            flat_ell = contract(alg, ell_to_zero=True)
            return (flat_rho, jacobi_residual(flat_rho),
                    flat_ell, jacobi_residual(flat_ell))

        def contractions_ok(out, base=bases[(e4, e5)][0], point=point):
            flat_rho, rho_viol, flat_ell, ell_viol = out
            for flat, viol, name in ((flat_rho, rho_viol, "rho"), (flat_ell, ell_viol, "l")):
                limit = dict(point, **{name: 0.0})
                want = table_tensor(base, limit)
                got = table_tensor(flat.to_json(), point)
                if not np.allclose(got, want, rtol=REL_TOL, atol=REL_TOL):
                    return f"{name} -> 0 limit differs from the evaluated table"
                reason = fixture_oracle(base, limit, viol)
                if reason:
                    return f"{name} -> 0 limit: {reason}"
            return None

        ops.append(Op(f"isomorphism{e4:+d}{e5:+d}", iso, iso_ok, timed=False))
        ops.append(Op(f"contraction{e4:+d}{e5:+d}", contractions, contractions_ok,
                      timed=False))

    for t, (pair, kind, tampered) in enumerate(fixture_mix(rng, n_tables)):
        base = bases[pair][0 if kind == "deformed" else 1]
        table = fixture_table(base, rng, tampered)
        point = random_point(rng)

        def jacobi(table=table):
            return jacobi_residual(StructureConstants.from_json(table))

        def jacobi_ok(out, table=table, point=point):
            return fixture_oracle(table, point, out)

        ops.append(Op(f"table{t}-{kind}{'-tampered' if tampered else ''}",
                      jacobi, jacobi_ok))
    return ops


# -- seesaw-hierarchy -------------------------------------------------------------

_PYTHAGOREAN = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29),
                (9, 40, 41), (12, 35, 37), (11, 60, 61))


@dataclass(frozen=True)
class SeesawInput:
    eps5: int
    g_re: Fraction
    g_im: Fraction
    g_abs: Fraction
    ell: Fraction
    vev: Fraction
    ratio: Fraction  # mu / M


def seesaw_input(rng: random.Random) -> SeesawInput:
    """mu/M log-uniform over [1e-9, 1e-1]; g = |g| e^{i theta} with a
    rational phase point from a Pythagorean triple, so |g| is rational."""
    a, b, c = rng.choice(_PYTHAGOREAN)
    if rng.random() < 0.5:
        a, b = b, a
    size = Fraction(rng.randint(1, 20), rng.randint(1, 20))
    g_re = size * Fraction(rng.choice((1, -1)) * a, c)
    g_im = size * Fraction(rng.choice((1, -1)) * b, c)
    ell = Fraction(rng.randint(50, 200), 100)
    u = rng.uniform(-9.0, -1.0)
    exponent = math.floor(u)
    ratio = Fraction(round(10 ** (u - exponent) * 1000), 1000) * Fraction(10) ** exponent
    vev = ratio * 2 / (ell * size)
    return SeesawInput(rng.choice((1, -1)), g_re, g_im, size, ell, vev, ratio)


def seesaw_oracle(inp: SeesawInput, spectrum, effective) -> str | None:
    """Closed-form light mass |g|^2 vev^2 l/2 and heavy mass 2/l, both to
    within 2 (mu/M)^2 relative, and the class the paper predicts."""
    bound = 2.0 * float(inp.ratio) ** 2
    light = float(inp.g_abs ** 2 * inp.vev ** 2 * inp.ell / 2)
    heavy = float(2 / inp.ell)
    expected_class = "Dirac" if inp.eps5 == -1 else "Majorana"
    light_mass = math.sqrt(abs(spectrum.light_k2))
    heavy_mass = math.sqrt(abs(spectrum.heavy_k2))
    if not abs(light_mass - light) <= bound * light:
        return f"light mass {light_mass:.6g}, expected {light:.6g} (mu/M {float(inp.ratio):.3g})"
    if not abs(heavy_mass - heavy) <= bound * heavy:
        return f"heavy mass {heavy_mass:.6g}, expected {heavy:.6g}"
    if spectrum.light_class != expected_class:
        return f"light class {spectrum.light_class}, expected {expected_class}"
    if any(entry.to_json() for row in effective.residual.rows for entry in row):
        return "effective-equation residual is not zero"
    if effective.rest_frame_class != expected_class:
        return f"rest-frame class {effective.rest_frame_class}, expected {expected_class}"
    return None


def seesaw_ops(rng: random.Random, n_ops: int) -> list[Op]:
    from ncdirac import (CouplingConfig, ExactScalar, exact_mode_spectrum,
                         verify_effective_equation)

    ops = []
    for t in range(n_ops):
        inp = seesaw_input(rng)
        coupling = CouplingConfig(g=ExactScalar(inp.g_re, inp.g_im), vev=inp.vev,
                                  ell=inp.ell, eps5=inp.eps5)

        def spectrum(coupling=coupling):
            return exact_mode_spectrum(coupling), verify_effective_equation(coupling)

        def spectrum_ok(out, inp=inp):
            return seesaw_oracle(inp, *out)

        ops.append(Op(f"coupling{t}", spectrum, spectrum_ok))
    return ops


# -- rewrite ---------------------------------------------------------------------

TOKENS = ("M01", "M02", "M03", "M12", "M13", "M23", "p0", "p1", "p2", "p3",
          "x0", "x1", "x2", "x3", "C", "Cinv")
_RANK = {t: i for i, t in enumerate(TOKENS)}
WORD_ORDER = 4
WORD_LENGTHS = (4, 5, 6, 7, 8, 9, 10)
PLANE_WAVE_ORDERS = range(1, 9)


def _l_degrees(coeff) -> list[int]:
    return [exps[0] for exps, _, _ in coeff.to_json()]


def word_oracle(left, right, order: int) -> str | None:
    """Leftmost and rightmost rewriting agree, and every output word is in
    normal order M < p < x < C < Cinv with no adjacent C, Cinv pair, and
    every coefficient is truncated at l-degree `order`."""
    left_terms = {w: c.to_json() for w, c in left.words.items()}
    right_terms = {w: c.to_json() for w, c in right.words.items()}
    if left_terms != right_terms:
        return "leftmost and rightmost normal forms differ"
    for w, c in left.words.items():
        for a, b in zip(w, w[1:]):
            if _RANK[a] > _RANK[b] or {a, b} == {"C", "Cinv"}:
                return f"word {'*'.join(w)} is not in normal order"
        if any(d > order for d in _l_degrees(c)):
            return f"coefficient of {'*'.join(w)} exceeds l-degree {order}"
    return None


def plane_wave_oracle(check, order: int) -> str | None:
    """Remainders vanish up to l-degree `order`; the centrality sweep is empty."""
    for rem in check.all_remainders():
        for w, c in rem.words.items():
            if min(_l_degrees(c)) <= order:
                return f"remainder word {'*'.join(w) or '1'} has l-degree <= {order}"
    if check.centrality_remainders:
        return f"{len(check.centrality_remainders)} non-central commutators"
    return None


def closure_oracle(closure) -> str | None:
    bad = [pair for rows in closure.values() for pair, res in rows if res.terms]
    return f"{len(bad)} bracket pairs do not close, first {bad[0]}" if bad else None


def random_word(rng: random.Random, length: int) -> tuple:
    return tuple(rng.choice(TOKENS) for _ in range(length))


def word_lengths(rng: random.Random, n_words: int) -> list[int]:
    """Equal numbers of each length in WORD_LENGTHS, in random order.

    Rewriting cost grows about 2.4x per token, with a long tail at every
    length.  Fixing the length mix keeps the share of long words the same
    for every seed.
    """
    lengths = [WORD_LENGTHS[i % len(WORD_LENGTHS)] for i in range(n_words)]
    rng.shuffle(lengths)
    return lengths


def rewrite_ops(rng: random.Random, n_words: int) -> list[Op]:
    from ncdirac import NCExpression, normal_form, verify_plane_wave_relations, \
        verify_rep_closure

    ops = []
    for e5 in (1, -1):
        for order in PLANE_WAVE_ORDERS:
            ops.append(Op(
                f"planewave{e5:+d}-o{order}",
                lambda e5=e5, order=order: verify_plane_wave_relations(e5, order),
                lambda out, order=order: plane_wave_oracle(out, order),
                timed=False,
            ))
    for e5 in (1, -1):
        ops.append(Op(f"closure{e5:+d}", lambda e5=e5: verify_rep_closure(e5),
                      closure_oracle, timed=False))
    for t, length in enumerate(word_lengths(rng, n_words)):
        word = random_word(rng, length)
        e5 = rng.choice((1, -1))

        def rewrite(word=word, e5=e5):
            expr = NCExpression({word: 1})
            return (normal_form(expr, e5, order=WORD_ORDER, leftmost=True),
                    normal_form(expr, e5, order=WORD_ORDER, leftmost=False))

        ops.append(Op(f"word{t}-{'*'.join(word)}", rewrite,
                      lambda out: word_oracle(*out, WORD_ORDER)))
    return ops


# Timed ops per round: at least 100, so the 90th percentile has ten beyond it
# (112 fixture tables: seven of each (sign pair, kind, tampered) combination).
ROUND_SIZES = {"algebra-fixtures": 112, "seesaw-hierarchy": 100, "rewrite": 105}
OP_LISTS = {
    "algebra-fixtures": algebra_fixture_ops,
    "seesaw-hierarchy": seesaw_ops,
    "rewrite": rewrite_ops,
}


def round_ops(workload: str, seed: int) -> list[Op]:
    return OP_LISTS[workload](rng_for(workload, seed), ROUND_SIZES[workload])
