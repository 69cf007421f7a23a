"""Structure constants for the two-parameter deformed kinematical algebra.

The algebra has 15 generators: six Lorentz rotations M_munu, four momenta
P_mu, four coordinates x_mu and one central-limit element C (the operator
that replaces the Heisenberg unit; [P_mu, x_nu] = i eta_munu C).  The two
deformation parameters enter as rho = 1/R^2 (curvature) and l^2 (length
squared), each weighted by a sign eps4, eps5 = +-1.

The same 15 generators span a pseudo-orthogonal algebra in six dimensions
with metric diag(1,-1,-1,-1,eps4,eps5); ``solve_isomorphism_scalings`` finds
the exact rescalings P_mu -> alpha*M_mu4, x_mu -> beta*M_mu5, C -> gamma*M_45
identifying the two.  Matching [P,P] forces alpha^2 = rho, so the solution
uses the symbol r with rho = r^2 substituted into the deformed table first.
"""

from __future__ import annotations

import itertools
from functools import cache
from math import gcd
from typing import NamedTuple

from .scalars import (
    P_ONE,
    ParamPoly,
    _GUARDS,
    _bindings,
    _bound_part,
    _degree_overflow,
    _int_terms,
    _join,
    _json_int_terms,
    _make,
    _packed_poly,
    _reduced_sums,
    poly,
    sym,
)

M_LABELS = ("M01", "M02", "M03", "M12", "M13", "M23")
P_LABELS = ("P0", "P1", "P2", "P3")
X_LABELS = ("x0", "x1", "x2", "x3")
C_LABEL = "C"
DEFORMED_BASIS = M_LABELS + P_LABELS + X_LABELS + (C_LABEL,)

_M_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_M_INDEX = {pair: i for i, pair in enumerate(_M_PAIRS)}


# the Minkowski metric diagonal; ``lower`` and ``minkowski_square`` are the
# one contraction with it
ETA4_DIAG = (1, -1, -1, -1)


def lower(k) -> tuple:
    """k_mu = eta_munu k^nu for the four components of k: ints, Fractions,
    exact scalars, ParamPoly or anything else with unary minus."""
    return tuple(c if eta > 0 else -c for eta, c in zip(ETA4_DIAG, k, strict=True))


def minkowski_square(k):
    """k^2 = k^mu k_mu = k0^2 - k1^2 - k2^2 - k3^2, in the components' type."""
    low = lower(k)
    total = k[0] * low[0]
    for c, c_low in zip(k[1:], low[1:]):
        total = total + c * c_low
    return total


Combo = dict  # generator index -> ParamPoly coefficient


class StructureConstants:
    """Antisymmetric bracket table over a named basis.

    ``rows[i][j]`` is present for each ordered pair with a nonzero bracket
    and holds [e_i, e_j] as the tuple of its (q, packed monomial, a, b, d)
    int terms: each the canonical coefficient (a + b*i)/d of e_q, sorted by
    (q, monomial).  rows[j][i] holds the same terms negated.  This is the
    one store: the kernels below read it as it is, and ``bracket`` turns an
    entry into a fresh combo of ParamPoly coefficients, so a table can be
    fully symbolic in the deformation parameters.  ``index`` maps each
    basis name to its position.
    """

    __slots__ = ("basis", "rows", "index")

    def __init__(self, basis):
        self.basis = tuple(basis)
        if not self.basis:
            raise ValueError("the table's basis is empty: it names no generator")
        self.rows = [{} for _ in self.basis]
        self.index = {name: i for i, name in enumerate(self.basis)}
        if len(self.index) != len(self.basis):
            dups = sorted({name for name in self.basis if self.basis.count(name) > 1})
            raise ValueError(f"duplicate basis names {dups}")

    def _check(self, i, j, outputs=()):
        """Raise ValueError naming the first of the generator indices i, j
        and the ``outputs`` that is not a basis position."""
        n = len(self.basis)
        for pos, idx in enumerate((i, j, *outputs)):
            if not (isinstance(idx, int) and 0 <= idx < n):
                raise ValueError(f"{'output' if pos > 1 else 'generator'} index {idx} "
                                 f"of bracket [{i},{j}] is outside 0..{n - 1}")

    def _store(self, i: int, j: int, terms: list, outputs=()):
        """Set [e_i, e_j] to ``terms`` by ``_write``, once i, j and the
        output indices they were given for pass ``_check``."""
        self._check(i, j, outputs)
        if i == j:
            raise ValueError("bracket of a generator with itself is zero")
        self._write(i, j, terms)

    def _write(self, i: int, j: int, terms: list):
        """Set [e_i, e_j] to ``terms``, a list of canonical (q, monomial,
        a, b, d) ints with distinct (q, monomial) that is sorted in place,
        and [e_j, e_i] to the same terms negated; no checks."""
        rows = self.rows
        if len(terms) == 1:  # most brackets: no sort and no comprehension
            (q, m, a, b, d), = terms
            rows[i][j], rows[j][i] = (terms[0],), ((q, m, -a, -b, d),)
        elif terms:
            terms.sort()
            rows[i][j] = tuple(terms)
            rows[j][i] = tuple([(q, m, -a, -b, d) for q, m, a, b, d in terms])
        else:
            rows[i].pop(j, None)
            rows[j].pop(i, None)

    def bracket(self, i: int, j: int) -> Combo:
        """[e_i, e_j] as a fresh combo; empty when i == j."""
        self._check(i, j)
        combo = {}
        for q, mono, a, b, d in self.rows[i].get(j, ()):
            combo.setdefault(q, {})[mono] = _make(a, b, d)
        return {q: _packed_poly(terms) for q, terms in combo.items()}

    def pairs(self) -> list:
        """The pairs i < j with a nonzero bracket, sorted."""
        return [(i, j) for i, row in enumerate(self.rows) for j in sorted(row) if i < j]

    def copy(self) -> "StructureConstants":
        """A table whose row dicts are new; the immutable term tuples are
        shared."""
        out = StructureConstants(self.basis)
        out.rows = [dict(row) for row in self.rows]
        return out

    def substitute(self, bindings) -> "StructureConstants":
        """A new table, each coefficient substituted as by
        ``ParamPoly.substitute``, on the integer rows: the bindings are
        checked first, each distinct bound part of a packed monomial is
        evaluated once, and each (pair, output, monomial) sum of ``_join``
        is reduced once."""
        values, bound_fields = _bindings(bindings)
        parts, sums = {}, {}
        for i, j in self.pairs():
            for q, mono, a, b, d in self.rows[i][j]:
                bound = mono & bound_fields
                part = parts.get(bound)
                if part is None:
                    part = parts[bound] = _int_terms(_bound_part(values, bound))
                _join(sums, (i, j), mono - bound, a, b, d, [(q, *term) for term in part])
        terms = {}
        for (pair, q, mono), (a, b, d) in sums.items():
            if a or b:
                g = gcd(a, b, d)
                terms.setdefault(pair, []).append((q, mono, a // g, b // g, d // g))
        out = StructureConstants(self.basis)
        for (i, j), pair_terms in terms.items():
            out._store(i, j, pair_terms)
        return out

    def dim(self) -> int:
        return len(self.basis)

    # -- serialization (fixture file format) -----------------------------

    def to_json(self) -> dict:
        brackets = {f"{i},{j}": [[k, c.to_json()] for k, c in self.bracket(i, j).items()]
                    for i, j in self.pairs()}
        return {"basis": list(self.basis), "brackets": brackets}

    @staticmethod
    def from_json(data: dict) -> "StructureConstants":
        """Parse the fixture format straight into the store.  A basis that
        is not a list of strings or is empty, a bracket that is not a list of
        [index, coefficient] pairs, a coefficient that is not a list of
        [exponents, re, im] terms, a malformed entry or term, a key not
        written as ``to_json`` writes it ("i,j" in ASCII digits), an output
        index or exponent that is not a JSON integer, an index outside the
        basis or a pair given twice raises ValueError naming the bracket key."""
        try:
            basis, brackets = data["basis"], data["brackets"].items()
            if type(basis) is not list or not all(type(name) is str for name in basis):
                raise TypeError
        except (AttributeError, KeyError, TypeError):
            raise ValueError("a structure-constant table is an object with a "
                             "'basis' list and a 'brackets' object") from None
        alg = StructureConstants(basis)
        n = len(basis)
        seen = {}
        for key, entries in brackets:
            try:
                if type(key) is not str:
                    raise TypeError("is not a string")
                i, j = map(int, key.split(","))
                # int() also reads "+1", " 1", "1_0", "01" and non-ASCII digits
                if key != f"{i},{j}":
                    raise ValueError(f"is not written as {i},{j}")
                pair = (i, j) if i < j else (j, i)
                if pair in seen:
                    raise ValueError(f"repeats the pair of key {seen[pair]!r}")
                seen[pair] = key
                # _store only to raise the error that names the culprit
                if i == j or not (0 <= i < n and 0 <= j < n):
                    alg._store(i, j, [])
                alg._write(i, j, _json_int_terms(entries, n, key))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"bracket key {key!r}: {exc}") from None
        return alg


def _rotation_brackets(alg: StructureConstants, pairs, diag):
    """Set [M_ab, M_cd] = i(M_ad g_bc + M_bc g_ad - M_bd g_ac - M_ac g_bd).

    ``pairs`` lists the index pairs (a < b) of the rotation generators in
    basis order, starting at index 0; ``diag`` is the diagonal of the
    metric g.
    """
    index = {pair: i for i, pair in enumerate(pairs)}
    metric = lambda x, y: diag[x] if x == y else 0
    for (a, b), (c, d) in itertools.combinations(pairs, 2):
        im = {}  # output index -> n, for the coefficient n*i
        for (p, q), g in (
            ((a, d), metric(b, c)),
            ((b, c), metric(a, d)),
            ((b, d), -metric(a, c)),
            ((a, c), -metric(b, d)),
        ):
            if g == 0:
                continue
            # a diagonal metric never pairs p with itself; M_qp = -M_pq
            idx, orient = (index[(p, q)], 1) if p < q else (index[(q, p)], -1)
            im[idx] = im.get(idx, 0) + g * orient
        alg._store(index[(a, b)], index[(c, d)], [(k, 0, 0, n, 1) for k, n in im.items() if n])


def _check_signs(eps4: int, eps5: int):
    if eps4 not in (1, -1) or eps5 not in (1, -1):
        raise ValueError("eps4 and eps5 must be +1 or -1")


# Each table below is built once per sign choice on first use.  The cached
# tables are never handed out: the public builders return copies, so a
# caller's in-place edit of ``rows`` does not reach later calls.


def build_deformed_algebra(eps4: int, eps5: int) -> StructureConstants:
    """Symbolic bracket table; coefficients are polynomials in l and rho."""
    _check_signs(eps4, eps5)
    return _deformed_table(eps4, eps5).copy()


def flat_deformed_algebra(eps5: int) -> StructureConstants:
    """The rho -> 0 contraction of the deformed table.  It does not depend
    on eps4, which only ever multiplies rho."""
    if eps5 not in (1, -1):
        raise ValueError("eps5 must be +1 or -1")
    return _flat_table(eps5).copy()


def build_orthogonal_algebra(eps4: int, eps5: int) -> StructureConstants:
    """so-type algebra of the 6-d metric diag(1,-1,-1,-1,eps4,eps5)."""
    _check_signs(eps4, eps5)
    return _orthogonal_table(eps4, eps5).copy()


@cache
def _flat_table(eps5: int) -> StructureConstants:
    return contract(_deformed_table(1, eps5), rho_to_zero=True)


@cache
def _deformed_table(eps4: int, eps5: int) -> StructureConstants:
    """Each coefficient is n*i times a monomial: the term (q, monomial,
    0, n, 1) of e_q."""
    alg = StructureConstants(DEFORMED_BASIS)
    rho = _int_terms(sym("rho"))[0][0]  # packed monomials
    ell2 = _int_terms(sym("l", 2))[0][0]
    n_m = len(M_LABELS)
    p_of = lambda mu: n_m + mu
    x_of = lambda mu: n_m + 4 + mu
    c_idx = n_m + 8

    _rotation_brackets(alg, _M_PAIRS, ETA4_DIAG)

    # [M_munu, P_lam] = i(P_mu eta_nulam - P_nu eta_mulam); same pattern for x
    for (mu, nu), lam in itertools.product(_M_PAIRS, range(4)):
        for vec_of in (p_of, x_of):
            terms = []
            if nu == lam:
                terms.append((vec_of(mu), 0, 0, ETA4_DIAG[lam], 1))
            if mu == lam:
                terms.append((vec_of(nu), 0, 0, -ETA4_DIAG[lam], 1))
            alg._store(_M_INDEX[(mu, nu)], vec_of(lam), terms)

    for mu, nu in itertools.combinations(range(4), 2):
        m_idx = _M_INDEX[(mu, nu)]
        # [P_mu, P_nu] = -i eps4 rho M_munu
        alg._store(p_of(mu), p_of(nu), [(m_idx, rho, 0, -eps4, 1)])
        # [x_mu, x_nu] = -i eps5 l^2 M_munu
        alg._store(x_of(mu), x_of(nu), [(m_idx, ell2, 0, -eps5, 1)])

    for mu in range(4):
        # [P_mu, x_nu] = i eta_munu C
        alg._store(p_of(mu), x_of(mu), [(c_idx, 0, 0, ETA4_DIAG[mu], 1)])

    for mu in range(4):
        # [P_mu, C] = -i eps4 rho x_mu ; [x_mu, C] = i eps5 l^2 P_mu
        alg._store(p_of(mu), c_idx, [(x_of(mu), rho, 0, -eps4, 1)])
        alg._store(x_of(mu), c_idx, [(p_of(mu), ell2, 0, eps5, 1)])

    return alg


def contract(alg: StructureConstants, *, rho_to_zero=False, ell_to_zero=False) -> StructureConstants:
    """Flat and/or commutative-coordinate limits of a symbolic table, as a
    new table; with neither limit, a copy of ``alg``."""
    bindings = {}
    if rho_to_zero:
        bindings["rho"] = 0
    if ell_to_zero:
        bindings["l"] = 0
    if not bindings:
        return alg.copy()
    return alg.substitute(bindings)


@cache
def _orthogonal_table(eps4: int, eps5: int) -> StructureConstants:
    pairs = tuple(itertools.combinations(range(6), 2))
    alg = StructureConstants(tuple(f"M{a}{b}" for a, b in pairs))
    _rotation_brackets(alg, pairs, ETA4_DIAG + (eps4, eps5))
    return alg


def _combo_ints(combo: Combo) -> list:
    """The flat (q, packed monomial, a, b, d) int terms of a combo."""
    return [(q, mono, a, b, d)
            for q, coeff in combo.items() for mono, a, b, d in _int_terms(coeff)]


def jacobi_residual(alg: StructureConstants):
    """All violated Jacobi triples: [(names, residual combo), ...], in
    ``itertools.combinations`` order.

    The residual of (i, j, k) is the exact sum of [[e_i, e_j], e_k] and its
    two cyclic shifts.  A sparse join forms only the nonzero products: for
    each stored pair a < b, each term c_ab^m of [e_a, e_b] and each
    c not in {a, b} with [e_m, e_c] != 0, the product c_ab^m [e_m, e_c]
    belongs to the triple sorted(a, b, c).  It enters with sign -1 when
    a < c < b, where the cyclic term is [[e_b, e_a], e_c].  Unlike the
    other kernels it sums in its own loop, not through ``_join``, keyed by
    the int tag (i*n + j)*n + k of the sorted triple; a product of two pure
    imaginary parts takes one multiplication.
    """
    rows = alg.rows
    n = len(rows)
    sums = {}
    get = sums.get
    for a, row in enumerate(rows):
        for b, left in row.items():
            if b < a:
                continue
            for m, mono, xa, xb, xd in left:
                for c, right in rows[m].items():
                    if c > b:
                        tag, sa, sb = (a * n + b) * n + c, xa, xb
                    elif c < a:
                        tag, sa, sb = (c * n + a) * n + b, xa, xb
                    elif a < c < b:
                        tag, sa, sb = (a * n + c) * n + b, -xa, -xb
                    else:
                        continue
                    for q, mb, ya, yb, yd in right:
                        mm = mono + mb
                        if mm & _GUARDS:
                            raise _degree_overflow(mono, mb)
                        key = (tag, q, mm)
                        if sa or ya:
                            pa, pb = sa * ya - sb * yb, sa * yb + sb * ya
                        else:  # two pure imaginary parts
                            pa, pb = -sb * yb, 0
                        pd = xd * yd
                        acc = get(key)
                        if acc is None:
                            sums[key] = [pa, pb, pd]
                        elif acc[2] == pd:
                            acc[0] += pa
                            acc[1] += pb
                        else:
                            d = acc[2]
                            acc[0] = acc[0] * pd + pa * d
                            acc[1] = acc[1] * pd + pb * d
                            acc[2] = d * pd
    residuals = _reduced_sums(sums)
    basis = alg.basis
    return [((basis[tag // n // n], basis[tag // n % n], basis[tag % n]), residuals[tag])
            for tag in sorted(residuals)]


def jacobi_triple_count(alg: StructureConstants) -> int:
    n = alg.dim()
    return n * (n - 1) * (n - 2) // 6


class LinearMap(NamedTuple):
    """A scaling map: phi(src e_i) = c_i dst f_j, one target j per
    generator, held as columns[i] = {j: c_i} with c_i a ParamPoly."""

    src: StructureConstants
    dst: StructureConstants
    columns: list  # one Combo per src basis element


class IsoCheck(NamedTuple):
    ok: bool
    invertible: bool
    mismatches: list  # [((name_i, name_j), residual combo)]


def _map_invertible(lmap: LinearMap) -> bool:
    """Whether a scaling map is invertible, decided exactly: it is when
    every coefficient is nonzero and the targets are the whole target basis,
    each once.  A column with more than one entry raises ValueError."""
    if any(len(col) > 1 for col in lmap.columns):
        raise ValueError("a scaling map has one target per generator")
    targets = {j for col in lmap.columns for j, coeff in col.items() if coeff}
    return len(targets) == len(lmap.columns) == lmap.src.dim() == lmap.dst.dim()


def _bracket_mismatches(lmap: LinearMap):
    """Yield ((name_i, name_j), residual combo) for each basis pair i < j
    with phi([a_i,a_j]_src) != [phi a_i, phi a_j]_dst, lazily; each pair's
    difference is summed by ``_join`` and reduced once.
    """
    src, dst_rows = lmap.src, lmap.dst.rows
    columns = [_combo_ints(col) for col in lmap.columns]
    for i, j in itertools.combinations(range(src.dim()), 2):
        sums = {}
        # phi([a_i, a_j]) = sum_m c_ij^m phi(a_m)
        for m, mono, xa, xb, xd in src.rows[i].get(j, ()):
            _join(sums, 0, mono, xa, xb, xd, columns[m])
        # -[phi a_i, phi a_j] = sum ca cb [f_b, f_a], ca * cb taken once
        for ia, ma, a1, b1, d1 in columns[i]:
            for ib, mb, a2, b2, d2 in columns[j]:
                right = dst_rows[ib].get(ia)
                if right is not None:
                    mono = ma + mb
                    if mono & _GUARDS:
                        raise _degree_overflow(ma, mb)
                    _join(sums, 0, mono, a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2, right)
        residual = _reduced_sums(sums).get(0)
        if residual:
            yield (src.basis[i], src.basis[j]), residual


def verify_linear_isomorphism(lmap: LinearMap) -> IsoCheck:
    """Exact check that phi([a,b]_src) = [phi a, phi b]_dst on all basis pairs.

    Non-invertibility is reported separately from bracket mismatches.
    """
    mismatches = list(_bracket_mismatches(lmap))
    invertible = _map_invertible(lmap)
    return IsoCheck(ok=invertible and not mismatches, invertible=invertible, mismatches=mismatches)


def _scaling_target(name: str) -> tuple[str, int]:
    """Where the rescaling ansatz sends a deformed generator: the name of
    its orthogonal image, and the bit of its coefficient, 0 for 1 and 1, 2
    and 4 for alpha, beta and gamma."""
    if name.startswith("M"):
        return name, 0
    if name.startswith("P"):
        return f"M{int(name[1])}4", 1
    if name.startswith("x"):
        return f"M{int(name[1])}5", 2
    if name == C_LABEL:
        return "M45", 4
    raise ValueError(f"unexpected basis label {name}")


def scaling_map(src: StructureConstants, dst: StructureConstants,
                alpha: ParamPoly, beta: ParamPoly, gamma: ParamPoly) -> LinearMap:
    """The rescaling ansatz M -> M, P_mu -> alpha M_mu4, x_mu -> beta M_mu5,
    C -> gamma M_45 as a LinearMap from the deformed to the orthogonal basis."""
    coeffs = {0: P_ONE, 1: alpha, 2: beta, 4: gamma}
    columns = []
    for name in src.basis:
        target, bit = _scaling_target(name)
        columns.append({dst.index[target]: coeffs[bit]})
    return LinearMap(src=src, dst=dst, columns=columns)


class IsomorphismSolution(NamedTuple):
    alpha: ParamPoly
    beta: ParamPoly
    gamma: ParamPoly
    map: LinearMap
    src: StructureConstants  # deformed table with rho -> r^2 substituted
    dst: StructureConstants
    passing_sign_choices: list  # [(s_alpha, s_beta, s_gamma), ...]


# the sign choices (s_alpha, s_beta, s_gamma); sign k goes with the
# ``_scaling_target`` bit 1 << k
_SIGN_CHOICES = tuple(itertools.product((1, -1), repeat=3))


def solve_isomorphism_scalings(eps4: int, eps5: int) -> IsomorphismSolution:
    """Exact sign search for the rescaling identifying the two algebras.

    The bracket [P_mu, P_nu] = -i eps4 rho M_munu forces alpha^2 = rho, which
    has no polynomial solution in rho itself; the deformed table is therefore
    reparametrized with rho = r^2 before matching.  The eight candidates
    phi_s = (s_alpha r, s_beta l, s_gamma r l) are the map (r, l, r l) with
    a sign on each generator class.  Only the canonical candidates
    s0 = (1, 1, -1), then (1, 1, 1), are checked: each pair's brackets and
    ``_map_invertible``.  The other choices are read off the first that passes:
    phi_s = phi_s0 o sigma_t with t = s * s0, where sigma_t sends e_m to
    chi_m(t) e_m (chi_m(t) is 1 on M, t_alpha on P, t_beta on x and t_gamma
    on C).  Since phi_s0 is an injective homomorphism, and column signs
    leave every coefficient nonzero, phi_s passes exactly when sigma_t is an
    automorphism of the source: chi_i chi_j = chi_q for every output q of
    every stored [e_i, e_j].  All sign choices with gamma = -alpha*beta
    pass; the first passing choice with (s_alpha, s_beta) = (1, 1), the
    canonical (r, l, -r*l), is returned.  When neither canonical candidate
    is an invertible homomorphism, ArithmeticError is raised.
    """
    r, ell = sym("r"), sym("l")
    _check_signs(eps4, eps5)
    src = _deformed_table(eps4, eps5).substitute({"rho": r * r})
    dst = build_orthogonal_algebra(eps4, eps5)
    for s0 in ((1, 1, -1), (1, 1, 1)):
        lmap = scaling_map(src, dst, r, ell, poly(s0[2]) * r * ell)
        if next(_bracket_mismatches(lmap), None) is None and _map_invertible(lmap):
            break
    else:
        raise ArithmeticError("no scaling signs satisfy the bracket match")
    # bits of chi_i chi_j chi_q: t passes when each has an even overlap with
    # the bits that t flips
    bits = [_scaling_target(name)[1] for name in src.basis]
    tags = {bits[i] ^ bits[j] ^ bits[q]
            for i, row in enumerate(src.rows) for j, terms in row.items() for q, *_ in terms}
    passing = []
    for s in _SIGN_CHOICES:
        flips = sum(1 << k for k in range(3) if s[k] != s0[k])
        if all((tag & flips).bit_count() % 2 == 0 for tag in tags):
            passing.append(s)
    canonical = next(s for s in passing if s[:2] == (1, 1))
    gamma = poly(canonical[2]) * r * ell
    return IsomorphismSolution(
        alpha=r, beta=ell, gamma=gamma, map=scaling_map(src, dst, r, ell, gamma),
        src=src, dst=dst, passing_sign_choices=sorted(passing),
    )
