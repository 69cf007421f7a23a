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
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .matrices import echelon
from .scalars import (
    P_ONE,
    ZERO,
    ParamPoly,
    _GUARDS,
    _degree_overflow,
    _int_terms,
    _json_int_terms,
    _make,
    _packed_poly,
    _reduced,
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
_PAIRS = "entries must be a list of [index, coefficient] pairs"


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
        """Set [e_i, e_j] to ``terms``, a list of canonical (q, monomial,
        a, b, d) ints with distinct (q, monomial) that is sorted in place,
        once i, j and the output indices they were given for pass
        ``_check``."""
        self._check(i, j, outputs)
        if i == j:
            raise ValueError("bracket of a generator with itself is zero")
        rows = self.rows
        if terms:
            terms.sort()
            rows[i][j] = tuple(terms)
            rows[j][i] = tuple([(q, m, -a, -b, d) for q, m, a, b, d in terms])
        else:
            rows[i].pop(j, None)
            rows[j].pop(i, None)

    def set_bracket(self, i: int, j: int, combo: Combo):
        self._store(i, j, _combo_ints(combo), combo)

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
        out = StructureConstants(self.basis)
        for i, j in self.pairs():
            out.set_bracket(i, j, {k: c.substitute(bindings) for k, c in self.bracket(i, j).items()})
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
        is not a list of strings, a bracket that is not a list of
        [index, coefficient] pairs, a malformed entry, a key not written as
        ``to_json`` writes it ("i,j" in ASCII digits), an output index or
        exponent that is not a JSON integer, an index outside the basis or a
        pair given twice raises ValueError naming the bracket key."""
        try:
            basis, brackets = data["basis"], data["brackets"].items()
            if type(basis) is not list or not all(type(name) is str for name in basis):
                raise TypeError
        except (AttributeError, KeyError, TypeError):
            raise ValueError("a structure-constant table is an object with a "
                             "'basis' list and a 'brackets' object") from None
        alg = StructureConstants(basis)
        seen = {}
        for key, entries in brackets:
            try:
                if type(key) is not str:
                    raise TypeError("is not a string")
                i, j = map(int, key.split(","))
                # int() also reads "+1", " 1", "1_0", "01" and non-ASCII digits
                if key != f"{i},{j}":
                    raise ValueError(f"is not written as {i},{j}")
                pair = (min(i, j), max(i, j))
                if pair in seen:
                    raise ValueError(f"repeats the pair of key {seen[pair]!r}")
                seen[pair] = key
                outputs, terms = [], []
                if type(entries) is not list:
                    raise TypeError(_PAIRS)
                for entry in entries:
                    try:
                        k, pj = entry
                    except (TypeError, ValueError):
                        raise TypeError(_PAIRS) from None
                    if type(k) is not int:
                        raise TypeError(f"output index {k!r} is not an integer")
                    if k in outputs:
                        raise ValueError(f"lists output index {k} twice")
                    outputs.append(k)
                    for mono, (a, b, d) in _json_int_terms(pj).items():
                        terms.append((k, mono, a, b, d))
                alg._store(i, j, terms, outputs)
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
# caller's set_bracket or in-place edit does not reach later calls.


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
    """Flat and/or commutative-coordinate limits of a symbolic table."""
    bindings = {}
    if rho_to_zero:
        bindings["rho"] = 0
    if ell_to_zero:
        bindings["l"] = 0
    if not bindings:
        return alg
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


def _join(sums: dict, tag, mono: int, xa: int, xb: int, xd: int, row):
    """Add (xa + xb*i)/xd times each term of ``row`` to ``sums``.

    The left factor has packed monomial ``mono``; ``row`` lists
    (q, monomial, a, b, d) terms.  sums[(tag, q, monomial)] holds the
    running sum as an unreduced [a, b, d] list of ints, updated in place:
    equal denominators add, others cross-multiply, and ``_residuals``
    reduces each sum once.
    """
    for q, mb, ya, yb, yd in row:
        m = mono + mb
        if m & _GUARDS:
            raise _degree_overflow(mono, mb)
        key = (tag, q, m)
        pa = xa * ya - xb * yb
        pb = xa * yb + xb * ya
        pd = xd * yd
        acc = sums.get(key)
        if acc is None:
            sums[key] = [pa, pb, pd]
        else:
            d = acc[2]
            if d == pd:
                acc[0] += pa
                acc[1] += pb
            else:
                acc[0] = acc[0] * pd + pa * d
                acc[1] = acc[1] * pd + pb * d
                acc[2] = d * pd


def _residuals(sums: dict) -> dict:
    """tag -> residual combo of the nonzero sums of ``_join``, each brought
    to canonical form once."""
    out = {}
    for (tag, q, mono), (a, b, d) in sums.items():
        if a or b:
            out.setdefault(tag, {}).setdefault(q, {})[mono] = _reduced(a, b, d)
    return {tag: {q: _packed_poly(terms) for q, terms in combo.items()}
            for tag, combo in out.items()}


def jacobi_residual(alg: StructureConstants):
    """All violated Jacobi triples: [(names, residual combo), ...], in
    ``itertools.combinations`` order.

    The residual of (i, j, k) is the exact sum of [[e_i, e_j], e_k] and its
    two cyclic shifts.  A sparse join forms only the nonzero products: for
    each stored pair a < b, each term c_ab^m of [e_a, e_b] and each
    c not in {a, b} with [e_m, e_c] != 0, the product c_ab^m [e_m, e_c]
    belongs to the triple sorted(a, b, c).  It enters with sign -1 when
    a < c < b, where the cyclic term is [[e_b, e_a], e_c].
    """
    rows = alg.rows
    sums = {}
    for a, row in enumerate(rows):
        for b, left in row.items():
            if b < a:
                continue
            for m, mono, xa, xb, xd in left:
                for c, right in rows[m].items():
                    if c > b:
                        _join(sums, (a, b, c), mono, xa, xb, xd, right)
                    elif c < a:
                        _join(sums, (c, a, b), mono, xa, xb, xd, right)
                    elif a < c < b:
                        _join(sums, (a, c, b), mono, -xa, -xb, xd, right)
    residuals = _residuals(sums)
    basis = alg.basis
    return [((basis[i], basis[j], basis[k]), residuals[i, j, k])
            for i, j, k in sorted(residuals)]


def jacobi_triple_count(alg: StructureConstants) -> int:
    n = alg.dim()
    return n * (n - 1) * (n - 2) // 6


class LinearMap(NamedTuple):
    """phi(src e_i) = sum_j matrix[j][i] dst f_j, coefficients ParamPoly."""

    src: StructureConstants
    dst: StructureConstants
    columns: list  # one Combo per src basis element


class IsoCheck(NamedTuple):
    ok: bool
    invertible: bool
    mismatches: list  # [((name_i, name_j), residual combo)]


_SAMPLE_POINTS = (
    {"l": 2, "rho": 9, "r": 3, "m": 1, "k0": 1, "k1": 2, "k2": 3, "k3": 5, "mu": 1, "v": 1},
    {
        "l": Fraction(3, 2),
        "rho": Fraction(25, 4),
        "r": Fraction(5, 2),
        "m": Fraction(4, 3),
        "k0": 2,
        "k1": 3,
        "k2": 5,
        "k3": 7,
        "mu": Fraction(1, 2),
        "v": Fraction(2, 3),
    },
)


def _map_invertible(lmap: LinearMap) -> bool:
    """Exact rank at fixed nonzero rational sample points of the symbols."""
    n_dst, n_src = lmap.dst.dim(), lmap.src.dim()
    if n_dst != n_src:
        return False
    for sample in _SAMPLE_POINTS:
        rows = [[ZERO] * n_src for _ in range(n_dst)]
        for i, col in enumerate(lmap.columns):
            for j, coeff in col.items():
                rows[j][i] = coeff.evaluate(sample)
        if len(echelon(rows)) == n_src:
            return True
    return False


def _pair_sums(columns, src_rows, dst_rows, i: int, j: int, tags) -> dict:
    """The ``_join`` sums of phi([a_i, a_j]) - [phi a_i, phi a_j] for the
    basis pair i < j: each term c_ij^m phi(a_m) under the tag
    tags[i] ^ tags[j] ^ tags[m], the bracket under tag 0.

    ``columns`` are the map's columns as ``_combo_ints``; ``src_rows`` and
    ``dst_rows`` are the ``rows`` of its tables.
    """
    sums = {}
    flip = tags[i] ^ tags[j]
    # phi([a_i, a_j]) = sum_m c_ij^m phi(a_m)
    for m, mono, xa, xb, xd in src_rows[i].get(j, ()):
        _join(sums, flip ^ tags[m], mono, xa, xb, xd, columns[m])
    # -[phi a_i, phi a_j] = sum ca cb [f_b, f_a], ca * cb taken once
    for ia, ma, a1, b1, d1 in columns[i]:
        for ib, mb, a2, b2, d2 in columns[j]:
            right = dst_rows[ib].get(ia)
            if right is not None:
                mono = ma + mb
                if mono & _GUARDS:
                    raise _degree_overflow(ma, mb)
                _join(sums, 0, mono, a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2, right)
    return sums


def _bracket_mismatches(lmap: LinearMap):
    """Yield ((name_i, name_j), residual combo) for each basis pair i < j
    with phi([a_i,a_j]_src) != [phi a_i, phi a_j]_dst, lazily; each pair's
    difference is summed by ``_join`` and reduced once.
    """
    src = lmap.src
    columns = [_combo_ints(col) for col in lmap.columns]
    untagged = [0] * src.dim()
    for i, j in itertools.combinations(range(src.dim()), 2):
        residual = _residuals(_pair_sums(columns, src.rows, lmap.dst.rows, i, j, untagged)).get(0)
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
    check: IsoCheck  # the search's own full verdict on ``map``


# the sign choices (s_alpha, s_beta, s_gamma); bit 1, 2 or 4 of a tag reads
# s_alpha, s_beta or s_gamma, as in ``_scaling_target``
_SIGN_CHOICES = tuple(itertools.product((1, -1), repeat=3))


def _character(s) -> list:
    """chi_t(s) for each tag t in 0..7: the product of the signs of s on
    the bits of t."""
    return [(s[0] if t & 1 else 1) * (s[1] if t & 2 else 1) * (s[2] if t & 4 else 1)
            for t in range(8)]


def _signed_sum_is_zero(terms, chi) -> bool:
    """Whether sum chi[t] (a + b*i)/d over the (t, a, b, d) terms is zero."""
    sa = sb = 0
    sd = 1
    for tag, a, b, d in terms:
        if chi[tag] < 0:
            a, b = -a, -b
        if d == sd:
            sa += a
            sb += b
        else:
            sa = sa * d + a * sd
            sb = sb * d + b * sd
            sd *= d
    return not (sa or sb)


def _passing_signs(unsigned: LinearMap) -> list:
    """The sign choices s whose map phi_s matches every bracket, from one
    pass over the basis pairs.

    phi_s sends a_m to chi_m(s) phi(a_m), where phi is ``unsigned`` and
    chi_m is the character of the coefficient bit of a_m.  Multiplied by
    chi_i(s) chi_j(s), the match of the pair i < j reads
    sum_m chi_i chi_j chi_m (s) c_ij^m phi(a_m) = [phi a_i, phi a_j]: so
    ``_pair_sums`` sums each term under its character once, and a choice
    passes when the sums weighted by its character values cancel at every
    output generator and monomial.
    """
    src = unsigned.src
    columns = [_combo_ints(col) for col in unsigned.columns]
    bits = [_scaling_target(name)[1] for name in src.basis]
    alive = [(s, _character(s)) for s in _SIGN_CHOICES]
    for i, j in itertools.combinations(range(src.dim()), 2):
        outputs = {}
        for (tag, q, mono), acc in _pair_sums(columns, src.rows, unsigned.dst.rows, i, j,
                                              bits).items():
            outputs.setdefault((q, mono), []).append((tag, *acc))
        for terms in outputs.values():
            alive = [(s, chi) for s, chi in alive if _signed_sum_is_zero(terms, chi)]
        if not alive:
            break
    return [s for s, _ in alive]


def solve_isomorphism_scalings(eps4: int, eps5: int) -> IsomorphismSolution:
    """Exhaustive sign search for the rescaling identifying the two algebras.

    The bracket [P_mu, P_nu] = -i eps4 rho M_munu forces alpha^2 = rho, which
    has no polynomial solution in rho itself; the deformed table is therefore
    reparametrized with rho = r^2 before matching.  The eight candidates
    (s_alpha r, s_beta l, s_gamma r l) are the map (r, l, r l) with a sign
    on each generator class, so one pass over the basis pairs decides all
    eight (``_passing_signs``), and one exact rank serves them all, since
    flipping the signs of columns leaves the rank alone.  All sign choices
    with gamma = -alpha*beta pass; the canonical representative
    (r, l, -r*l) is returned, with the search's verdict on it as ``check``.
    """
    r = sym("r")
    ell = sym("l")
    _check_signs(eps4, eps5)
    src = _deformed_table(eps4, eps5).substitute({"rho": r * r})
    dst = build_orthogonal_algebra(eps4, eps5)
    unsigned = scaling_map(src, dst, r, ell, r * ell)
    passing = _passing_signs(unsigned)
    if passing and not _map_invertible(unsigned):
        passing = []
    canonical = next((s for s in passing if s[:2] == (1, 1)), None)
    if canonical is None:
        raise ArithmeticError("no scaling signs satisfy the bracket match")
    gamma = poly(canonical[2]) * r * ell
    return IsomorphismSolution(
        alpha=r, beta=ell, gamma=gamma, map=scaling_map(src, dst, r, ell, gamma),
        src=src, dst=dst, passing_sign_choices=sorted(passing),
        check=IsoCheck(ok=True, invertible=True, mismatches=[]),
    )
