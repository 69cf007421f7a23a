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
reads the deformed table built with r^2 in place of rho.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import cache

from .scalars import (
    MAX_DEGREE,
    P_ONE,
    ParamPoly,
    _GUARDS,
    _degree_overflow,
    _int_terms,
    _join,
    _shift,
    _make,
    _packed_poly,
    _reduced_sums,
    _turn_fields,
    _turned,
    _turns,
    poly,
    sym,
)

M_LABELS = ("M01", "M02", "M03", "M12", "M13", "M23")
P_LABELS = ("P0", "P1", "P2", "P3")
X_LABELS = ("x0", "x1", "x2", "x3")
C_LABEL = "C"
DEFORMED_BASIS = M_LABELS + P_LABELS + X_LABELS + (C_LABEL,)

# the index pairs (a < b) of the rotations M_ab, basis order: four dimensions
# in the deformed table, six in the orthogonal one
_M_PAIRS = tuple(itertools.combinations(range(4), 2))
_SIX_PAIRS = tuple(itertools.combinations(range(6), 2))


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

    def twist(self, phases=None, symbols=None, zero=()) -> "StructureConstants":
        """A new table: each term (q, monomial, a, b, d) of [e_i, e_j] times
        i^k, k = p_i + p_j - p_q + sum_s e_s deg_s(monomial) (mod 4), with
        ``phases`` the p of each generator (None: all 0) and ``symbols`` a
        map of symbol names to their e; a term that holds a symbol of
        ``zero`` is dropped.  This is the table over the basis i^p_i e_i
        with each symbol s sent to i^e_s s and each symbol of ``zero`` to 0.
        A unit factor keeps each term canonical and the terms' order, so
        nothing is re-sorted or reduced, and a pair that no phase touches
        keeps its term tuple."""
        rows = self.rows
        p = [0] * len(rows) if phases is None else list(phases)
        if len(p) != len(rows):
            raise ValueError(f"{len(p)} phases for a basis of {len(rows)} generators")
        fields = _turn_fields(symbols or {})
        drop = sum(MAX_DEGREE << shift for shift in {_shift(name) for name in zero})
        if not (fields or drop or any(p)):
            return self.copy()
        turns = {}  # packed monomial -> its symbols' quarter turns
        out = StructureConstants(self.basis)
        for i, (row, out_row) in enumerate(zip(rows, out.rows)):
            for j, terms in row.items():
                pij, moved, twisted = p[i] + p[j], False, []
                for term in terms:
                    q, mono, a, b, d = term
                    if mono & drop:
                        moved = True
                        continue
                    k = turns.get(mono)
                    if k is None:
                        k = turns[mono] = _turns(fields, mono)
                    k = (pij - p[q] + k) & 3
                    if k:
                        moved = True
                        term = (q, mono, *_turned(a, b, k), d)
                    twisted.append(term)
                if not moved:
                    out_row[j] = terms
                elif twisted:
                    out_row[j] = tuple(twisted)
        return out

    def dim(self) -> int:
        return len(self.basis)

    # -- serialization: the fixture file format, in ``fixture`` ------------

    def to_json(self) -> dict:
        from .fixture import write_table  # the format loads on first use
        return write_table(self)

    @staticmethod
    def from_json(data: dict) -> "StructureConstants":
        """The table of the fixture document ``data``: ``fixture.read_table``."""
        from .fixture import read_table
        return read_table(data)


def _rotation_brackets(alg: StructureConstants, pairs, diag):
    """Set [M_ab, M_cd] = i(M_ad g_bc + M_bc g_ad - M_bd g_ac - M_ac g_bd).

    ``pairs`` lists the index pairs (a < b) of the rotation generators in
    basis order, starting at index 0; ``diag`` is the diagonal of the
    metric g.  Two distinct pairs share at most one index, so at most one
    term is nonzero, and it never pairs an index with itself.
    """
    index = {pair: i for i, pair in enumerate(pairs)}
    for (a, b), (c, d) in itertools.combinations(pairs, 2):
        for p, q, x, y, sign in ((a, d, b, c, 1), (b, c, a, d, 1),
                                 (b, d, a, c, -1), (a, c, b, d, -1)):
            if x == y:  # M_qp = -M_pq
                n = sign * diag[x]
                alg._store(index[(a, b)], index[(c, d)], [
                    (index[(p, q)], 0, 0, n, 1) if p < q else (index[(q, p)], 0, 0, -n, 1)])


def quarter(eps: int, name: str = "eps5") -> int:
    """The quarter turns of i that square to the sign eps, 0 for +1 and 1
    for -1: the twist that carries the data at +1 to eps.  Any other value
    of the sign ``name``, or one that is no int (1.0, True), raises
    ValueError before any work is done."""
    if type(eps) is not int or eps not in (1, -1):
        raise ValueError(f"{name} must be +1 or -1")
    return (1 - eps) // 2


# Each table below is built once, at the sign pair (1, 1), on first use, and
# the other pairs are its twists (``StructureConstants.twist``): the four
# pairs are real forms of one complex algebra.  The cached tables are never
# handed out: the public builders return copies, so a caller's in-place
# edit of ``rows`` does not reach later calls.  Each public builder checks
# its signs with ``quarter``, eps4 first, before the cached call: the cache
# keys 1.0 and True as 1, so a bad sign would otherwise be answered once
# the int table is cached.


def build_deformed_algebra(eps4: int, eps5: int) -> StructureConstants:
    """Symbolic bracket table; coefficients are polynomials in l and rho."""
    quarter(eps4, "eps4")
    quarter(eps5)
    return _deformed_table(eps4, eps5).copy()


def flat_deformed_algebra(eps5: int) -> StructureConstants:
    """The rho -> 0 contraction of the deformed table.  It does not depend
    on eps4, which only ever multiplies rho."""
    quarter(eps5)
    return _flat_table(eps5).copy()


def build_orthogonal_algebra(eps4: int, eps5: int) -> StructureConstants:
    """so-type algebra of the 6-d metric diag(1,-1,-1,-1,eps4,eps5)."""
    quarter(eps4, "eps4")
    quarter(eps5)
    return _orthogonal_table(eps4, eps5).copy()


# packed monomials: the curvature rho, or r^2 where the isomorphism needs
# its square root r, and l^2
_RHO, _R2, _L2 = (_int_terms(sym(*power))[0][0] for power in (("rho",), ("r", 2), ("l", 2)))


@cache
def _flat_table(eps5: int) -> StructureConstants:
    return contract(_deformed_table(1, eps5), rho_to_zero=True)


@cache
def _deformed_table(eps4: int, eps5: int) -> StructureConstants:
    """The (1, 1) table with rho -> eps4 rho and l -> i l for eps5 = -1:
    the table holds only eps4 rho and eps5 l^2."""
    return _deformed_base(_RHO).twist(symbols={"rho": 2 * quarter(eps4, "eps4"),
                                                      "l": quarter(eps5)})


@cache
def _deformed_base(rho: int) -> StructureConstants:
    """The table at eps4 = eps5 = 1 with the curvature the packed monomial
    ``rho``.  Each coefficient is n*i times a monomial: the term
    (q, monomial, 0, n, 1) of e_q."""
    alg = StructureConstants(DEFORMED_BASIS)
    p_at, x_at, c_idx = (DEFORMED_BASIS.index(name) for name in ("P0", "x0", C_LABEL))

    _rotation_brackets(alg, _M_PAIRS, ETA4_DIAG)

    # the brackets of P and of x, one pattern: (v, w, s) is (P, x, rho), then (x, P, l^2)
    for v, w, s, sign in ((p_at, x_at, rho, -1), (x_at, p_at, _L2, 1)):
        # [M_munu, v_lam] = i(v_mu eta_nulam - v_nu eta_mulam): one term at most
        for (m_idx, (mu, nu)), lam in itertools.product(enumerate(_M_PAIRS), range(4)):
            if lam in (mu, nu):
                other, orient = (mu, 1) if lam == nu else (nu, -1)
                alg._store(m_idx, v + lam, [(v + other, 0, 0, orient * ETA4_DIAG[lam], 1)])
        # [v_mu, v_nu] = -i s M_munu
        for m_idx, (mu, nu) in enumerate(_M_PAIRS):
            alg._store(v + mu, v + nu, [(m_idx, s, 0, -1, 1)])
        # [P_mu, C] = -i rho x_mu ; [x_mu, C] = i l^2 P_mu
        for mu in range(4):
            alg._store(v + mu, c_idx, [(w + mu, s, 0, sign, 1)])

    for mu in range(4):
        # [P_mu, x_nu] = i eta_munu C
        alg._store(p_at + mu, x_at + mu, [(c_idx, 0, 0, ETA4_DIAG[mu], 1)])

    return alg


def contract(alg: StructureConstants, *, rho_to_zero=False, ell_to_zero=False) -> StructureConstants:
    """Flat and/or commutative-coordinate limits of a symbolic table, as a
    new table: the twist that sends each limit's symbol to 0 and turns
    nothing; with neither limit, a copy of ``alg``."""
    return alg.twist(zero=[name for name, limit in (("rho", rho_to_zero), ("l", ell_to_zero))
                           if limit])


@cache
def _orthogonal_table(eps4: int, eps5: int) -> StructureConstants:
    """The (1, 1) table over the basis i M_a4 for eps4 = -1 and i M_a5 for
    eps5 = -1 (M_45 takes both): a bracket that contracts the index 4 or 5
    picks up i^2 = -1, the sign of g_44 or g_55."""
    return _orthogonal_base().twist(
        [quarter(eps4, "eps4") * (4 in pair) + quarter(eps5) * (5 in pair) for pair in _SIX_PAIRS])


@cache
def _orthogonal_base() -> StructureConstants:
    """The table of the metric diag(1,-1,-1,-1,1,1)."""
    alg = StructureConstants(tuple(f"M{a}{b}" for a, b in _SIX_PAIRS))
    _rotation_brackets(alg, _SIX_PAIRS, ETA4_DIAG + (1, 1))
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


class LinearMap(namedtuple("LinearMap", "src dst columns")):
    """A scaling map: phi(src e_i) = c_i dst f_j, one target j per
    generator, held as columns[i] = {j: c_i} with c_i a ParamPoly: the
    StructureConstants src and dst, and one Combo per src basis element."""

    __slots__ = ()


class IsoCheck(namedtuple("IsoCheck", "ok invertible mismatches")):
    """The verdict, whether the map is invertible, and the mismatches as
    [((name_i, name_j), residual combo), ...]."""

    __slots__ = ()


def _map_invertible(lmap: LinearMap) -> bool:
    """Whether a scaling map is invertible, decided exactly: it is when
    every coefficient is nonzero and the targets are the whole target basis,
    each once.  A column with more than one entry raises ValueError."""
    if any(len(col) > 1 for col in lmap.columns):
        raise ValueError("a scaling map has one target per generator")
    targets = {j for col in lmap.columns for j, coeff in col.items() if coeff}
    return len(targets) == len(lmap.columns) == lmap.src.dim() == lmap.dst.dim()


def _bracket_mismatches(lmap: LinearMap) -> list:
    """[((name_i, name_j), residual combo), ...] in ``combinations`` order for
    each basis pair i < j with phi([a_i,a_j]_src) != [phi a_i, phi a_j]_dst:
    one ``_join`` sum per pair, tagged by the pair, all reduced at once."""
    src, dst_rows = lmap.src, lmap.dst.rows
    columns = [_combo_ints(col) for col in lmap.columns]
    pairs = list(itertools.combinations(range(src.dim()), 2))
    sums = {}
    for tag, (i, j) in enumerate(pairs):
        # phi([a_i, a_j]) = sum_m c_ij^m phi(a_m)
        for m, mono, xa, xb, xd in src.rows[i].get(j, ()):
            _join(sums, tag, mono, xa, xb, xd, columns[m])
        # -[phi a_i, phi a_j] = sum ca cb [f_b, f_a], ca * cb taken once
        for ia, ma, a1, b1, d1 in columns[i]:
            for ib, mb, a2, b2, d2 in columns[j]:
                right = dst_rows[ib].get(ia)
                if right is not None:
                    mono = ma + mb
                    if mono & _GUARDS:
                        raise _degree_overflow(ma, mb)
                    _join(sums, tag, mono, a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2, right)
    residuals = _reduced_sums(sums)
    return [((src.basis[pairs[tag][0]], src.basis[pairs[tag][1]]), residuals[tag])
            for tag in sorted(residuals)]


def verify_linear_isomorphism(lmap: LinearMap) -> IsoCheck:
    """Exact check that phi([a,b]_src) = [phi a, phi b]_dst on all basis pairs.

    Non-invertibility is reported separately from bracket mismatches.
    """
    mismatches = _bracket_mismatches(lmap)
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


class IsomorphismSolution(namedtuple(
        "IsomorphismSolution", "alpha beta gamma map src dst passing_sign_choices")):
    """The scalings alpha, beta and gamma (ParamPoly), their LinearMap from
    src, the deformed table with rho -> r^2, to dst, the orthogonal table,
    and passing_sign_choices, [(s_alpha, s_beta, s_gamma), ...]."""

    __slots__ = ()


def _isomorphism_source(eps4: int, eps5: int) -> StructureConstants:
    """A new deformed table at rho = r^2: the (1, 1) one twisted by r -> i r
    for eps4 = -1 and l -> i l for eps5 = -1, as eps4 rho = (i r)^2."""
    return _deformed_base(_R2).twist(symbols={"r": quarter(eps4, "eps4"), "l": quarter(eps5)})


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
    src = _isomorphism_source(eps4, eps5)
    r, ell = sym("r"), sym("l")
    dst = build_orthogonal_algebra(eps4, eps5)
    for s0 in ((1, 1, -1), (1, 1, 1)):
        lmap = scaling_map(src, dst, r, ell, poly(s0[2]) * r * ell)
        if not _bracket_mismatches(lmap) and _map_invertible(lmap):
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
