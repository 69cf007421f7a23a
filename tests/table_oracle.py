"""Per-sign builds of the deformed and orthogonal tables, the reference for
the engine's twists of its (1, 1) tables.

Each table is written out at the given signs with the metric and the
weights eps4 rho and eps5 l^2 as the brackets state them, straight into the
store through its checked write, and with no cache.
"""

import itertools

from substitution import substituted_table

from ncdirac.lie_algebra import DEFORMED_BASIS, ETA4_DIAG, StructureConstants
from ncdirac.scalars import _int_terms, sym

_M_PAIRS = tuple(itertools.combinations(range(4), 2))
_SIX_PAIRS = tuple(itertools.combinations(range(6), 2))


def _rotations(alg, pairs, diag):
    """[M_ab, M_cd] = i(M_ad g_bc + M_bc g_ad - M_bd g_ac - M_ac g_bd) for the
    rotations over the index ``pairs`` (a < b, basis order from index 0) of
    the diagonal metric ``diag``."""
    index = {pair: i for i, pair in enumerate(pairs)}
    metric = lambda x, y: diag[x] if x == y else 0
    for (a, b), (c, d) in itertools.combinations(pairs, 2):
        im = {}  # output index -> n, for the coefficient n*i
        for (p, q), g in (((a, d), metric(b, c)), ((b, c), metric(a, d)),
                          ((b, d), -metric(a, c)), ((a, c), -metric(b, d))):
            if g:
                idx, orient = (index[(p, q)], 1) if p < q else (index[(q, p)], -1)
                im[idx] = im.get(idx, 0) + g * orient
        alg._store(index[(a, b)], index[(c, d)], [(k, 0, 0, n, 1) for k, n in im.items() if n])


def deformed_table(eps4: int, eps5: int) -> StructureConstants:
    """The deformed table at (eps4, eps5): each coefficient n*i times a
    monomial, the term (q, monomial, 0, n, 1) of e_q."""
    alg = StructureConstants(DEFORMED_BASIS)
    rho = _int_terms(sym("rho"))[0][0]  # packed monomials
    ell2 = _int_terms(sym("l", 2))[0][0]
    p_of = lambda mu: 6 + mu
    x_of = lambda mu: 10 + mu
    c_idx = 14
    _rotations(alg, _M_PAIRS, ETA4_DIAG)
    # [M_munu, P_lam] = i(P_mu eta_nulam - P_nu eta_mulam); same pattern for x
    for (m_idx, (mu, nu)), lam in itertools.product(enumerate(_M_PAIRS), range(4)):
        for vec_of in (p_of, x_of):
            terms = []
            if nu == lam:
                terms.append((vec_of(mu), 0, 0, ETA4_DIAG[lam], 1))
            if mu == lam:
                terms.append((vec_of(nu), 0, 0, -ETA4_DIAG[lam], 1))
            alg._store(m_idx, vec_of(lam), terms)
    for m_idx, (mu, nu) in enumerate(_M_PAIRS):
        # [P_mu, P_nu] = -i eps4 rho M_munu ; [x_mu, x_nu] = -i eps5 l^2 M_munu
        alg._store(p_of(mu), p_of(nu), [(m_idx, rho, 0, -eps4, 1)])
        alg._store(x_of(mu), x_of(nu), [(m_idx, ell2, 0, -eps5, 1)])
    for mu in range(4):
        # [P_mu, x_nu] = i eta_munu C
        alg._store(p_of(mu), x_of(mu), [(c_idx, 0, 0, ETA4_DIAG[mu], 1)])
        # [P_mu, C] = -i eps4 rho x_mu ; [x_mu, C] = i eps5 l^2 P_mu
        alg._store(p_of(mu), c_idx, [(x_of(mu), rho, 0, -eps4, 1)])
        alg._store(x_of(mu), c_idx, [(p_of(mu), ell2, 0, eps5, 1)])
    return alg


def orthogonal_table(eps4: int, eps5: int) -> StructureConstants:
    """The rotations of the metric diag(1,-1,-1,-1,eps4,eps5)."""
    alg = StructureConstants(tuple(f"M{a}{b}" for a, b in _SIX_PAIRS))
    _rotations(alg, _SIX_PAIRS, ETA4_DIAG + (eps4, eps5))
    return alg


def isomorphism_source(eps4: int, eps5: int) -> StructureConstants:
    """The deformed table at (eps4, eps5) with rho -> r^2."""
    return substituted_table(deformed_table(eps4, eps5), {"rho": sym("r", 2)})
