"""Lorentz covariance of the extended Dirac operator, proved from the six
generators instead of sampled by boosts.

S_munu = (1/4)[g^mu, g^nu], mu < nu < 4, generates the spinor Lorentz
transformations, and L_munu the vector ones, acting on lowered components.
L_munu is read from the algebra, not typed: [M_munu, P_sigma] =
i (L_munu)^rho_sigma P_rho in the flat table ``flat_deformed_algebra``.
``lorentz_covariance`` checks exactly, per generator:

* S_munu = (1/2) g^mu g^nu, that is g^mu g^nu = -g^nu g^mu;
* [S_munu, g^s] = g^r (L_munu)^r_s for s < 4, and [S_munu, g^4] = 0;
* [S_munu, D(k)] = (X k).grad D(k) with k0..k3 and l symbolic, where X k
  is the upper-index vector with lower(X k) = L_munu lower(k).  Given the
  gamma identities its g^4 component is k.(L_munu k) = 0 on D's
  coefficients.

Together they give D(Lambda k) S = S D(k) for every k and l on the whole
identity component of SO(1,3).  The gammas are read as phased
permutations from their store (``clifford._gamma_perms``): (column, p) per
row, the entry there i^p.  Each product of gammas is one too, so every
gamma identity is index arithmetic (``clifford._perm_product``) and no
matrix is built.  D's coefficients are read from
``modes.dirac_coefficients``, the one place D(k) is written.
"""

from __future__ import annotations

from itertools import combinations

from . import clifford, modes
from .clifford import _POLY_POWERS, _anticommute, _perm_product
from .lie_algebra import flat_deformed_algebra, lower
from .scalars import I, MOMENTUM_SYMBOLS, P_ZERO, _poly_sum_of_products, poly, sym

_MINUS_I = poly(-I)


def lorentz_generator(table, mu: int, nu: int) -> tuple:
    """(L_munu)^rho_sigma as rows rho of columns sigma of ParamPoly: the
    P_rho coefficient of [M_munu, P_sigma] in ``table``, divided by i."""
    index = table.index
    columns = [table.bracket(index[f"M{mu}{nu}"], index[f"P{sigma}"]) for sigma in range(4)]
    return tuple(tuple(column.get(index[f"P{rho}"], P_ZERO) * _MINUS_I for column in columns)
                 for rho in range(4))


def lorentz_covariance(eps5: int) -> dict:
    """How many generators, gamma identities and D identities were checked,
    in generator order and stopping at the first failure, and that failure
    or None."""
    counts = dict.fromkeys(("generators", "gamma_identities", "dirac_identities"), 0)
    gammas = clifford._gamma_perms(eps5)
    table = flat_deformed_algebra(eps5)
    coeffs = [poly(c) for c in modes.dirac_coefficients(MOMENTUM_SYMBOLS, sym("l"), eps5)]
    gradients = [[c.derivative(f"k{i}") for i in range(4)] for c in coeffs]
    low_k = lower(MOMENTUM_SYMBOLS)
    for mu, nu in combinations(range(4), 2):
        counts["generators"] += 1
        if not _anticommute(gammas[mu], gammas[nu]):
            return {**counts, "failure": f"g^{mu} g^{nu} != -g^{nu} g^{mu}"}
        twice = _perm_product(gammas[mu], gammas[nu])  # 2 S_munu
        vector = lorentz_generator(table, mu, nu)
        for sigma, g in enumerate(gammas):
            counts["gamma_identities"] += 1
            # [S_munu, g^s] = (a - b)/2 is 0 exactly when a = b; else it is
            # the phased permutation a = -b, which equals the sum
            # g^r (L_munu)^r_s when that has one term t g^r, t = i^p, and
            # a = t g^r, and for a real L only then
            a, b = _perm_product(twice, g), _perm_product(g, twice)
            column = [(rho, row[sigma]) for rho, row in enumerate(vector)
                      if sigma < 4 and row[sigma]]
            if not column:
                ok = a == b
            else:
                (rho, t), *more = column
                ok = (not more and t in _POLY_POWERS and a == _perm_product(b, turn=2)
                      == _perm_product(gammas[rho], turn=_POLY_POWERS.index(t)))
            if not ok:
                rhs = f"g^r (L_{mu}{nu})^r_{sigma}" if sigma < 4 else "0"
                return {**counts, "failure": f"[S_{mu}{nu}, g^{sigma}] != {rhs}"}
        counts["dirac_identities"] += 1
        moved = lower([sum((x * c for x, c in zip(row, low_k) if x), P_ZERO) for row in vector])
        rotated = [sum((x * c for x, c in zip(row, coeffs) if x), P_ZERO) for row in vector]
        for a, (grad, want) in enumerate(zip(gradients, rotated + [P_ZERO])):
            if _poly_sum_of_products(zip(grad, moved)) != want:
                return {**counts, "failure": f"[S_{mu}{nu}, D(k)] != (L_{mu}{nu} k).grad D(k)"
                                             f" on g^{a}"}
    return {**counts, "failure": None}
