"""Lorentz covariance of the extended Dirac operator, proved from the six
generators instead of sampled by boosts.

S_munu = (1/4)[g^mu, g^nu], mu < nu < 4, generates the spinor Lorentz
transformations, and (L_munu)^rho_sigma = delta^rho_mu eta_nusigma -
delta^rho_nu eta_musigma the vector ones, acting on lowered components.
``lorentz_covariance`` checks exactly, per generator:

* S_munu = (1/2) g^mu g^nu, that is g^mu g^nu = -g^nu g^mu;
* [S_munu, g^s] = g^r (L_munu)^r_s for s < 4, and [S_munu, g^4] = 0;
* [S_munu, D(k)] = (X k).grad D(k) with k0..k3 and l symbolic, where X k
  is the upper-index vector with lower(X k) = L_munu lower(k).  Given the
  gamma identities its g^4 component is k.(L_munu k) = 0 on D's
  coefficients.

Together they give D(Lambda k) S = S D(k) for every k and l on the whole
identity component of SO(1,3).  Each gamma has one unit entry per row
(``clifford._gamma_units``), so each gamma and each product of gammas is a
phased permutation: held as (column, p) per row, its entry there i^p, a
product is index arithmetic and no matrix is built.  D's coefficients are
read from ``modes.dirac_coefficients``, the one place D(k) is written.
"""

from __future__ import annotations

from itertools import combinations

from . import clifford, modes
from .lie_algebra import ETA4_DIAG, lower
from .scalars import I, MOMENTUM_SYMBOLS, ONE, P_ZERO, _poly_sum_of_products, poly, sym

_PHASES = {ONE: 0, I: 1, -ONE: 2, -I: 3}


def lorentz_generator(mu: int, nu: int) -> tuple:
    """(L_munu)^rho_sigma as rows rho of columns sigma."""
    return tuple(tuple(ETA4_DIAG[nu] * (rho == mu and sigma == nu)
                       - ETA4_DIAG[mu] * (rho == nu and sigma == mu) for sigma in range(4))
                 for rho in range(4))


def _phased(units) -> tuple | None:
    """A gamma's unit rows as (column, p) per row; None unless they form a
    phased permutation."""
    if ([r for r, _, _ in units] != [0, 1, 2, 3] or sorted(c for _, c, _ in units) != [0, 1, 2, 3]
            or not all(x in _PHASES for _, _, x in units)):
        return None
    return tuple((c, _PHASES[x]) for _, c, x in units)


def _times(x: tuple, y: tuple) -> tuple:
    return tuple((y[c][0], (p + y[c][1]) % 4) for c, p in x)


def _negated(x: tuple) -> tuple:
    return tuple((c, (p + 2) % 4) for c, p in x)


def lorentz_covariance(eps5: int) -> dict:
    """How many generators, gamma identities and D identities were checked,
    in generator order and stopping at the first failure, and that failure
    or None."""
    counts = dict.fromkeys(("generators", "gamma_identities", "dirac_identities"), 0)
    gammas = [_phased(units) for units in clifford._gamma_units(eps5)]
    if None in gammas:
        return {**counts, "failure": "a gamma is not a phased permutation"}
    coeffs = [poly(c) for c in modes.dirac_coefficients(MOMENTUM_SYMBOLS, sym("l"), eps5)]
    gradients = [[c.derivative(f"k{i}") for i in range(4)] for c in coeffs]
    low_k = lower(MOMENTUM_SYMBOLS)
    for mu, nu in combinations(range(4), 2):
        counts["generators"] += 1
        twice = _times(gammas[mu], gammas[nu])  # 2 S_munu
        if twice != _negated(_times(gammas[nu], gammas[mu])):
            return {**counts, "failure": f"g^{mu} g^{nu} != -g^{nu} g^{mu}"}
        vector = lorentz_generator(mu, nu)
        for sigma, g in enumerate(gammas):
            counts["gamma_identities"] += 1
            # [S_munu, g^s] = (a - b)/2 is 0 exactly when a = b, and t g^r
            # (t = +-1) exactly when a = -b = t g^r: all entries are units
            a, b = _times(twice, g), _times(g, twice)
            column = [(rho, row[sigma]) for rho, row in enumerate(vector)
                      if sigma < 4 and row[sigma]]
            if column:
                [(rho, t)] = column
                ok = a == _negated(b) == (gammas[rho] if t == 1 else _negated(gammas[rho]))
            else:
                ok = a == b
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
