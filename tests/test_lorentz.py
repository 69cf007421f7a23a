"""Lorentz covariance of the extended Dirac operator from its six
generators: the modes_lorentz_generators rows, a float oracle, and tampers
that each row must catch."""

from itertools import combinations

import numpy as np
import pytest
from exact_arrays import as_array
from exact_gammas import exact_gammas

from table_edits import set_bracket

from ncdirac import clifford, modes
from ncdirac.checks import RunConfig, cmd_modes
from ncdirac.lie_algebra import flat_deformed_algebra
from ncdirac.scalars import ExactScalar, poly


def _generator_rows(cfg=None):
    return {r.params["eps5"]: r for r in cmd_modes(cfg or RunConfig())
            if r.check == "modes_lorentz_generators"}


def test_lorentz_generator_rows_pass_with_their_counts():
    # the row runs once, at eps5 = 1, whatever the flags: the twist
    # l -> -i l carries it to -1, where the proof, run directly, passes
    # with the same counts
    counts = {"generators": 6, "gamma_identities": 30, "dirac_identities": 6, "failure": None}
    for cfg in (RunConfig(), RunConfig(eps5=-1)):
        [(eps5, row)] = _generator_rows(cfg).items()
        assert eps5 == 1 and row.status == "pass" and row.params == {"eps5": 1}
        assert row.details == counts
    assert modes.lorentz_covariance(-1) == counts


@pytest.mark.parametrize("eps5", [1, -1])
def test_lorentz_generators_match_a_float_oracle(eps5):
    # S = (1/4)[g^mu, g^nu] from complex gammas: [S, g^s] = g^r L^r_s and
    # [S, g^4] = 0, and [S, D(k)] matches the difference quotient of D
    # along the lowered k rotated by L, at a seeded numeric k and l
    gam = [as_array(g).astype(complex) for g in exact_gammas(eps5)]
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    rng = np.random.default_rng(3)
    k, ell = rng.normal(size=4), 0.7

    def dirac(k):
        low = eta @ k
        return sum(c * g for c, g in zip(low, gam[:4])) - eps5 * ell / 2 * (k @ low) * gam[4]

    for mu, nu in combinations(range(4), 2):
        s = (gam[mu] @ gam[nu] - gam[nu] @ gam[mu]) / 4
        lvec = np.zeros((4, 4))
        lvec[mu, nu], lvec[nu, mu] = eta[nu, nu], -eta[mu, mu]
        for sigma in range(4):
            want = sum(lvec[rho, sigma] * gam[rho] for rho in range(4))
            assert np.allclose(s @ gam[sigma] - gam[sigma] @ s, want, atol=1e-12)
        assert np.allclose(s @ gam[4] - gam[4] @ s, 0, atol=1e-12)
        moved = eta @ lvec @ eta @ k  # X k, with lower(X k) = L lower(k)
        h = 1e-6
        quotient = (dirac(k + h * moved) - dirac(k - h * moved)) / (2 * h)
        assert np.allclose(s @ dirac(k) - dirac(k) @ s, quotient, atol=1e-6)


def test_k2_on_g0_fails_the_generator_row(monkeypatch):
    # the k^2 term of D on g^0 instead of g^4 keeps every gamma identity
    # but breaks [S_01, D(k)] = (L_01 k).grad D(k)
    true_coefficients = modes.dirac_coefficients

    def on_g0(k, ell, eps5):
        c0, c1, c2, c3, c4 = true_coefficients(k, ell, eps5)
        return [c0 + c4, c1, c2, c3, 0]

    monkeypatch.setattr(modes, "dirac_coefficients", on_g0)
    for row in _generator_rows().values():
        assert row.status == "fail"
        assert row.details == {"generators": 1, "gamma_identities": 5, "dirac_identities": 1,
                               "failure": "[S_01, D(k)] != (L_01 k).grad D(k) on g^1"}


def test_g4_swapped_for_g0_fails_the_generator_row(monkeypatch):
    true_perms = clifford._gamma_perms
    monkeypatch.setattr(clifford, "_gamma_perms",
                        lambda eps5: (*true_perms(eps5)[:4], true_perms(eps5)[0]))
    for row in _generator_rows().values():
        assert row.status == "fail"
        assert row.details == {"generators": 1, "gamma_identities": 5, "dirac_identities": 0,
                               "failure": "[S_01, g^4] != 0"}


def _turned(mu, turn, row_index=None):
    """The gammas' store with row ``row_index`` of g^mu, or all of g^mu when
    it is None, multiplied by i^turn."""
    true_perms = clifford._gamma_perms

    def perms(eps5):
        gammas = list(true_perms(eps5))
        gammas[mu] = tuple((c, (p + turn) % 4) if row_index in (None, r) else (c, p)
                           for r, (c, p) in enumerate(gammas[mu]))
        return tuple(gammas)

    return perms


@pytest.mark.parametrize("turned, counts, failure", [
    # g^1 with one row negated no longer anticommutes with g^0
    (_turned(1, 2, row_index=0), (1, 0, 0), "g^0 g^1 != -g^1 g^0"),
    # i g^0 anticommutes with every g^a, but squares to -1: S_01 then
    # turns g^0 into +g^1 where -g^1 is due
    (_turned(0, 1), (1, 1, 0), "[S_01, g^0] != g^r (L_01)^r_0"),
])
def test_each_gamma_identity_fails_on_its_own_tamper(monkeypatch, turned, counts, failure):
    monkeypatch.setattr(clifford, "_gamma_perms", turned)
    for row in _generator_rows().values():
        assert row.status == "fail"
        assert row.details == {**dict(zip(("generators", "gamma_identities",
                                           "dirac_identities"), counts)),
                               "failure": failure}


@pytest.mark.parametrize("eps5", [1, -1])
@pytest.mark.parametrize("mu", range(4))
@pytest.mark.parametrize("row_index", range(4))
def test_one_flipped_gamma_sign_fails_the_generator_row(monkeypatch, eps5, mu, row_index):
    # the flip is made at both signs: the row fails, and so does the proof
    # run at eps5 directly
    monkeypatch.setattr(clifford, "_gamma_perms", _turned(mu, 2, row_index))
    row = _generator_rows()[1]
    assert row.status == "fail" and row.details["failure"] is not None
    assert modes.lorentz_covariance(eps5)["failure"] is not None


def test_flipped_table_coefficient_fails_the_generator_row(monkeypatch):
    # the vector generators are read from the table: [M01, P1] = +i P0 in
    # place of -i P0 asks for [S_01, g^1] = +g^0, and S_01 gives -g^0
    def flipped(eps5):
        table = flat_deformed_algebra(eps5)
        index = table.index
        set_bracket(table, index["M01"], index["P1"], {index["P0"]: poly(ExactScalar(0, 1))})
        return table

    monkeypatch.setattr(modes, "flat_deformed_algebra", flipped)
    for row in _generator_rows().values():
        assert row.status == "fail"
        assert row.details == {"generators": 1, "gamma_identities": 2, "dirac_identities": 0,
                               "failure": "[S_01, g^1] != g^r (L_01)^r_1"}
