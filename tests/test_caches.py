"""The exact tables are built once per sign choice and handed out as copies.

Editing what a builder returned must never reach a later call: each test
mutates a returned value in place and compares the next call with a build
that bypasses the caches.
"""

import itertools

import pytest

from ncdirac import clifford, lie_algebra
from ncdirac.cli import main
from ncdirac.clifford import build_majorana_rep, gamma, gamma5
from ncdirac.lie_algebra import (
    build_deformed_algebra,
    build_orthogonal_algebra,
    contract,
    flat_deformed_algebra,
)
from ncdirac.matrices import ExactMatrix
from ncdirac.scalars import ExactScalar, poly

SIGNS = list(itertools.product((1, -1), repeat=2))


def _same_table(a, b):
    return a.basis == b.basis and a.rows == b.rows


def _fresh_deformed(eps4, eps5):
    return lie_algebra._deformed_table.__wrapped__(eps4, eps5)


def _fresh_orthogonal(eps4, eps5):
    return lie_algebra._orthogonal_table.__wrapped__(eps4, eps5)


def _fresh_gammas(eps5):
    """g0..g3 from their entry tables and g4 from the product, uncached."""
    g = [ExactMatrix.from_complex_entries(clifford._GAMMA_ENTRIES[mu]) for mu in range(4)]
    i = poly(ExactScalar.i())
    g5 = (g[0] @ g[1] @ g[2] @ g[3]).scale(i)
    return g + [g5 if eps5 == 1 else g5.scale(i)], g5


def _vandalize(table):
    """set_bracket on one pair and an in-place edit of another's row."""
    i, j = table.pairs()[0]
    table.set_bracket(i, j, {k: c * poly(3) for k, c in table.bracket(i, j).items()})
    last = table.rows[-1]
    last[min(last)] = ((0, 0, 7, 0, 1),)  # the term 7 e_0


@pytest.mark.parametrize("eps4,eps5", SIGNS)
def test_deformed_table_edits_do_not_reach_the_cache(eps4, eps5):
    _vandalize(build_deformed_algebra(eps4, eps5))
    assert _same_table(build_deformed_algebra(eps4, eps5), _fresh_deformed(eps4, eps5))


@pytest.mark.parametrize("eps4,eps5", SIGNS)
def test_orthogonal_table_edits_do_not_reach_the_cache(eps4, eps5):
    _vandalize(build_orthogonal_algebra(eps4, eps5))
    assert _same_table(build_orthogonal_algebra(eps4, eps5),
                       _fresh_orthogonal(eps4, eps5))


@pytest.mark.parametrize("eps5", [1, -1])
def test_flat_table_is_the_contraction_for_either_eps4(eps5):
    _vandalize(flat_deformed_algebra(eps5))
    flat = flat_deformed_algebra(eps5)
    for eps4 in (1, -1):
        assert _same_table(flat, contract(_fresh_deformed(eps4, eps5), rho_to_zero=True))


@pytest.mark.parametrize("eps5", [1, -1])
def test_gamma_rep_edits_do_not_reach_the_cache(eps5):
    rep = build_majorana_rep(eps5)
    rep.gamma[0].rows[0][3] = poly(7)
    rep.gamma[4].rows[2] = [poly(0)] * 4
    want, _ = _fresh_gammas(eps5)
    assert list(build_majorana_rep(eps5).gamma) == want
    assert list(build_majorana_rep(eps5).gamma) == want


def test_gamma5_and_gamma_edits_do_not_reach_the_cache():
    want, g5 = _fresh_gammas(1)
    edited = gamma5()
    edited.rows[0][0] = poly(9)
    assert gamma5() == g5
    g0 = gamma(0)
    g0.rows[1] = g0.rows[0]
    assert gamma(0) == want[0]
    assert build_majorana_rep(1).gamma[4] == g5


def test_builders_keep_their_input_checks():
    for mu in (4, -1):
        with pytest.raises(KeyError):
            gamma(mu)
    for build, args in ((build_majorana_rep, (0,)), (flat_deformed_algebra, (2,)),
                        (build_deformed_algebra, (1, 0)),
                        (build_orthogonal_algebra, (-2, 1))):
        with pytest.raises(ValueError):
            build(*args)


def test_check_all_repeats_byte_for_byte_in_one_process(tmp_path):
    outs = []
    for n, seed in enumerate((42, 7, 42)):
        path = tmp_path / f"{n}.json"
        assert main(["check", "all", "--seed", str(seed), "--out", str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[2]
    assert outs[0] != outs[1]
