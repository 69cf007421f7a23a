"""The exact tables are built once and handed out as copies,
every gamma matrix ``gamma_sum`` builds is built fresh from the store, and
the seesaw certificate caches only a tuple of reality classes.

Editing what a builder returned must never reach a later call: each test
mutates a returned value in place and compares the next call with a build
that bypasses the caches (for the tables, ``table_oracle``'s per-sign
builds).
"""

import itertools
from fractions import Fraction

import pytest
from exact_gammas import exact_gammas
from test_clifford import DENSE_GAMMAS
from table_edits import set_bracket
from table_oracle import deformed_table, orthogonal_table

from ncdirac import seesaw
from ncdirac.cli import main
from ncdirac.clifford import gamma_sum
from ncdirac.lie_algebra import (
    build_deformed_algebra,
    build_orthogonal_algebra,
    contract,
    flat_deformed_algebra,
)
from ncdirac.matrices import ExactMatrix
from ncdirac.scalars import I, ExactScalar, poly
from ncdirac.seesaw import CouplingConfig, exact_mode_spectrum

SIGNS = list(itertools.product((1, -1), repeat=2))


def _same_table(a, b):
    return a.basis == b.basis and a.rows == b.rows


def _fresh_gammas(eps5):
    """g0..g3 from their dense block forms and g4 from the product, uncached."""
    g = [ExactMatrix([[ExactScalar(int(x.real), int(x.imag)) for x in row] for row in dense])
         for dense in DENSE_GAMMAS]
    i = poly(I)
    g5 = (g[0] @ g[1] @ g[2] @ g[3]).scale(i)
    return g + [g5 if eps5 == 1 else g5.scale(i)], g5


def _vandalize(table):
    """set_bracket on one pair and an in-place edit of another's row."""
    i, j = table.pairs()[0]
    set_bracket(table, i, j, {k: c * poly(3) for k, c in table.bracket(i, j).items()})
    last = table.rows[-1]
    last[min(last)] = ((0, 0, 7, 0, 1),)  # the term 7 e_0


@pytest.mark.parametrize("eps4,eps5", SIGNS)
def test_deformed_table_edits_do_not_reach_the_cache(eps4, eps5):
    _vandalize(build_deformed_algebra(eps4, eps5))
    assert _same_table(build_deformed_algebra(eps4, eps5), deformed_table(eps4, eps5))


@pytest.mark.parametrize("eps4,eps5", SIGNS)
def test_orthogonal_table_edits_do_not_reach_the_cache(eps4, eps5):
    _vandalize(build_orthogonal_algebra(eps4, eps5))
    assert _same_table(build_orthogonal_algebra(eps4, eps5),
                       orthogonal_table(eps4, eps5))


@pytest.mark.parametrize("eps5", [1, -1])
def test_flat_table_is_the_contraction_for_either_eps4(eps5):
    _vandalize(flat_deformed_algebra(eps5))
    flat = flat_deformed_algebra(eps5)
    for eps4 in (1, -1):
        assert _same_table(flat, contract(deformed_table(eps4, eps5), rho_to_zero=True))


@pytest.mark.parametrize("eps5", [1, -1])
def test_gamma_rep_edits_do_not_reach_the_cache(eps5):
    gammas = exact_gammas(eps5)
    gammas[0].rows[0][3] = poly(7)
    gammas[4].rows[2] = [poly(0)] * 4
    want, _ = _fresh_gammas(eps5)
    assert list(exact_gammas(eps5)) == want
    assert list(exact_gammas(eps5)) == want


def test_gamma5_and_gamma_edits_do_not_reach_the_cache():
    want, g5 = _fresh_gammas(1)
    edited = exact_gammas(1)[4]
    edited.rows[0][0] = poly(9)
    assert exact_gammas(1)[4] == g5
    g0 = exact_gammas(1)[0]
    g0.rows[1] = g0.rows[0]
    assert exact_gammas(1)[0] == want[0]


@pytest.mark.parametrize("eps5", [1, -1])
def test_the_eigenspace_classes_and_a_spectrum_hold_nothing_to_edit(eps5):
    # the seesaw certificate caches the classes of P's two eigenspaces as a
    # tuple, equal to a fresh proof, and a spectrum holds no container to edit
    spectrum = exact_mode_spectrum(
        CouplingConfig(g=1, vev=Fraction(1, 100), ell=Fraction(1), eps5=eps5))
    hash(spectrum)  # every field is immutable
    with pytest.raises(AttributeError):
        spectrum.light_class = "Dirac"
    classes = seesaw._eigenspace_classes(eps5)
    assert type(classes) is tuple
    assert classes == seesaw._eigenspace_classes.__wrapped__(eps5)


def test_builders_keep_their_input_checks():
    for build, args in ((gamma_sum, (0, [1])), (flat_deformed_algebra, (2,)),
                        (build_deformed_algebra, (1, 0)),
                        (build_orthogonal_algebra, (-2, 1))):
        with pytest.raises(ValueError):
            build(*args)


@pytest.mark.parametrize("build,bad,name", [
    (build_deformed_algebra, (1, 1.0), "eps5"), (build_deformed_algebra, (1, True), "eps5"),
    (build_deformed_algebra, (1.0, 1), "eps4"),
    (build_orthogonal_algebra, (1, 1.0), "eps5"), (build_orthogonal_algebra, (1, True), "eps5"),
    (build_orthogonal_algebra, (True, 1), "eps4"),
    (flat_deformed_algebra, (1.0,), "eps5"), (flat_deformed_algebra, (True,), "eps5"),
])
def test_a_cached_table_still_refuses_a_sign_that_is_no_int(build, bad, name):
    # the cache keys 1.0 and True as 1: with the int table cached, the bad
    # sign must still raise quarter's error, as in a fresh process
    build(*[1] * len(bad))
    with pytest.raises(ValueError, match=f"^{name} must be \\+1 or -1$"):
        build(*bad)


def test_check_all_repeats_byte_for_byte_in_one_process(tmp_path):
    outs = []
    for n, seed in enumerate((42, 7, 42)):
        path = tmp_path / f"{n}.json"
        assert main(["check", "all", "--seed", str(seed), "--out", str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[2]
    assert outs[0] != outs[1]
