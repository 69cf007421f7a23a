"""The coupled 8x8 operator written out entry by entry, as the tests'
oracle for the seesaw spectrum and the gamma blocks."""

from fractions import Fraction

from ncdirac.clifford import gamma_sum
from ncdirac.lie_algebra import lower
from ncdirac.matrices import ExactMatrix
from ncdirac.scalars import ExactScalar, poly
from ncdirac.seesaw import CouplingConfig, _momentum


def coupled_matrix(k, c: CouplingConfig) -> ExactMatrix:
    """Exact 8x8 block matrix [[g.k, gv],[g*v, g.k + g^4 (2/l)]].

    Momentum components may be exact rationals or ParamPoly symbols.
    """
    k_low = lower(_momentum(k))
    gk = gamma_sum(c.eps5, k_low)
    v = ExactScalar(c.vev)
    gv = poly(c.g * v)
    gvc = poly(c.g.conjugate() * v)
    mh = poly(ExactScalar(Fraction(2) / c.ell))
    lower_right = gamma_sum(c.eps5, [*k_low, mh])
    eye = ExactMatrix.identity(4)
    out = ExactMatrix.zeros(8)
    for i in range(4):
        for j in range(4):
            out.rows[i][j] = gk.rows[i][j]
            out.rows[i][j + 4] = eye.rows[i][j] * gv
            out.rows[i + 4][j] = eye.rows[i][j] * gvc
            out.rows[i + 4][j + 4] = lower_right.rows[i][j]
    return out
