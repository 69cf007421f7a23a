"""The determinant of an exact matrix over polynomial entries, for the
tests: the package decides its kernels by elimination and forms no
determinant, so this is the tests' oracle for characteristic polynomials
and the seesaw's 8x8 coupled matrix."""

from ncdirac.matrices import ExactMatrix
from ncdirac.scalars import P_ONE, P_ZERO, ParamPoly


def det(m: ExactMatrix) -> ParamPoly:
    """Determinant over polynomial entries.

    Expansion column by column with memoization on the used-row subset:
    O(2^n * n) polynomial operations, fine for n <= 8.
    """
    n = m.nrows
    if n != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    # state: bitmask of rows already consumed by the first popcount(mask)
    # columns; value: signed sum of products
    current = {0: P_ONE}
    for col in range(n):
        nxt: dict[int, ParamPoly] = {}
        for mask, acc in current.items():
            seen = 0
            for row in range(n):
                bit = 1 << row
                if mask & bit:
                    continue
                entry = m.rows[row][col]
                if not entry.is_zero():
                    sign = -1 if (seen & 1) else 1
                    term = acc * entry if sign == 1 else acc * -entry
                    new_mask = mask | bit
                    prev = nxt.get(new_mask)
                    nxt[new_mask] = term if prev is None else prev + term
                seen += 1
        current = nxt
        if not current:
            return P_ZERO
    return current.get((1 << n) - 1, P_ZERO)
