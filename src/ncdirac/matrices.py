"""Small dense matrices over the exact coefficient tower.

Entries are ParamPoly (constants embed), so the same class carries both the
purely numeric gamma matrices and symbolic operators like the momentum-space
Dirac matrix.  Kernel and rank require constant entries (a field); the
determinant works over polynomial entries via expansion with subset
memoization, which is cheap at the 4x4 and 8x8 sizes used here.
"""

from __future__ import annotations

from .scalars import (
    ONE, ZERO, ExactScalar, P_ONE, P_ZERO, ParamPoly, _inexact, _poly_sum_of_products, poly,
)


class ExactMatrix:
    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        self.rows = [[poly(x) for x in row] for row in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(row) != self.ncols for row in self.rows):
            raise ValueError("ragged rows")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zeros(n: int, m: int | None = None) -> "ExactMatrix":
        m = n if m is None else m
        return ExactMatrix([[P_ZERO] * m for _ in range(n)])

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        out = ExactMatrix.zeros(n)
        for i in range(n):
            out.rows[i][i] = P_ONE
        return out

    @staticmethod
    def from_complex_entries(entries) -> "ExactMatrix":
        """Build from nested lists of exact numbers and Python complex
        numbers with integer parts, as the gamma tables hold.  Any other
        complex raises TypeError: its float parts are not exact."""
        return ExactMatrix([[_gaussian_integer(x) if isinstance(x, complex) else x
                             for x in row] for row in entries])

    def copy(self) -> "ExactMatrix":
        return ExactMatrix([list(row) for row in self.rows])

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_shape(other)
        return ExactMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_shape(other)
        return ExactMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix([[-a for a in row] for row in self.rows])

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        """Each entry is one exact sum over its nonzero-by-nonzero products,
        reduced once per monomial (``_poly_sum_of_products``); an entry
        with none is zero at once."""
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        cols = list(zip(*other.rows))
        out = []
        for row in self.rows:
            nonzero = [(k, a) for k, a in enumerate(row) if a]
            out_row = []
            for col in cols:
                pairs = [(a, col[k]) for k, a in nonzero if col[k]]
                out_row.append(_poly_sum_of_products(pairs) if pairs else P_ZERO)
            out.append(out_row)
        return ExactMatrix(out)

    def scale(self, factor) -> "ExactMatrix":
        f = poly(factor)
        return ExactMatrix([[f * a for a in row] for row in self.rows])

    def _check_shape(self, other: "ExactMatrix"):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")

    # -- structure ----------------------------------------------------------

    def conjugate(self) -> "ExactMatrix":
        return ExactMatrix([[a.conjugate() for a in row] for row in self.rows])

    def is_zero(self) -> bool:
        return all(a.is_zero() for row in self.rows for a in row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(tuple(tuple(row) for row in self.rows))

    def substitute(self, bindings) -> "ExactMatrix":
        return ExactMatrix([[a.substitute(bindings) for a in row] for row in self.rows])

    def scalar_entries(self):
        """Entries as ExactScalar; fails if any entry still carries symbols."""
        return [[a.to_scalar() for a in row] for row in self.rows]

    # -- exact linear algebra (constant entries) -----------------------------

    def rank(self) -> int:
        return len(echelon(self.scalar_entries()))

    def kernel(self) -> list[list[ExactScalar]]:
        """Exact right-kernel basis (one vector per free column)."""
        rows = self.scalar_entries()
        pivots = echelon(rows)
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        basis = []
        for fc in free:
            vec = [ZERO] * self.ncols
            vec[fc] = ONE
            for r, pc in enumerate(pivots):
                vec[pc] = -rows[r][fc]
            basis.append(vec)
        return basis

    def det(self) -> ParamPoly:
        """Determinant over polynomial entries.

        Expansion column by column with memoization on the used-row subset:
        O(2^n * n) polynomial operations, fine for n <= 8.
        """
        n = self.nrows
        if n != self.ncols:
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
                    entry = self.rows[row][col]
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

    def __str__(self) -> str:
        return "[" + ",\n ".join("[" + ", ".join(map(str, r)) + "]" for r in self.rows) + "]"

    __repr__ = __str__


def _gaussian_integer(x: complex) -> ExactScalar:
    if not (x.real.is_integer() and x.imag.is_integer()):
        raise _inexact(x, "number")
    return ExactScalar(int(x.real), int(x.imag))


def echelon(rows: list) -> list[int]:
    """Bring ``rows``, a list of lists of field scalars, to reduced row
    echelon form in place and return the pivot columns.

    The scalars need ``bool`` (nonzero), ``-``, ``*`` and ``/``, as
    ExactScalar and QuadraticScalar give; rows of constant ExactMatrix
    entries are the common case.
    """
    nrows, pivots, r = len(rows), [], 0
    for c in range(len(rows[0]) if rows else 0):
        for pivot_row in range(r, nrows):
            if rows[pivot_row][c]:
                break
        else:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c]
        # the maps ranked here are mostly zeros: leave those untouched
        rows[r] = [x / inv if x else x for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [x - factor * y if y else x for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots
