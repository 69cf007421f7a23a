"""The tests' oracle of a span's reality class, independent of the kernel
basis the package reads its class off."""

from ncdirac.matrices import echelon


def stacked_rank_closed(rows) -> bool:
    """Whether the span of ``rows``, rows of ExactScalar, is closed under
    entrywise conjugation: adding the conjugate rows leaves the rank
    unchanged."""
    rank = len(echelon([list(row) for row in rows]))
    stacked = [list(row) for row in rows] + [[x.conjugate() for x in row] for row in rows]
    return len(echelon(stacked)) == rank
