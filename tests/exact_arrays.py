"""The tests' float view of exact matrices, for the numpy oracles."""

import numpy as np


def as_array(matrix) -> np.ndarray:
    """A constant ExactMatrix as a complex128 array."""
    return np.array([[complex(x) for x in row] for row in matrix.scalar_entries()],
                    dtype=complex)
