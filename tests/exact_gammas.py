"""The tests' dense gammas, each read off the one exact gamma builder."""

from ncdirac.clifford import gamma_sum


def exact_gammas(eps5: int) -> tuple:
    """g^0..g^4 of the eps5 signature as exact matrices, g^a read as
    ``gamma_sum(eps5, e_a)``: built fresh from the store on every call."""
    return tuple(gamma_sum(eps5, [0] * a + [1]) for a in range(5))
