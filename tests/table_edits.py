"""The tests' hand edits of structure-constant tables."""

from ncdirac.lie_algebra import _combo_ints


def set_bracket(table, i: int, j: int, combo: dict):
    """Set [e_i, e_j] of ``table`` to ``combo``, output index -> ParamPoly,
    through the store's one checked write, ``_store``."""
    table._store(i, j, _combo_ints(combo), combo)
