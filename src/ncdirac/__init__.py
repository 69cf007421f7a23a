"""Deformed space-time algebra toolkit: exact structure constants and their
stability checks, a differential-operator realization, normal ordering in
the enveloping algebra with a formal inverse, Majorana-representation
gamma matrices, extended Dirac dispersion branches with Dirac/Majorana
classification, and the coupled-branch seesaw spectrum.

``import ncdirac`` loads the exact core, ``scalars`` and ``lie_algebra``.
Each name of the six layers above it loads its module on first read
(PEP 562), and the module's own name (``ncdirac.modes``) does too."""

import importlib

from .scalars import (
    DegreeBoundError,
    ExactScalar,
    ParamPoly,
    TruncationOrderError,
    UnknownSymbolError,
    poly,
    sym,
)
from .lie_algebra import (
    DEFORMED_BASIS,
    StructureConstants,
    build_deformed_algebra,
    build_orthogonal_algebra,
    contract,
    flat_deformed_algebra,
    jacobi_residual,
    solve_isomorphism_scalings,
    verify_linear_isomorphism,
)

__version__ = "0.1.0"

# each public name of the six upper layers -> the module that defines it
_LAZY = {
    "ExactMatrix": "matrices",
    **dict.fromkeys(("WeylOperator", "build_rep", "verify_rep_closure"), "weyl"),
    **dict.fromkeys(("NCExpression", "plane_wave_exponent", "lemma_matrix_check", "normal_form",
                     "verify_plane_wave_relations"), "enveloping"),
    **dict.fromkeys(("VerificationError", "gamma_sum", "verify_clifford"), "clifford"),
    **dict.fromkeys(("SpinorSolution", "dirac_matrix", "dispersion_roots",
                     "reference_solutions"), "modes"),
    **dict.fromkeys(("CouplingConfig", "ModeSpectrum", "RootFindingError",
                     "exact_mode_spectrum", "light_mass_leading", "verify_effective_equation"),
                    "seesaw"),
}
_LAYERS = frozenset(_LAZY.values())

# the names the two imports above bound, not the modules they bound, then
# the table's
__all__ = [name for name, value in globals().items()
           if not (name.startswith("_") or isinstance(value, type(importlib)))]
__all__ += [*_LAZY, "__version__"]


def __getattr__(name):
    """Import the layer ``name``, or the layer that defines ``name`` and
    cache the name here (the import binds a layer here itself)."""
    if name in _LAYERS:
        return importlib.import_module(f".{name}", __name__)
    try:
        layer = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(importlib.import_module(f".{layer}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAYERS})
