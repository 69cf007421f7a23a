"""Deformed space-time algebra toolkit: exact structure constants and their
stability checks, a differential-operator realization, normal ordering in
the enveloping algebra with a formal inverse, Majorana-representation
gamma matrices, extended Dirac dispersion branches with Dirac/Majorana
classification, and the coupled-branch seesaw spectrum."""

from .scalars import (
    DegreeBoundError,
    ExactScalar,
    ParamPoly,
    SubstitutionError,
    TruncationOrderError,
    UnknownSymbolError,
    poly,
    sym,
)
from .matrices import ExactMatrix
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
from .weyl import WeylOperator, build_rep, verify_rep_closure
from .enveloping import (
    Derivation,
    NCExpression,
    PlaneWaveExponent,
    commutator,
    anticommutator,
    lemma_matrix_check,
    normal_form,
    verify_plane_wave_relations,
)
from .clifford import (
    GammaRep,
    VerificationError,
    build_majorana_rep,
    gamma_sum,
    reality_class,
    verify_clifford,
)
from .modes import (
    ModeProblem,
    SpinorSolution,
    dirac_matrix,
    dispersion_roots,
    reference_solutions,
    residual,
)
from .seesaw import (
    CouplingConfig,
    ModeSpectrum,
    RootFindingError,
    coupled_matrix,
    exact_mode_spectrum,
    leading_order_reduction,
    light_mass_leading,
    verify_effective_equation,
)

__version__ = "0.1.0"

__all__ = [
    "ExactScalar",
    "ParamPoly",
    "ExactMatrix",
    "SubstitutionError",
    "TruncationOrderError",
    "DegreeBoundError",
    "UnknownSymbolError",
    "VerificationError",
    "RootFindingError",
    "poly",
    "sym",
    "DEFORMED_BASIS",
    "StructureConstants",
    "build_deformed_algebra",
    "build_orthogonal_algebra",
    "contract",
    "flat_deformed_algebra",
    "jacobi_residual",
    "solve_isomorphism_scalings",
    "verify_linear_isomorphism",
    "WeylOperator",
    "build_rep",
    "verify_rep_closure",
    "NCExpression",
    "Derivation",
    "PlaneWaveExponent",
    "commutator",
    "anticommutator",
    "normal_form",
    "verify_plane_wave_relations",
    "lemma_matrix_check",
    "GammaRep",
    "build_majorana_rep",
    "gamma_sum",
    "verify_clifford",
    "reality_class",
    "ModeProblem",
    "SpinorSolution",
    "dirac_matrix",
    "dispersion_roots",
    "reference_solutions",
    "residual",
    "CouplingConfig",
    "ModeSpectrum",
    "coupled_matrix",
    "leading_order_reduction",
    "light_mass_leading",
    "verify_effective_equation",
    "exact_mode_spectrum",
    "__version__",
]
