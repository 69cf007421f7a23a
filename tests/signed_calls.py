"""Every public function and constructor of the package with an eps5
parameter, each called with valid other arguments: ``SIGNED`` maps its
name, ``module.name``, to a call of it at a given eps5.  A generator
function is drawn once, so that its first step runs."""

from fractions import Fraction

from ncdirac import checks, clifford, enveloping, lie_algebra, modes, seesaw, weyl

_MASSLESS = (1, 0, 0, 1)


def _generator_identities(eps5):
    vector = modes.lorentz_generator(lie_algebra.flat_deformed_algebra(1), 0, 3)
    return clifford.spinor_generator_identities(eps5, 0, 3, vector)


SIGNED = {
    "checks.RunConfig": lambda e: checks.RunConfig(eps5=e),
    "clifford.gamma_sum": lambda e: clifford.gamma_sum(e, [1, 0, 0, 0, 1]),
    "clifford.clifford_relations": lambda e: next(clifford.clifford_relations(e)),
    "clifford.verify_clifford": clifford.verify_clifford,
    "clifford.spinor_generator_identities": _generator_identities,
    "clifford.gamma5_product_check": clifford.gamma5_product_check,
    "clifford.majorana_imaginary_check": clifford.majorana_imaginary_check,
    "enveloping.normal_form": lambda e: enveloping.normal_form(
        enveloping.NCExpression({("p0", "x0"): 1}), e),
    "enveloping.plane_wave_scale": enveloping.plane_wave_scale,
    "enveloping.PlaneWaveCheck": enveloping.PlaneWaveCheck,
    "enveloping.verify_plane_wave_relations": enveloping.verify_plane_wave_relations,
    "enveloping.lemma_matrix_check": enveloping.lemma_matrix_check,
    "lie_algebra.build_deformed_algebra": lambda e: lie_algebra.build_deformed_algebra(1, e),
    "lie_algebra.flat_deformed_algebra": lie_algebra.flat_deformed_algebra,
    "lie_algebra.build_orthogonal_algebra": lambda e: lie_algebra.build_orthogonal_algebra(1, e),
    "lie_algebra.solve_isomorphism_scalings":
        lambda e: lie_algebra.solve_isomorphism_scalings(1, e),
    "modes.dirac_coefficients": lambda e: modes.dirac_coefficients(_MASSLESS, 2, e),
    "modes.lorentz_covariance": modes.lorentz_covariance,
    "modes.dirac_matrix": modes.dirac_matrix,
    "modes.dispersion_polynomial": lambda e: modes.dispersion_polynomial(2, e),
    "modes.squared_identity_residual": modes.squared_identity_residual,
    "modes.scaling_residual": modes.scaling_residual,
    "modes.dispersion_roots": lambda e: modes.dispersion_roots(2, e),
    "modes.heavy_k2": lambda e: modes.heavy_k2(2, e),
    "modes.frame": lambda e: modes.frame(e, 1),
    "modes.massive_class": modes.massive_class,
    "modes.spinor_kernel": lambda e: modes.spinor_kernel(
        modes.dirac_matrix(1, _MASSLESS, 2), _MASSLESS, e),
    "modes.reference_solutions": lambda e: modes.reference_solutions(2, e, "heavy"),
    "seesaw.CouplingConfig": lambda e: seesaw.CouplingConfig(1, Fraction(1, 100), 1, e),
    "weyl.build_rep": weyl.build_rep,
    "weyl.closure_families": lambda e: next(weyl.closure_families(e)),
    "weyl.verify_rep_closure": weyl.verify_rep_closure,
}
