"""Dispersion branches and the spinor content of each one.

The squared operator gives k^2 (1 + eps5 (l^2/4) k^2) = 0: a massless branch
and a heavy branch at |k^2| = 4/l^2.  The heavy branch is timelike (Dirac
pair) for eps5 = -1 and spacelike (two real Majorana lines) for eps5 = +1.

Run:  python3 demos/05_dispersion_modes.py
"""

from fractions import Fraction

from ncdirac import dispersion_roots, reference_solutions
from ncdirac.modes import operator_residual

for eps5 in (-1, 1):
    print(f"== eps5 = {eps5:+d} ==")
    for ell in (Fraction(1, 2), Fraction(1), Fraction(2)):
        roots = sorted(dispersion_roots(ell, eps5), key=float)
        print(f"  l = {ell}: k^2 roots {[str(r) for r in roots]}")

    heavy = reference_solutions(Fraction(1), eps5, "heavy")
    print(f"  heavy branch at k = {tuple(str(c) for c in heavy.k)}")
    print(f"    nullspace dim {len(heavy.basis)}, class {heavy.spinor_class}")
    for vec in heavy.basis:
        print(f"    u = ({', '.join(str(c) for c in vec)})")

    light = reference_solutions(Fraction(1), eps5, "massless")
    print(f"  massless branch: class {light.spinor_class}")

    worst = max(operator_residual(sol.operator, u) for sol in (heavy, light)
                for u in sol.basis)
    print(f"  |D(k) u| / |u| over both bases: {worst}")
    print(f"  k^2 = {heavy.k2} (heavy) and {light.k2} (massless), both Lorentz invariant")
    print()
