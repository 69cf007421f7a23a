"""Dispersion branches and the spinor content of each one.

The squared operator gives k^2 (1 + eps5 (l^2/4) k^2) = 0: a massless branch
and a heavy branch at |k^2| = 4/l^2.  The heavy branch is timelike (Dirac
pair) for eps5 = -1 and spacelike (two real Majorana lines) for eps5 = +1.

Run:  python3 demos/05_dispersion_modes.py
"""

import random
from fractions import Fraction
from itertools import combinations

from ncdirac import dispersion_roots, reference_solutions
from ncdirac.cayley import boost_defect, cayley_boost

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

    rng = random.Random(3)
    omega = [[Fraction(0)] * 4 for _ in range(4)]
    for a, b in combinations(range(4), 2):
        omega[a][b] = Fraction(rng.randint(-10, 10), 10)
        omega[b][a] = -omega[a][b]
    boost = cayley_boost(omega)
    lam = [[Fraction(x, 4 * boost.denom ** 2) for x in row] for row in boost.lam_numer]
    k = [sum(x * c for x, c in zip(row, heavy.k)) for row in lam]
    k2 = k[0] ** 2 - k[1] ** 2 - k[2] ** 2 - k[3] ** 2
    defect = boost_defect(heavy, [boost])
    print(f"  after a seeded rational boost ({boost.height_bits} bits): "
          f"k = ({', '.join(str(c) for c in k)})")
    print(f"    k^2 = {k2}, {'still a solution' if defect is None else defect}")
    print()
