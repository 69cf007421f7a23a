"""Imaginary gamma matrices, both signatures, and exact paired boosts.

Run:  python3 demos/04_gamma_boosts.py
"""

import random
from fractions import Fraction
from itertools import combinations

from ncdirac import build_majorana_rep, reference_solutions, verify_clifford
from ncdirac.cayley import boost_defect, cayley_boost


def vector_boost(boost):
    """Lambda^mu_nu of a Cayley boost as Fractions."""
    return [[Fraction(x, 4 * boost.denom ** 2) for x in row] for row in boost.lam_numer]


for eps5 in (-1, 1):
    checks = verify_clifford(eps5)
    failed = [c.name for c in checks if not c.ok]
    sig = "(3,2)" if eps5 == 1 else "(4,1)"
    print(f"eps5={eps5:+d}: Clifford algebra of signature {sig}, "
          f"{len(checks)} relations, failures: {failed or 'none'}")
    g4 = build_majorana_rep(eps5).gamma[4]
    print(f"  gamma4 squared = {(g4 @ g4).rows[0][0]} * Id")

print("\n== the Cayley boost of omega_03 = 1 ==")
omega = [[0] * 4 for _ in range(4)]
omega[0][3], omega[3][0] = 1, -1
boost = cayley_boost(omega)
lam = vector_boost(boost)
print("  vector matrix Lambda:")
for row in lam:
    print("   ", [str(x) for x in row])
print(f"  cosh^2 - sinh^2 = {lam[0][0] ** 2 - lam[0][3] ** 2}")
print(f"  spinor matrix S = numer / {boost.denom}, real integers, "
      f"height {boost.height_bits} bits")

print("\n== seeded rational generators ==")
rng = random.Random(0)
boosts = []
for _ in range(50):
    q = rng.randint(1, 10)
    omega = [[Fraction(0)] * 4 for _ in range(4)]
    for a, b in combinations(range(4), 2):
        omega[a][b] = Fraction(rng.randint(-q, q), q)
        omega[b][a] = -omega[a][b]
    boosts.append(cayley_boost(omega))
print(f"  50 boosts, S^-1 g S = Lambda g exactly for each; "
      f"height up to {max(b.height_bits for b in boosts)} bits")
print("  Lambda of the first:")
for row in vector_boost(boosts[0]):
    print("   ", [str(x) for x in row])
for eps5 in (-1, 1):
    for branch in ("heavy", "massless"):
        defect = boost_defect(reference_solutions(Fraction(1), eps5, branch), boosts)
        verdict = "D(Lambda k) S u = 0 and k^2 kept" if defect is None else defect
        print(f"  eps5={eps5:+d} {branch}: {verdict}")
