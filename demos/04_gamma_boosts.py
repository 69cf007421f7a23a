"""Imaginary gamma matrices, both signatures, and Lorentz covariance of the
extended Dirac operator proved from the six boost and rotation generators.

Run:  python3 demos/04_gamma_boosts.py
"""

from ncdirac import flat_deformed_algebra, gamma_sum, verify_clifford
from ncdirac.modes import lorentz_covariance, lorentz_generator

for eps5 in (-1, 1):
    checks = verify_clifford(eps5)
    failed = [c.name for c in checks if not c.ok]
    sig = "(3,2)" if eps5 == 1 else "(4,1)"
    print(f"eps5={eps5:+d}: Clifford algebra of signature {sig}, "
          f"{len(checks)} relations, failures: {failed or 'none'}")
    g4 = gamma_sum(eps5, [0, 0, 0, 0, 1])
    print(f"  gamma4 squared = {(g4 @ g4).rows[0][0]} * Id")
    counts = lorentz_covariance(eps5)
    print(f"  D(Lambda k) S = S D(k): {counts['generators']} generators, "
          f"{counts['gamma_identities']} gamma and {counts['dirac_identities']} Dirac "
          f"identities, failure: {counts['failure'] or 'none'}")

print("\n== the boost generator L_03, read off the flat table ==")
print("  [M03, P_sigma] = i (L_03)^rho_sigma P_rho, rows rho:")
for row in lorentz_generator(flat_deformed_algebra(1), 0, 3):
    print("   ", [str(x) for x in row])
