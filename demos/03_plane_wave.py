"""Normal ordering with a formal inverse, and the plane-wave exponent.

The exponent A = -(i/2) k^mu {x_mu, Cinv} behaves like -i k.x: commuting a
momentum past e^A produces exactly k_mu, and the extra-direction derivative
of e^A collapses to a scalar on the vacuum.

Run:  python3 demos/03_plane_wave.py
"""

from ncdirac import NCExpression, normal_form, verify_plane_wave_relations
from ncdirac.enveloping import CINV_TOKEN, C_TOKEN, lemma_matrix_check

print("== rewriting with the inverse letter ==")
cinv_x = NCExpression.gen(CINV_TOKEN) * NCExpression.gen("x0")
for eps5 in (-1, 1):
    nf = normal_form(cinv_x, eps5)
    print(f"  eps5={eps5:+d}:  Cinv x0  ->  {nf}")
check = normal_form(NCExpression.gen(C_TOKEN) * NCExpression.gen(CINV_TOKEN), -1)
print(f"  C Cinv -> {check}")

for eps5 in (-1, 1):
    print(f"\n== plane-wave identities, eps5 = {eps5:+d} ==")
    chk = verify_plane_wave_relations(eps5)
    names = ["[p_mu, A] - k_mu"] * 4
    for label, rem in zip(names, chk.momentum_remainders):
        print(f"  {label}: {'0 exactly' if rem.is_zero() else rem}")
    print(f"  d4(A) - i*eps5*l*(k.p): "
          f"{'0 exactly' if chk.derivative_remainder.is_zero() else '!'}")
    print(f"  [A, d4(A)] + i*eps5*l*k^2: "
          f"{'0 exactly' if chk.mixed_remainder.is_zero() else '!'}")
    print(f"  vacuum scalar of d4(e^A) e^-A: {chk.vacuum_scalar}")
    model = lemma_matrix_check(eps5)
    assert all(value == 0 for value in model.values())
    print(f"  nilpotent model, l and k symbolic, residuals: {sorted(map(str, model.values()))}")
