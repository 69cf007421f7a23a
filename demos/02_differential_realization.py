"""The generators as differential operators in five variables.

Run:  python3 demos/02_differential_realization.py
"""

from ncdirac import build_rep, verify_rep_closure

for eps5 in (-1, 1):
    print(f"== eps5 = {eps5:+d} ==")
    rep = build_rep(eps5)
    for name in ("P0", "x0", "M01", "C"):
        print(f"  {name} = {rep[name]}")

    got = rep["P0"].commutator(rep["x0"])
    print(f"  [P0, x0] = {got}   (equals i*C)")

    table = verify_rep_closure(eps5)
    total = sum(len(rows) for rows in table.values())
    bad = sum(1 for rows in table.values() for _, r in rows if not r.is_zero())
    print(f"  closure: {total} bracket pairs checked, {bad} violations")
    for family, rows in sorted(table.items()):
        print(f"    {family}: {len(rows)} pairs")
    print()
