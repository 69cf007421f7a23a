#!/bin/sh
# Run the exact reports with the installed `ncdirac` command and compare
# each with its golden file byte for byte.  Run from the repository root.
set -e
out=$(mktemp -d)
for cmd in algebra rep clifford planewave; do
  ncdirac verify $cmd --all-signs > "$out/$cmd.json"
  cmp "$out/$cmd.json" tests/golden/verify_${cmd}_all_signs.json
done
ncdirac verify rep --all-signs --format csv > "$out/rep.csv"
cmp "$out/rep.csv" tests/golden/verify_rep_all_signs.csv
ncdirac seesaw > "$out/seesaw.json"
cmp "$out/seesaw.json" tests/golden/seesaw_default.json
ncdirac check all --seed 42 > "$out/check_all.json"
cmp "$out/check_all.json" tests/golden/check_all_seed42.json
# the fixture is tampered on purpose: the run exits 1
ncdirac verify algebra --eps4 1 --eps5 -1 \
  --fixture tests/golden/tampered_deformed_fixture.json > "$out/fixture.json" || test $? -eq 1
cmp "$out/fixture.json" tests/golden/verify_algebra_tampered_fixture.json
echo "golden reports match"
