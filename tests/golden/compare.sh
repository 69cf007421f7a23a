#!/bin/sh
# Run the exact reports with `python -m ncdirac` and compare
# each with its golden file byte for byte.  Run from the repository root.
set -e
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
for cmd in algebra rep clifford planewave; do
  python -m ncdirac verify $cmd --all-signs > "$out/$cmd.json"
  cmp "$out/$cmd.json" tests/golden/verify_${cmd}_all_signs.json
done
python -m ncdirac verify rep --all-signs --format csv > "$out/rep.csv"
cmp "$out/rep.csv" tests/golden/verify_rep_all_signs.csv
python -m ncdirac seesaw > "$out/seesaw.json"
cmp "$out/seesaw.json" tests/golden/seesaw_default.json
python -m ncdirac check all --seed 42 > "$out/check_all.json"
cmp "$out/check_all.json" tests/golden/check_all_seed42.json
# the fixture is tampered on purpose: the run exits 1
python -m ncdirac verify algebra --eps4 1 --eps5 -1 \
  --fixture tests/golden/tampered_deformed_fixture.json > "$out/fixture.json" || test $? -eq 1
cmp "$out/fixture.json" tests/golden/verify_algebra_tampered_fixture.json
python -m ncdirac verify algebra --eps4 1 --eps5 1 \
  --fixture tests/golden/rescaled_tampered_fixture.json > "$out/rescaled.json" || test $? -eq 1
cmp "$out/rescaled.json" tests/golden/verify_algebra_rescaled_fixture.json
# the sweep crosses the critical coupling on purpose: the run exits 1
for fmt in json csv; do
  python -m ncdirac scan --param vev --from 1/2 --to 2 --steps 4 --eps5 1 \
    --format $fmt > "$out/scan.$fmt" || test $? -eq 1
  cmp "$out/scan.$fmt" tests/golden/scan_vev_eps5_plus.$fmt
done
# every demo prints a report pinned by tests/golden/demo_NN.txt, NN its
# number; a demo without a golden file fails
for demo in demos/*.py; do
  name=$(basename "$demo" .py)
  golden=tests/golden/demo_${name%%_*}.txt
  test -f "$golden" || { echo "no golden file for $demo" >&2; exit 1; }
  python "$demo" > "$out/$name.txt"
  cmp "$out/$name.txt" "$golden"
done
echo "golden reports match"
