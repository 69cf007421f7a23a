#!/bin/sh
# Run each exact report of tests/golden/commands.txt with
# `python -m ncdirac`, check its exit code and compare its output with its
# golden file byte for byte; then the same for every demo.  Run from the
# repository root.
set -e
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
while read -r code golden argv; do
  case $code in ''|'#'*) continue ;; esac
  status=0
  # some reports fail on purpose: the listed code is the one expected
  python -m ncdirac $argv > "$out/$golden" < /dev/null || status=$?
  test "$status" -eq "$code" || { echo "exit $status, not $code: $argv" >&2; exit 1; }
  cmp "$out/$golden" "tests/golden/$golden"
done < tests/golden/commands.txt
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
