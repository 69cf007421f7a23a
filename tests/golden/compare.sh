#!/bin/sh
# Run each exact report of tests/golden/commands.txt with
# `python -m ncdirac`, check its exit code and compare its output with its
# golden file byte for byte; then the same for every demo.  Every command
# and demo runs: each failure is printed, and the script exits 1 at the
# end if any failed.  Run from the repository root.
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
out=$(mktemp -d) || exit 1
trap 'rm -rf "$out"' EXIT
failed=0
while read -r code golden argv; do
  case $code in ''|'#'*) continue ;; esac
  status=0
  # some reports fail on purpose: the listed code is the one expected
  python -m ncdirac $argv > "$out/$golden" < /dev/null || status=$?
  if [ "$status" -ne "$code" ]; then
    echo "exit $status, not $code: $argv" >&2
    failed=1
  fi
  cmp "$out/$golden" "tests/golden/$golden" >&2 || failed=1
done < tests/golden/commands.txt
# every demo prints a report pinned by tests/golden/demo_NN.txt, NN its
# number; a demo without a golden file fails
for demo in demos/*.py; do
  name=$(basename "$demo" .py)
  golden=tests/golden/demo_${name%%_*}.txt
  if [ ! -f "$golden" ]; then
    echo "no golden file for $demo" >&2
    failed=1
    continue
  fi
  status=0
  python "$demo" > "$out/$name.txt" < /dev/null || status=$?
  if [ "$status" -ne 0 ]; then
    echo "exit $status, not 0: $demo" >&2
    failed=1
  fi
  cmp "$out/$name.txt" "$golden" >&2 || failed=1
done
if [ "$failed" -ne 0 ]; then
  echo "golden reports differ" >&2
  exit 1
fi
echo "golden reports match"
