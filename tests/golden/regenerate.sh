#!/bin/sh
# Rewrite the golden CLI reports that tests/test_golden.py compares each
# report against (CI diffs the last one, the d = 3 oracle, too slow for
# tier-1):
# tests/golden/<ring>.<cmd>.<char>.txt holds the standard output of
#   reesgor <cmd> corpus/<ring>.ring --char <char>
# with check run as `--mode both`.  The dimension-three ring
# idealization_xyz has no oracle report, and its check reports are
# <ring>.criteria.<char>.txt for `check --mode criteria` at every
# characteristic and <ring>.check.32003.txt for `check --mode both`, whose
# oracle takes minutes.  Run it from any directory, only after a change
# that is meant to alter a report, and review the diff:
#   sh tests/golden/regenerate.sh && git diff tests/golden
# Each report that exits non-zero prints "<golden file>: exit N" to
# stderr, the list to check the EXIT table of tests/test_golden.py against.
cd "$(dirname "$0")/../.." || exit 1
# report FILE ARGS...: write the report of `reesgor ARGS...` to FILE
report() {
  file=$1
  shift
  PYTHONPATH=src python -m reesgor.cli "$@" > "$file"
  code=$?
  if [ "$code" -ne 0 ]; then echo "$file: exit $code" >&2; fi
}
for char in 32003 0 2 3; do
  for name in hochster_roberts two_planes idealization_xy idealization_x2y3 regular_base; do
    for cmd in check s2 shimoda buchsbaum invariants oracle; do
      mode=
      if [ "$cmd" = check ]; then mode="--mode both"; fi
      report "tests/golden/$name.$cmd.$char.txt" \
        "$cmd" "corpus/$name.ring" $mode --char "$char"
    done
  done
  name=idealization_xyz
  report "tests/golden/$name.criteria.$char.txt" \
    check "corpus/$name.ring" --mode criteria --char "$char"
  for cmd in s2 shimoda buchsbaum invariants; do
    report "tests/golden/$name.$cmd.$char.txt" \
      "$cmd" "corpus/$name.ring" --char "$char"
  done
done
report tests/golden/idealization_xyz.check.32003.txt \
  check corpus/idealization_xyz.ring --mode both --char 32003
