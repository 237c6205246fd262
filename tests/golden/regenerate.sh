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
cd "$(dirname "$0")/../.." || exit 1
report() {
  PYTHONPATH=src python -m reesgor.cli "$@"
}
for char in 32003 0 2 3; do
  for name in hochster_roberts two_planes idealization_xy idealization_x2y3 regular_base; do
    for cmd in check s2 shimoda buchsbaum invariants oracle; do
      mode=
      if [ "$cmd" = check ]; then mode="--mode both"; fi
      report "$cmd" "corpus/$name.ring" $mode --char "$char" \
        > "tests/golden/$name.$cmd.$char.txt"
    done
  done
  name=idealization_xyz
  report check "corpus/$name.ring" --mode criteria --char "$char" \
    > "tests/golden/$name.criteria.$char.txt"
  for cmd in s2 shimoda buchsbaum invariants; do
    report "$cmd" "corpus/$name.ring" --char "$char" \
      > "tests/golden/$name.$cmd.$char.txt"
  done
done
report check corpus/idealization_xyz.ring --mode both --char 32003 \
  > tests/golden/idealization_xyz.check.32003.txt
