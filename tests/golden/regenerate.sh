#!/bin/sh
# Rewrite the golden CLI reports that CI diffs each report against:
# tests/golden/<ring>.<cmd>.<char>.txt holds the standard output of
#   reesgor <cmd> corpus/<ring>.ring --char <char>
# with check run as `--mode both`.  Run it from any directory, only after
# a change that is meant to alter a report, and review the diff:
#   sh tests/golden/regenerate.sh && git diff tests/golden
cd "$(dirname "$0")/../.." || exit 1
for char in 32003 0 2 3; do
  for name in hochster_roberts two_planes idealization_xy idealization_x2y3 regular_base; do
    for cmd in check s2 shimoda buchsbaum invariants oracle; do
      mode=
      if [ "$cmd" = check ]; then mode="--mode both"; fi
      PYTHONPATH=src python -m reesgor.cli "$cmd" "corpus/$name.ring" $mode --char "$char" \
        > "tests/golden/$name.$cmd.$char.txt"
    done
  done
done
