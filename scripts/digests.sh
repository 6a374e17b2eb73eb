#!/bin/sh
# Input-0 digests of every benchmark workload at seeds 42 and 1337.
#
#   scripts/digests.sh DIR
#
# DIR is a checkout of this repository.  For each workload and seed it
# runs, in DIR,
#
#   dune exec --root . --profile release ./benchmark/main.exe -- \
#     --workload W --seed S --seconds 1
#
# and prints one "W S DIGEST" line, DIGEST being the hex digest the run
# reports for its input 0.  The simulation is deterministic per seed,
# so two checkouts that behave the same print the same lines:
#
#   scripts/digests.sh PARENT_DIR > parent.txt
#   scripts/digests.sh CHANGE_DIR > change.txt
#   diff parent.txt change.txt
#
# `benchmark/main.exe --quick` runs seed 42 only, whatever --seed says;
# this covers the held-out seed 1337 too.  Needs only sh and sed.

set -eu

if [ $# -ne 1 ]; then
  echo "usage: $0 DIR" >&2
  exit 2
fi
dir=$1
if [ ! -f "$dir/benchmark/main.ml" ]; then
  echo "digests.sh: $dir is not a checkout of this repository" >&2
  exit 2
fi

for workload in storm router4 chain6 resume; do
  for seed in 42 1337; do
    digest=$(cd "$dir" && dune exec --root . --profile release \
      ./benchmark/main.exe -- --workload "$workload" --seed "$seed" \
      --seconds 1 | sed -n 's/^== .*input 0 digest \([0-9a-f]*\)$/\1/p')
    if [ -z "$digest" ]; then
      echo "digests.sh: no digest from $workload at seed $seed" >&2
      exit 1
    fi
    printf '%s %s %s\n' "$workload" "$seed" "$digest"
  done
done
