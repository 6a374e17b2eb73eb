#!/bin/sh
# Alternating pairs of benchmark runs, parent against change.
#
#   scripts/pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD N [SECONDS [SEED]]
#
# PARENT_DIR and CHANGE_DIR are two checkouts of this repository (a
# `git archive` or `git clone` of each commit).  Each of the N pairs
# runs, in each checkout,
#
#   dune exec --root . --profile release ./benchmark/main.exe -- \
#     --workload WORKLOAD --seed SEED --seconds SECONDS --trace 0
#
# (SECONDS defaults to 25 and SEED to 42), the parent first in odd
# pairs and the change first in even ones, so a drift in host speed
# lands on both sides.  It then prints, per end-to-end metric, the
# median of each side, their ratio, the parent's quartiles, whether
# the change's median lies outside them, and in how many pairs the
# change was better (higher ops_per_s, lower everything else; a tie is
# not a win).  Needs only sh and awk.

set -eu

if [ $# -lt 4 ] || [ $# -gt 6 ]; then
  echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD N [SECONDS [SEED]]" >&2
  exit 2
fi
parent=$1
change=$2
workload=$3
pairs=$4
seconds=${5:-25}
seed=${6:-42}
case $pairs in '' | *[!0-9]* | 0)
  echo "pairs.sh: N must be a positive integer (got '$pairs')" >&2
  exit 2 ;;
esac
for dir in "$parent" "$change"; do
  if [ ! -f "$dir/benchmark/main.ml" ]; then
    echo "pairs.sh: $dir is not a checkout of this repository" >&2
    exit 2
  fi
done

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT INT TERM

# run SIDE DIR PAIR: one benchmark run, its last line (the JSON
# summary) appended to the log as "SIDE PAIR JSON"; a run that exits
# non-zero or prints no summary is logged as "SIDE PAIR failed"
run() {
  if (cd "$2" && dune exec --root . --profile release ./benchmark/main.exe -- \
    --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) \
    >"$work/out" 2>"$work/err"; then
    printf '%s %s %s\n' "$1" "$3" "$(tail -n 1 "$work/out")" >>"$work/log"
  else
    printf '%s %s failed\n' "$1" "$3" >>"$work/log"
    echo "pairs.sh: $1 run of pair $3 failed:" >&2
    tail -n 5 "$work/err" >&2
  fi
  printf '.' >&2
}

i=1
while [ "$i" -le "$pairs" ]; do
  if [ $((i % 2)) -eq 1 ]; then
    run parent "$parent" "$i"
    run change "$change" "$i"
  else
    run change "$change" "$i"
    run parent "$parent" "$i"
  fi
  i=$((i + 1))
done
echo >&2

# one "SIDE PAIR METRIC VALUE" line per metric of every summary
awk '
  $3 == "failed" { print $1, $2, "_failed_run", 1; next }
  {
    side = $1; pair = $2; s = $0
    ok = (index(s, "\"correct\":true") > 0)
    print side, pair, "_failed_run", (ok ? 0 : 1)
    if (match(s, /"failed":[0-9]+/))
      print side, pair, "_failed_ops", substr(s, RSTART + 9, RLENGTH - 9)
    while (match(s, /"[A-Za-z0-9_.]+":\{"value":[-+0-9.eE]+/)) {
      tok = substr(s, RSTART, RLENGTH)
      s = substr(s, RSTART + RLENGTH)
      name = tok; sub(/^"/, "", name); sub(/".*/, "", name)
      value = tok; sub(/.*"value":/, "", value)
      print side, pair, name, value
    }
  }
' "$work/log" >"$work/values"

awk -v workload="$workload" -v pairs="$pairs" -v seconds="$seconds" \
  -v seed="$seed" '
  # sort v[1..n] ascending (insertion sort: n is the pair count)
  function sort(v, n,    i, j, x) {
    for (i = 2; i <= n; i++) {
      x = v[i]
      for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
      v[j + 1] = x
    }
  }
  # linear interpolation between the order statistics of sorted v[1..n]
  function quantile(v, n, q,    r, lo) {
    if (n == 0) return "nan"
    r = 1 + (n - 1) * q
    lo = int(r)
    if (lo >= n) return v[n]
    return v[lo] + (r - lo) * (v[lo + 1] - v[lo])
  }
  {
    side = $1; pair = $2; m = $3; x = $4 + 0
    if (!(m in seen)) { seen[m] = 1; order[++nm] = m }
    k = m SUBSEP side
    runs[k, ++count[k]] = x  # in pair order; sorted below
    val[m, side, pair] = x
  }
  END {
    printf "%s: %d pairs, %s s per run, seed %s, parent first in odd pairs\n",
      workload, pairs, seconds, seed
    printf "%-14s %13s %13s %7s %13s %13s %11s %10s\n", "metric",
      "parent_med", "change_med", "ratio", "parent_q1", "parent_q3",
      "outside_iqr", "change_won"
    for (j = 1; j <= nm; j++) {
      m = order[j]
      if (m ~ /^_/) continue
      np = count[m SUBSEP "parent"]; nc = count[m SUBSEP "change"]
      delete pv; delete cv
      for (i = 1; i <= np; i++) pv[i] = runs[m SUBSEP "parent", i]
      for (i = 1; i <= nc; i++) cv[i] = runs[m SUBSEP "change", i]
      sort(pv, np); sort(cv, nc)
      pmed = quantile(pv, np, 0.5); cmed = quantile(cv, nc, 0.5)
      q1 = quantile(pv, np, 0.25); q3 = quantile(pv, np, 0.75)
      higher = (m == "ops_per_s")
      won = 0; both = 0
      for (p = 1; p <= pairs; p++) {
        if (!((m, "parent", p) in val) || !((m, "change", p) in val)) continue
        both++
        a = val[m, "parent", p]; b = val[m, "change", p]
        if ((higher && b > a) || (!higher && b < a)) won++
      }
      outside = (higher ? cmed > q3 : cmed < q1) ? "better" : \
        ((higher ? cmed < q1 : cmed > q3) ? "worse" : "no")
      printf "%-14s %13.6g %13.6g %7.4f %13.6g %13.6g %11s %7d/%d\n", m,
        pmed, cmed, (pmed != 0 ? cmed / pmed : 0), q1, q3, outside, won, both
    }
    for (s = 1; s <= 2; s++) {
      side = (s == 1 ? "parent" : "change")
      bad = 0; ops = 0
      for (p = 1; p <= pairs; p++) {
        bad += val["_failed_run", side, p]
        ops += val["_failed_ops", side, p]
      }
      printf "%s: %d of %d runs incorrect or failed, %d failed ops\n",
        side, bad, pairs, ops
    }
  }
' "$work/values"
