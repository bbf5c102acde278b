#!/usr/bin/env bash
# Checks that two builds behave identically, for changes that must not alter
# any simulated outcome (refactors, deletions, speedups).
#
#   tools/same_outputs.sh BASE_BUILD NEW_BUILD [SCENARIO...]
#
# BASE_BUILD and NEW_BUILD are CMake build directories that hold hs1bench
# and hs1sim. Both builds run the same inputs, and their stdout bytes and
# exit codes are compared:
#   - `hs1bench --list`;
#   - every scenario that --list names, at --smoke --format=csv;
#   - each SCENARIO given on the command line at full size, --format=csv;
#   - the `hs1sim --oracle` RESULT line of all five protocol cores, each
#     without an adversary, under 0-:slow, 0-:tailfork, 0-:equivocate,
#     0-:crash and 0-2:withhold, and with a shrinking --reconfig; at n=16
#     (--faulty=5) and at n=64 (--faulty=21). That is 70 lines.
# Stderr is not compared. The script stops at the first difference, prints
# it, and exits 1; it exits 0 when everything matches and 2 on bad usage.
# Outputs stay in $OUT (default: a fresh temporary directory) for
# inspection. The two builds run side by side, each hs1bench with --jobs=2.

set -u

if [ $# -lt 2 ] || [ ! -x "$1/hs1bench" ] || [ ! -x "$1/hs1sim" ] ||
   [ ! -x "$2/hs1bench" ] || [ ! -x "$2/hs1sim" ]; then
  echo "usage: $0 BASE_BUILD NEW_BUILD [SCENARIO...]" >&2
  echo "  (each build directory must contain hs1bench and hs1sim)" >&2
  exit 2
fi
BASE=$1
NEW=$2
shift 2
OUT=${OUT:-$(mktemp -d)}
mkdir -p "$OUT/base" "$OUT/new"
cases=0

# run_case NAME FILTER BINARY ARGS...: runs BINARY from both builds with
# ARGS, keeps stdout lines matching the grep pattern FILTER, and compares
# the kept bytes and the exit codes.
run_case() {
  local name=$1 filter=$2 bin=$3
  shift 3
  local side
  for side in base new; do
    local dir=$BASE
    [ "$side" = new ] && dir=$NEW
    (
      "$dir/$bin" "$@" > "$OUT/$side/$name.raw" 2> "$OUT/$side/$name.err"
      echo $? > "$OUT/$side/$name.exit"
    ) &
  done
  wait
  for side in base new; do
    grep -a -- "$filter" "$OUT/$side/$name.raw" > "$OUT/$side/$name.out"
  done
  cases=$((cases + 1))
  local base_exit new_exit
  base_exit=$(cat "$OUT/base/$name.exit")
  new_exit=$(cat "$OUT/new/$name.exit")
  if [ "$base_exit" != "$new_exit" ]; then
    echo "DIFFERENT $name: exit code $base_exit (base) vs $new_exit (new)"
    echo "  command: $bin $*"
    exit 1
  fi
  if ! cmp -s "$OUT/base/$name.out" "$OUT/new/$name.out"; then
    echo "DIFFERENT $name: $bin $*"
    diff "$OUT/base/$name.out" "$OUT/new/$name.out" | head -n 6
    exit 1
  fi
}

run_case list '' hs1bench --list
for s in $(awk '/^[a-z]/ { print $1 }' "$OUT/base/list.out"); do
  run_case "smoke-$s" '' hs1bench --scenario="$s" --smoke --jobs=2 \
    --format=csv
done
for s in "$@"; do
  run_case "full-$s" '' hs1bench --scenario="$s" --jobs=2 --format=csv
done

for point in "16 5 0:0-15;4:0-11" "64 21 0:0-63;4:0-47"; do
  read -r n faulty shrink <<< "$point"
  for protocol in hotstuff hotstuff2 basic hotstuff1 slotted; do
    for adversary in none --strategy=0-:slow --strategy=0-:tailfork \
        --strategy=0-:equivocate --strategy=0-:crash \
        --strategy=0-2:withhold --reconfig="$shrink"; do
      extra=()
      [ "$adversary" != none ] && extra=("$adversary")
      tag=${adversary#--}
      tag=${tag//[^A-Za-z0-9-]/_}
      run_case "sim-$protocol-n$n-$tag" '^RESULT ' hs1sim --oracle \
        --protocol="$protocol" --n="$n" --faulty="$faulty" "${extra[@]}"
    done
  done
done

echo "SAME: $cases cases, stdout bytes and exit codes identical (outputs in $OUT)"
