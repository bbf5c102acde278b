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
#   - `hs1sim --help`, and `hs1sim --oracle` with no other flag (the
#     defaults);
#   - `hs1sim --oracle` for all five protocol cores, each without an
#     adversary, under 0-:slow, 0-:tailfork, 0-:equivocate, 0-:crash and
#     0-2:withhold, and with a shrinking --reconfig; at n=16 (--faulty=5)
#     and at n=64 (--faulty=21). That is 70 runs;
#   - `hs1sim --oracle` for all five cores with a growing --reconfig at
#     n=16 (--faulty=5), so standbys exist at the bootstrap into view 1;
#   - runs whose oracles fire, so their diagnostics and the DescribeConfig
#     repro each one embeds are compared: every core at --n=7 --faulty=3
#     --strategy=0-:crash (liveness-silence), and one withholding coalition
#     past the fault bound of a shrinking committee.
# That is 83 hs1sim runs; with fig_liveness, fig_reconfig and
# fuzz_overthreshold named at full size, 104 cases in all. Every hs1sim
# case compares its whole stdout. Stderr is not compared. The script stops
# at the first difference, prints it, and exits 1; it exits 0 when
# everything matches and 2 on bad usage.
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

# run_case NAME BINARY ARGS...: runs BINARY from both builds with ARGS and
# compares the stdout bytes and the exit codes.
run_case() {
  local name=$1 bin=$2
  shift 2
  local side
  for side in base new; do
    local dir=$BASE
    [ "$side" = new ] && dir=$NEW
    (
      "$dir/$bin" "$@" > "$OUT/$side/$name.out" 2> "$OUT/$side/$name.err"
      echo $? > "$OUT/$side/$name.exit"
    ) &
  done
  wait
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

run_case list hs1bench --list
for s in $(awk '/^[a-z]/ { print $1 }' "$OUT/base/list.out"); do
  run_case "smoke-$s" hs1bench --scenario="$s" --smoke --jobs=2 --format=csv
done
for s in "$@"; do
  run_case "full-$s" hs1bench --scenario="$s" --jobs=2 --format=csv
done

run_case sim-help hs1sim --help
run_case sim-defaults hs1sim --oracle

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
      run_case "sim-$protocol-n$n-$tag" hs1sim --oracle \
        --protocol="$protocol" --n="$n" --faulty="$faulty" "${extra[@]}"
    done
  done
done

# A growing committee: replicas 12-15 are standbys from the start.
for protocol in hotstuff hotstuff2 basic hotstuff1 slotted; do
  run_case "sim-$protocol-n16-grow" hs1sim --oracle --protocol="$protocol" \
    --n=16 --faulty=5 --reconfig='0:0-11;4:0-15'
done

# Oracles that fire: f+1 crashed replicas starve the n-f Wish quorum
# (liveness-silence), and 6 withholding replicas exceed the fault bound of
# the 12-member committee from epoch 4.
for protocol in hotstuff hotstuff2 basic hotstuff1 slotted; do
  run_case "fires-$protocol-crash" hs1sim --oracle --protocol="$protocol" \
    --n=7 --faulty=3 --strategy=0-:crash
done
run_case fires-withhold-reconfig hs1sim --oracle --n=16 --faulty=6 \
  --strategy=0-2:withhold --reconfig='0:0-15;4:0-11'

echo "SAME: $cases cases, stdout bytes and exit codes identical (outputs in $OUT)"
