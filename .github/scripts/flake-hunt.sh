#!/usr/bin/env bash
# Run the workspace test suite RUNS times pinned to CPUS and tally failures
# per test.
#
#   flake-hunt.sh RUNS CPUS OUT_DIR [cargo test args...]
#
# CPUS is a `taskset -c` list ("0" or "0,1"). The cargo test arguments
# default to `--release --workspace -q --no-fail-fast`. Every run's output
# is kept as OUT_DIR/run-N.log; OUT_DIR/tally.tsv gets one
# "failures<TAB>runs<TAB>test" line per failing test, most frequent first.
# Every failing test binary is also tallied, as "binary <rerun args>"; a
# binary that crashed (SIGSEGV, abort) shows up only there. Exits 1 when
# anything failed.
set -u
runs=$1 cpus=$2 out=$3
shift 3
args=("$@")
[ ${#args[@]} -eq 0 ] && args=(--release --workspace -q --no-fail-fast)
mkdir -p "$out"
# Build once, outside the timed loop, so run 1 is not a compile.
taskset -c "$cpus" cargo test "${args[@]}" --no-run >/dev/null 2>&1
for i in $(seq 1 "$runs"); do
  log="$out/run-$i.log"
  taskset -c "$cpus" cargo test "${args[@]}" >"$log" 2>&1
  echo "run $i/$runs on cpus $cpus: exit $?"
  # One line per failure in this run: failing tests by name, binaries
  # that failed by their rerun arguments. Deduplicated per run.
  { sed -n 's/^---- \(.*\) stdout ----$/\1/p' "$log"
    sed -n 's/^error: test failed, to rerun pass `\(.*\)`$/binary \1/p' "$log"
  } | sort -u >"$out/run-$i.failed"
done
cat "$out"/run-*.failed | sort | uniq -c | sort -rn |
  awk -v runs="$runs" '{n=$1; $1=""; sub(/^ /, ""); print n "\t" runs "\t" $0}' \
  >"$out/tally.tsv"
echo "== failures per test over $runs runs on cpus $cpus =="
if [ -s "$out/tally.tsv" ]; then cat "$out/tally.tsv"; exit 1; fi
echo "none"
