#!/usr/bin/env bash
# Builds the benchmark offline and runs it. See README.md beside this file.
#
#   benchmark/run.sh                      every workload, end-to-end metrics
#   benchmark/run.sh --trace              ... plus the traced run and the stage table
#   benchmark/run.sh --selfcheck          two sets must agree within the bounds
#   benchmark/run.sh --only wire_bin      one workload (also: --workload <name>)
#   --seed <n>  --seconds <s>  --repeats <k>  --trace <0|1>
#
# The last line of standard output of a single-workload run is the JSON
# object BENCHMARK.json's contract asks for.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Cargo resolves a relative CARGO_TARGET_DIR against the working directory;
# so does this script, which therefore must not change directory.
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

# wire_idle_fanin holds both ends of 2 050 connections in one process.
limit="$(ulimit -n)"
if [ "$limit" != unlimited ] && [ "$limit" -lt 8192 ]; then
    ulimit -n 8192 2>/dev/null || true
fi

exec "$target/release/spq-benchmark" --out "$here/out" "$@"
