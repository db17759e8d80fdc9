#!/usr/bin/env bash
# Build the benchmark from this checkout's sources, then run it:
#   bash rpcbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of the repository.  Build output goes to stderr, so
# the last line of standard output is the benchmark's JSON result.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "rpcbench: run from the root of the repository (no dune-project or lib/ here)" >&2
  exit 2
fi
# keep every build artifact and temporary file inside the checkout
export DUNE_CACHE=disabled
mkdir -p .rpcbench_tmp
export TMPDIR="$PWD/.rpcbench_tmp"
dune build --root . --display quiet ./rpcbench/rpcbench.exe >&2
exec ./_build/default/rpcbench/rpcbench.exe "$@"
