#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it; every
# argument passes through to the harness (see e2ebench/README.md):
#
#   bash e2ebench/run.sh --workload axis-scan --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr, so the last line of stdout stays the
# result.  The shared dune cache is disabled to keep every write inside
# the checkout.
set -eu
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./e2ebench/e2e.exe 1>&2
exec ./_build/default/e2ebench/e2e.exe "$@"
