#!/usr/bin/env bash
# Build and run the simulator benchmark from the root of a checkout:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Builds perfbench/main.exe (and the simulator libraries it links) from
# source with dune, then runs it with the given arguments. Build output
# goes to stderr; stdout carries only the benchmark's report, ending in
# its one-line JSON result.
set -euo pipefail

if [[ ! -f dune-project || ! -d lib || ! -f perfbench/dune-project ]]; then
  echo "perfbench: run from the root of a full checkout (dune-project, lib/ and perfbench/ needed)" >&2
  exit 2
fi

# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe 1>&2

# Run with address-space randomisation off where the system allows it:
# the same code then gets the same memory layout in every run.
bench=./_build/default/perfbench/main.exe
if setarch "$(uname -m)" -R true 2>/dev/null; then
  exec setarch "$(uname -m)" -R "$bench" "$@"
fi
exec "$bench" "$@"
