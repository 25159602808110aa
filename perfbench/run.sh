#!/usr/bin/env bash
# Build the benchmark and the ddlock CLI from source, then run one
# workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root; everything it writes stays under _build/
# and .perfbench/ (the dune cache is off, so nothing lands in $HOME).
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
dune build --root . --cache=disabled --display quiet perfbench/main.exe bin/ddlock_cli.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
