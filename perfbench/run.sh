#!/usr/bin/env bash
# Builds the benchmark and the daemons it drives from this checkout's
# sources, then runs it with the given arguments.  Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload offline-paper --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --self-test
#
# Build output goes to stderr, so the result line stays the last line
# of stdout.
set -eu
cd "$(dirname "$0")/.."
# The shared dune cache lives outside the checkout: keep the build inside.
DUNE_CACHE=disabled dune build --root . ./perfbench/perfbench.exe @perfbench/daemons 1>&2
exec ./_build/default/perfbench/perfbench.exe --bin _build/install/default/bin "$@"
