#!/bin/sh
# Build the benchmark from source and run it; every argument goes to
# perf/main.exe (see perf/README.md). The build needs the repository's
# libraries, so outside a full checkout it fails before any run.
set -e
cd "$(dirname "$0")/.."
dune build --root . --display quiet --cache disabled ./perf/main.exe
exec ./_build/default/perf/main.exe "$@"
