#!/bin/sh
# Regenerates the golden report outputs and --csv exports under
# tests/golden/ from the current build.  Run this ONLY when a report's
# output has intentionally changed, and review the diff before committing —
# these bytes are the contract that tests/analysis/golden_report_test.cpp
# pins across thread counts and instrumentation on/off.
#
# Usage: tools/update_goldens.sh [build-dir]   (default: build)
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
ROOTSTORE="$BUILD_DIR/tools/rootstore"

if [ ! -x "$ROOTSTORE" ]; then
  echo "update_goldens: $ROOTSTORE not found; build first:" >&2
  echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
  exit 1
fi

mkdir -p tests/golden
for name in table1 table2 table3 table4 table5 table6 table7 \
            fig1 fig2 fig3 fig4 agreement exclusivity ct_landscape; do
  # Serial execution is the reference; the test asserts that threaded and
  # instrumented runs reproduce these bytes exactly.
  "$ROOTSTORE" report "$name" --threads 0 > "tests/golden/report_$name.txt"
  echo "wrote tests/golden/report_$name.txt"
done
for name in fig1 fig3 fig4 churn; do
  "$ROOTSTORE" report "$name" --csv --threads 0 > "tests/golden/report_$name.csv"
  echo "wrote tests/golden/report_$name.csv"
done

# Verify request→response corpus (tests/verify/verify_golden_test.cpp).
MAKE_VERIFY_GOLDENS="$BUILD_DIR/tools/make_verify_goldens"
if [ ! -x "$MAKE_VERIFY_GOLDENS" ]; then
  echo "update_goldens: $MAKE_VERIFY_GOLDENS not found; build first" >&2
  exit 1
fi
"$MAKE_VERIFY_GOLDENS" tests/golden/verify
