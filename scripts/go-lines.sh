#!/bin/sh
# go-lines.sh — print the repo's tracked Go line counts, non-test and
# test, excluding the perfbench/ benchmark module, so a change can report
# its net lines against the ROADMAP baseline.
#
# Usage:
#   scripts/go-lines.sh
set -eu

cd "$(dirname "$0")/.." || exit 1

count() {
    git ls-files -z -- "$@" | xargs -0 cat | wc -l | tr -d ' '
}

echo "non-test Go lines (excluding perfbench/): $(count '*.go' ':!:*_test.go' ':!:perfbench/*')"
echo "test Go lines (excluding perfbench/): $(count '*_test.go' ':!:perfbench/*')"
