#!/bin/sh
# Flag budget: the four binaries together may expose at most BUDGET
# command-line flags (ROADMAP item 10's one options surface). A flag is
# a line of the binary's -h output that starts with two spaces and a
# dash. Prints the per-binary counts and fails above the budget.
set -eu

BUDGET=51
total=0
for bin in ppgnn ppgnn-lsp ppgnn-experiments ppgnn-dataset; do
    n=$(go run "./cmd/$bin" -h 2>&1 | grep -cE '^  -' || true)
    [ "$n" -gt 0 ] || { echo "flag-budget: $bin printed no flags" >&2; exit 1; }
    echo "$bin $n"
    total=$((total + n))
done
echo "total $total (budget $BUDGET)"
[ "$total" -le "$BUDGET" ] || { echo "flag-budget: $total flags exceed the budget of $BUDGET" >&2; exit 1; }
