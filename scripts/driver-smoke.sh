#!/bin/sh
# Driver-equivalence smoke test: one coordinator, two rosters, two kinds
# of key, any worker width. The same seeded three-user query through the
# shared-memory Group (plain, and -threshold 2) and through a quorum
# session over in-process links (-quorum-t 3, and with -threshold 2)
# must print the same answer lines, and so must the plain query at
# GOMAXPROCS=1 and GOMAXPROCS=4 (the worker pools' width), since batch
# crypto draws its randomness serially in index order. The binary is
# built with the race detector and halts on the first report, so a data
# race between the coordinator and its members fails the smoke too.
set -eu

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -race -o "$workdir/ppgnn" ./cmd/ppgnn

# procs, when set, is the GOMAXPROCS of the next run (empty = all cores).
procs=
run() {
    # The exit status is checked before the answer is filtered: a pipe
    # into sed would report sed's status, not the binary's.
    GORACE=halt_on_error=1 GOMAXPROCS=$procs "$workdir/ppgnn" -keybits 256 -seed 7 -no-sanitize "$@" \
        0.2,0.3 0.25,0.35 0.22,0.4 >"$workdir/out" 2>"$workdir/err" || {
        echo "ppgnn $* exited nonzero:" >&2
        cat "$workdir/err" >&2
        exit 1
    }
    sed -n '/^answer/,$p' "$workdir/out"
}

# same fails unless the last run printed the plain run's answer.
same() {
    if ! cmp -s "$workdir/plain" "$workdir/other"; then
        echo "answer with [$1] differs from the plain Group's:" >&2
        diff "$workdir/plain" "$workdir/other" >&2 || true
        exit 1
    fi
}

run >"$workdir/plain"
[ "$(wc -l <"$workdir/plain")" -gt 1 ] || { echo "plain run printed no answer" >&2; exit 1; }

for flags in "-threshold 2" "-quorum-t 3" "-quorum-t 3 -threshold 2"; do
    # shellcheck disable=SC2086 # $flags is a flag list, split on purpose
    run $flags >"$workdir/other"
    same "$flags"
done
for procs in 1 4; do
    run >"$workdir/other"
    same "GOMAXPROCS=$procs"
done
echo "driver smoke: 4 drivers at 3 widths, $(($(wc -l <"$workdir/plain") - 1)) identical answer lines"
