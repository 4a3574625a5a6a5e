#!/bin/sh
# Non-test Go line count, as ROADMAP.md and CHANGES.md track it: every
# tracked *.go file except _test.go files and the perfbench/ module (its
# own module, a benchmark harness). Prints one line per directory, sorted
# by path, then the total on the last line. Untracked files do not count.
#
#   scripts/loc.sh
set -eu

cd "$(dirname "$0")/.."

git ls-files '*.go' | grep -v -e '_test\.go$' -e '^perfbench/' | while read -r f; do
    printf '%s %s\n' "$(dirname "$f")" "$(wc -l < "$f")"
done | awk '
    { lines[$1] += $2; total += $2 }
    END {
        for (d in lines) printf "%7d %s\n", lines[d], d | "sort -k2"
        close("sort -k2")
        printf "%7d non-test Go lines\n", total
    }'
