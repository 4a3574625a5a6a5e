#!/bin/sh
# Long-run fuzzing for comparenb. Runs every native fuzz target for a
# configurable stretch (default 5 minutes each) — the soak counterpart to
# check.sh's 3-second smoke pass.
#
# Usage:
#   scripts/fuzz.sh            # 5 minutes per target
#   scripts/fuzz.sh 30         # 30 minutes per target
#   FUZZ_MINUTES=10 scripts/fuzz.sh
#
# When a target fails, `go test` writes the crashing input to the
# package's testdata/fuzz/<FuzzTarget>/ directory. Commit that file: it
# becomes a permanent regression seed that every future `go test` run
# (including check.sh's smoke pass) replays without any -fuzz flag.
set -eu

cd "$(dirname "$0")/.."

minutes="${1:-${FUZZ_MINUTES:-5}}"
case "$minutes" in
    ''|*[!0-9]*)
        echo "fuzz.sh: minutes must be a positive integer, got '$minutes'" >&2
        exit 2
        ;;
esac

# Every directory with a _test.go file declaring a `func Fuzz...` is a
# fuzz package; go test runs from inside it, so perfbench's own module
# counts too.
packages=$(grep -rl --include='*_test.go' --exclude-dir=.git --exclude-dir=.bench_build \
    --exclude-dir=testdata '^func Fuzz' . | xargs -n1 dirname | sort -u)
if [ -z "$packages" ]; then
    echo "fuzz.sh: no fuzz targets found" >&2
    exit 1
fi

echo "==> long-run fuzz: ${minutes}m per target"
failed=0
for pkg in $packages; do
    targets=$( (cd "$pkg" && go test -list '^Fuzz' .) | grep '^Fuzz' || true)
    if [ -z "$targets" ]; then
        echo "fuzz.sh: $pkg declares a fuzz target but go test lists none" >&2
        exit 1
    fi
    for fz in $targets; do
        echo "==> $pkg $fz (${minutes}m)"
        if ! (cd "$pkg" && go test -run '^$' -fuzz "^${fz}\$" -fuzztime "${minutes}m" .); then
            failed=1
            echo "fuzz.sh: $fz FAILED — commit the new seed under ${pkg}/testdata/fuzz/${fz}/ once the bug is fixed" >&2
        fi
    done
done

if [ "$failed" -ne 0 ]; then
    echo "fuzz.sh: at least one target found a crasher" >&2
    exit 1
fi
echo "OK: all fuzz targets survived ${minutes}m each"
