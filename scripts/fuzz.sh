#!/bin/sh
# Runs every native fuzz target for one stretch each: the soak run by
# default, and check.sh's 3-second smoke pass.
#
# Usage:
#   scripts/fuzz.sh            # 5 minutes per target
#   scripts/fuzz.sh 30m        # any Go duration per target
#   scripts/fuzz.sh 3s         # the smoke pass
#
# It fails when no target is found or when any target fails. When a
# target fails, `go test` writes the crashing input to the package's
# testdata/fuzz/<FuzzTarget>/ directory. Commit that file: it becomes a
# permanent regression seed that every future `go test` run replays
# without any -fuzz flag.
set -eu

cd "$(dirname "$0")/.."

duration="${1:-5m}"
if ! echo "$duration" | grep -Eq '^([0-9]+(\.[0-9]+)?(ns|us|ms|s|m|h))+$'; then
    echo "fuzz.sh: duration must be a Go duration such as 3s or 5m, got '$duration'" >&2
    exit 2
fi

# Every directory with a _test.go file declaring a `func Fuzz...` is a
# fuzz package; go test runs from inside it, so perfbench's own module
# counts too.
packages=$(grep -rl --include='*_test.go' --exclude-dir=.git --exclude-dir=.bench_build \
    --exclude-dir=testdata '^func Fuzz' . | xargs -n1 dirname | sort -u)
if [ -z "$packages" ]; then
    echo "fuzz.sh: no fuzz targets found" >&2
    exit 1
fi

echo "==> fuzz: ${duration} per target"
failed=0
for pkg in $packages; do
    targets=$( (cd "$pkg" && go test -list '^Fuzz' .) | grep '^Fuzz' || true)
    if [ -z "$targets" ]; then
        echo "fuzz.sh: $pkg declares a fuzz target but go test lists none" >&2
        exit 1
    fi
    for fz in $targets; do
        echo "    $pkg $fz"
        if ! out=$(cd "$pkg" && go test -run '^$' -fuzz "^${fz}\$" -fuzztime "$duration" . 2>&1); then
            echo "$out" >&2
            failed=1
            echo "fuzz.sh: $fz FAILED — commit the new seed under ${pkg}/testdata/fuzz/${fz}/ once the bug is fixed" >&2
        fi
    done
done

if [ "$failed" -ne 0 ]; then
    echo "fuzz.sh: at least one target failed" >&2
    exit 1
fi
echo "OK: all fuzz targets survived ${duration} each"
