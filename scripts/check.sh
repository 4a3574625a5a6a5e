#!/bin/sh
# Pre-merge gate for comparenb. Every step must pass; the script stops at
# the first failure. Run from anywhere inside the repo.
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> comparenb-vet ./..."
go run ./cmd/comparenb-vet ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> perfbench: go vet + go test -race (its own module)"
# The benchmark module is invisible to the root ./... patterns, so a
# refactor of an API it calls would otherwise break it unnoticed.
(cd perfbench && go vet ./... && go test -race ./...)

echo "==> bench smoke (every benchmark once)"
go test -run '^$' -bench . -benchtime=1x ./... > /dev/null

echo "==> obs smoke (trace + metrics artifacts validate)"
OBSDIR="$(mktemp -d)"
SRV_PID=""
cleanup() {
    if [ -n "$SRV_PID" ] && kill -0 "$SRV_PID" 2>/dev/null; then
        kill -TERM "$SRV_PID" 2>/dev/null || true
        wait "$SRV_PID" 2>/dev/null || true
    fi
    rm -rf "$OBSDIR"
}
trap cleanup EXIT
go run ./cmd/datagen -dataset tiny > "$OBSDIR/tiny.csv"
go run ./cmd/comparenb -in "$OBSDIR/tiny.csv" -solver exact \
    -trace-out "$OBSDIR/run.trace.json" -metrics-out "$OBSDIR/run.metrics.txt" \
    > /dev/null
go run ./cmd/obscheck -q -trace "$OBSDIR/run.trace.json" -metrics "$OBSDIR/run.metrics.txt"

echo "==> server smoke (daemon -> load -> generate -> obscheck -> drain)"
go build -o "$OBSDIR/" ./cmd/comparenbd ./cmd/loadgen ./cmd/obscheck
"$OBSDIR/comparenbd" -addr 127.0.0.1:0 -addr-file "$OBSDIR/addr" \
    -load tiny="$OBSDIR/tiny.csv" > "$OBSDIR/daemon.log" 2>&1 &
SRV_PID=$!
for _ in $(seq 1 50); do
    [ -s "$OBSDIR/addr" ] && break
    sleep 0.1
done
[ -s "$OBSDIR/addr" ] || { echo "server smoke: daemon never bound; log:" >&2; cat "$OBSDIR/daemon.log" >&2; exit 1; }
# loadgen fails unless both jobs end done under the trace ids they were
# submitted with and the server's e2e histogram counts them.
"$OBSDIR/loadgen" -addr "$(cat "$OBSDIR/addr")" -jobs 2 -rows 200 -queries 4 -perms 60 \
    -trace-out "$OBSDIR/job.trace.json" -metrics-out "$OBSDIR/job.metrics.txt"
"$OBSDIR/obscheck" -q -trace "$OBSDIR/job.trace.json" -metrics "$OBSDIR/job.metrics.txt"
kill -TERM "$SRV_PID"
wait "$SRV_PID"
SRV_PID=""
# The drained daemon's JSON log holds one job record per loadgen job,
# each done.
logged=$(grep -c '"msg":"job"' "$OBSDIR/daemon.log" || true)
done_logged=$(grep -c '"msg":"job".*"state":"done"' "$OBSDIR/daemon.log" || true)
if [ "$logged" != 2 ] || [ "$done_logged" != 2 ]; then
    echo "server smoke: daemon log holds $logged job records ($done_logged done), want 2 done; log:" >&2
    cat "$OBSDIR/daemon.log" >&2
    exit 1
fi

echo "==> crash smoke (durable daemon -> kill -9 mid-run -> restart -> recovery verified)"
wait_addr() {
    for _ in $(seq 1 50); do
        [ -s "$1" ] && return 0
        sleep 0.1
    done
    return 1
}
STATEDIR="$OBSDIR/state"
"$OBSDIR/comparenbd" -addr 127.0.0.1:0 -addr-file "$OBSDIR/addr-crash1" \
    -state-dir "$STATEDIR" > "$OBSDIR/crash1.log" 2>&1 &
SRV_PID=$!
wait_addr "$OBSDIR/addr-crash1" || { echo "crash smoke: daemon never bound; log:" >&2; cat "$OBSDIR/crash1.log" >&2; exit 1; }
# Jobs of about half a second each (on a 2-vCPU VM), so the few
# milliseconds between seeing a job-start and the SIGKILL cannot let the
# job finish first.
"$OBSDIR/loadgen" -addr "$(cat "$OBSDIR/addr-crash1")" -jobs 3 \
    -rows 400 -queries 5 -perms 20000 > /dev/null 2>&1 &
LG_PID=$!
# SIGKILL lands mid-run: once the journal holds a job-start whose job has
# no terminal record yet.
JOURNAL="$STATEDIR/journal.jsonl"
job_ids() { grep -E "\"t\":\"job-($1)\"" "$JOURNAL" | grep -o '"id":"[^"]*"' | sort -u; }
midrun() {
    [ -f "$JOURNAL" ] || return 1
    job_ids 'start' > "$OBSDIR/started"
    job_ids 'done|failed|cancelled' > "$OBSDIR/ended"
    [ -n "$(comm -23 "$OBSDIR/started" "$OBSDIR/ended")" ]
}
for _ in $(seq 1 1500); do
    midrun && break
    sleep 0.02
done
midrun || { echo "crash smoke: no job started within 30s; log:" >&2; cat "$OBSDIR/crash1.log" >&2; exit 1; }
kill -9 "$SRV_PID"
SRV_PID=""
wait "$LG_PID" 2>/dev/null || true  # its daemon just vanished mid-poll
# The journal as the crash left it; the restarted daemon appends to the
# original.
cp "$JOURNAL" "$OBSDIR/journal-at-kill.jsonl"
"$OBSDIR/comparenbd" -addr 127.0.0.1:0 -addr-file "$OBSDIR/addr-crash2" \
    -state-dir "$STATEDIR" > "$OBSDIR/crash2.log" 2>&1 &
SRV_PID=$!
wait_addr "$OBSDIR/addr-crash2" || { echo "crash smoke: restarted daemon never bound; log:" >&2; cat "$OBSDIR/crash2.log" >&2; exit 1; }
# -resume waits for /readyz, follows every journaled job to a terminal
# state, and fails if the journal was empty or anything never settles.
# It downloads every done job's notebook, which the restarted daemon
# reads back from its store and verifies, and fails unless each answers
# 200 with a body that parses as JSON. -journal additionally asserts
# every recovered job kept the trace id its admission record carried
# across the kill -9, and that each job the kill cut off mid-run ran
# again, to done.
"$OBSDIR/loadgen" -addr "$(cat "$OBSDIR/addr-crash2")" -resume \
    -journal "$OBSDIR/journal-at-kill.jsonl" -out "$OBSDIR/resume.json" \
    || { echo "crash smoke: recovery verification failed; log:" >&2; cat "$OBSDIR/crash2.log" >&2; exit 1; }
cat "$OBSDIR/resume.json"
kill -TERM "$SRV_PID"
wait "$SRV_PID"
SRV_PID=""

echo "==> fuzz smoke (every fuzz target, 3s each)"
scripts/fuzz.sh 3s

echo "OK: all checks passed"
# The last line is the non-test Go line count ROADMAP.md and CHANGES.md
# track; scripts/loc.sh prints it per directory.
scripts/loc.sh | tail -n 1
