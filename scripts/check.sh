#!/bin/sh
# Repo hygiene + test gate. Run from the repo root:
#
#   ./scripts/check.sh          # gofmt, vet, build, biooperalint, tests
#   ./scripts/check.sh -race    # same, plus the race-detector suite
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt -s"
unformatted=$(gofmt -s -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt -s needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== biooperalint"
# The tool prints its own load/analyze split on stderr; time the whole run
# (including go run's rebuild) so regressions in the module loader show up.
lint_start=$(date +%s)
go run ./cmd/biooperalint ./...
echo "   biooperalint took $(($(date +%s) - lint_start))s"

echo "== go test"
go test ./...

if [ "${1:-}" = "-race" ]; then
    echo "== go test -race"
    go test -race ./...
    # Dispatch groups on a pool whose queue is one deeper than it: a group
    # that joined an instance with a write set in flight hangs here.
    go test -race -count=20 -run '^TestDispatchGroupsOnAPool$' ./internal/core
fi

echo "== fuzz the WAL segment walker (10s)"
go test -run '^$' -fuzz FuzzSegment -fuzztime 10s ./internal/wal

echo "== fuzz the store's WAL op decoder (10s)"
go test -run '^$' -fuzz FuzzDecodeOp -fuzztime 10s ./internal/store

echo "== fuzz the frame decoder (10s)"
go test -run '^$' -fuzz FuzzReadFrame -fuzztime 10s ./internal/transport

echo "== fuzz the worker-protocol message decoders (10s)"
go test -run '^$' -fuzz FuzzWorkerMessage -fuzztime 10s ./internal/remote

echo "== fuzz the federation message and lease decoders (10s)"
go test -run '^$' -fuzz FuzzFedMessage -fuzztime 10s ./internal/fed

echo "== fuzz the event journal record's round trip and decoder (10s)"
go test -run '^$' -fuzz FuzzDecodeEvent -fuzztime 10s ./internal/core

echo "== fuzz recovery's grouping and instance-record decoders (10s)"
go test -run '^$' -fuzz FuzzDecodeInstanceRecords -fuzztime 10s ./internal/core

echo "== federation e2e smoke"
# Three servers and a gateway in one process; one server is killed mid-run
# and every instance must still complete with correct outputs. Three, not
# two: only then can the survivors redirect a call to each other while the
# dead one's partitions change hands.
fed_start=$(date +%s)
go run ./cmd/bioopera fed -servers 3 -n 6 -kill
echo "   federation smoke took $(($(date +%s) - fed_start))s"

echo "== non-test LoC"
./scripts/loc.sh -total
# Code no program reaches is kept only under an allow that names the test or
# gate needing it; the count sits beside the LoC so its growth shows.
kept=$(grep -r --include='*.go' -E '^[[:space:]]*//bioopera:allow deadcode ' . |
    grep -v '_test\.go:' | grep -v '/testdata/' | wc -l)
printf '%7d  //bioopera:allow deadcode directives (kept, no program reaches them)\n' "$kept"
# So does the count of wall-clock reads allowed in deterministic packages:
# time comes from sim.Clock, and each allow is a way around it.
wall=$(grep -r --include='*.go' -E '^[[:space:]]*//bioopera:allow walltime ' . |
    grep -v '_test\.go:' | grep -v '/testdata/' | wc -l)
printf '%7d  //bioopera:allow walltime directives (wall-clock reads in deterministic packages)\n' "$wall"

echo "OK"
