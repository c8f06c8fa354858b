#!/bin/sh
# Repo hygiene + test gate. Run from the repo root:
#
#   ./scripts/check.sh          # gofmt, vet, build, compiled-once, keys-built-once, one-attempt, segment-read and store-I/O greps, biooperalint, tests
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

echo "== templates are compiled once, store keys are built once, an attempt lives in its task, a WAL segment is read whole, the store does no file I/O"
# An instance shares its template's compiled form (internal/core/template.go):
# nothing on the start, navigation or checkpoint path may copy or re-format a
# process. The allowed sites: the compile step itself, RegisterTemplate's one
# defensive copy of the caller's value, and the copy Template hands out.
copies=$(grep -n 'ocr\.Format(\|\.Clone()' internal/core/*.go |
    grep -v '_test\.go:' |
    grep -v '^internal/core/template\.go:' |
    grep -v '^internal/core/core\.go:[0-9]*:	cp := compile(p\.Clone())$' |
    grep -v '^internal/core/core\.go:[0-9]*:	return p\.Process\.Clone(), true$' || true)
if [ -n "$copies" ]; then
    echo "ocr.Format/Clone in internal/core outside template.go, RegisterTemplate and Template:" >&2
    echo "$copies" >&2
    exit 1
fi

# A record's store key is built once and kept beside the state it names
# (persist.go: Instance.key, scope.createKey, scope.dynKey, taskState.key).
# The only calls of the four builders are those accessors filling their field.
rebuilt=$(grep -n 'metaKey(\|scopeCreateKey(\|scopeDynKey(\|taskKey(' internal/core/*.go |
    grep -v '_test\.go:' |
    grep -v '^internal/core/persist\.go:[0-9]*:func ' |
    grep -v '^internal/core/persist\.go:[0-9]*:		\(in\.metaK\|sc\.createK\|sc\.dynK\|ts\.taskK\) = [a-zA-Z]*Key(in\.ID[^()]*)$' || true)
if [ -n "$rebuilt" ]; then
    echo "store key built outside the cached accessors in internal/core/persist.go:" >&2
    echo "$rebuilt" >&2
    exit 1
fi

# A dispatch attempt allocates its job ID and nothing else (DESIGN §4 "The
# runtime layer"): it lives in its taskState, so nothing builds a queuedRef on
# the heap and only the one enqueue helper (and putBack, for a job a drain
# popped) puts a job in the queue; the drain path takes its cluster view into
# the engine's buffer.
core_src=$(ls internal/core/*.go | grep -v '_test\.go$')
attempts=$(
    grep -n '&queuedRef{' $core_src || true
    awk '/^func /{fn=$0} /e\.sched\.Enqueue\(/ && fn !~ /\) (enqueue|putBack)\(/ {print FILENAME":"FNR":"$0}' $core_src
    awk '/^func /{fn=$0}
        /Executor\.AppendNodes\(/ && fn ~ /\) (drain|reapUnplaceable)\(/ && !/e\.view = e\.opts\.Executor\.AppendNodes\(e\.view\[:0\]\)/ {print FILENAME":"FNR":"$0}
        /e\.view = e\.opts\.Executor\.AppendNodes\(e\.view\[:0\]\)/ && fn ~ /\) drain\(/ {seen=1}
        END {if (!seen) print FILENAME": drain takes no view into e.view"}' internal/core/dispatcher.go
)
if [ -n "$attempts" ]; then
    echo "a queuedRef built on the heap, a job queued outside enqueue/putBack, or a drain-path view not taken into the engine's buffer:" >&2
    echo "$attempts" >&2
    exit 1
fi

# The log is read a segment at a time (DESIGN §10 "Parallel sharded
# recovery"): readSegment takes a whole segment in one read and walk hands
# out its frames in place, so nothing in internal/wal reads or allocates a
# frame of its own. The one make([]byte is AppendBatch's pooled encode buffer.
framereads=$(grep -n 'io\.ReadFull(\|make(\[\]byte' internal/wal/*.go |
    grep -v '_test\.go:' |
    grep -v '^internal/wal/wal\.go:[0-9]*:	b := make(\[\]byte, 0, 4096)$' || true)
if [ -n "$framereads" ]; then
    echo "a frame read or allocated on its own in internal/wal:" >&2
    echo "$framereads" >&2
    exit 1
fi

# Every byte the store keeps or ships is framed and written by internal/wal
# (DESIGN §10 "One write path"): a snapshot is the log's base, so non-test
# internal/store touches no file. (That it marshals no JSON is biooperalint's
# hotjson rule, for every package under internal/.)
storeio=$(grep -n '"os"' internal/store/*.go | grep -v '_test\.go:' || true)
if [ -n "$storeio" ]; then
    echo "os imported by non-test internal/store:" >&2
    echo "$storeio" >&2
    exit 1
fi

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
fi

echo "== fuzz the WAL segment walker (10s)"
go test -run '^$' -fuzz FuzzSegment -fuzztime 10s ./internal/wal

echo "== fuzz the frame decoder (10s)"
go test -run '^$' -fuzz FuzzReadFrame -fuzztime 10s ./internal/transport

echo "== fuzz the worker-protocol message decoders (10s)"
go test -run '^$' -fuzz FuzzWorkerMessage -fuzztime 10s ./internal/remote

echo "== fuzz the federation message and lease decoders (10s)"
go test -run '^$' -fuzz FuzzFedMessage -fuzztime 10s ./internal/fed

echo "== fuzz the event journal record's round trip and decoder (10s)"
go test -run '^$' -fuzz FuzzDecodeEvent -fuzztime 10s ./internal/core

echo "== federation e2e smoke"
# Two servers and a gateway in one process; one server is killed mid-run
# and every instance must still complete with correct outputs.
go run ./cmd/bioopera fed -servers 2 -n 6 -kill

echo "== non-test LoC"
./scripts/loc.sh -total

echo "OK"
