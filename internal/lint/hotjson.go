package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// hotJSONFuncs names the record-path functions per package: the code
// that writes a record on every activity completion (checkpoint encode and
// commit), replicated frame or worker-link message, and the code that reads
// records back (recovery, lazy hydration, WAL replay, standby apply, the
// worker link's two frame handlers), snapshots included: a snapshot is the
// log's base, its records in the WAL's framing. The binary codec
// is the only record format on both sides — encoding/json must never creep
// back in, or the 0-allocs/record budget rots on the write side and a
// second on-disk generation reappears on the read side.
//
// The guard is keyed on function names, so every listed name must exist: a
// name with no declaration in its package is a finding, or a rename would
// drop a function out of the guard without anyone noticing.
var hotJSONFuncs = map[string]map[string]bool{
	"bioopera/internal/core": {
		"persist":      true, // per-activity checkpoint of the dirty scopes
		"archive":      true, // terminal-instance checkpoint + history move
		"cutCkpt":      true, // live state -> encoder walk, op keys
		"encodeMeta":   true, // the four record encoders (the codec call sites)
		"encodeCreate": true,
		"encodeDyn":    true,
		"encodeTask":   true,
		"appendOps":    true, // spans, archive deletes, event ops
		"flushWrites":  true, // the turn's one store commit
		"remarkCkpt":   true, // failed-batch re-marking

		"emit":        true, // per-event journal record into the turn's write set
		"emitNow":     true, // the same record committed alone, outside a turn
		"appendEvent": true, // the journal record's bytes, for the engine and the sim driver
		"DecodeEvent": true, // the journal record's reader

		"RecoverOwned":          true, // recovery phases 1–3
		"buildRecovered":        true, // per-instance rebuild (or stub)
		"decodeInstanceRecords": true, // record decode, per instance
		"DecodeInstanceMeta":    true, // the four record decoders
		"decodeCreateRecord":    true,
		"decodeDynRecord":       true,
		"decodeTaskRecord":      true,
		"buildScopes":           true, // scope-tree reconstruction
		"hydrateLocked":         true, // lazy stub decode on first touch
	},
	"bioopera/internal/store": {
		"write":       true, // validate, encode, commit: the head of every mutation
		"encodeOp":    true, // WAL frame encode
		"commit":      true, // group-commit enqueue
		"flushGroup":  true, // group-commit leader flush
		"ingest":      true, // frames to the WAL, ops to memory: the tail of every mutation
		"apply":       true, // ops -> in-memory image
		"Put":         true,
		"Batch":       true,
		"Delete":      true,
		"AppendEvent": true,

		"decodeOp":        true, // WAL frame decode
		"decodeOps":       true,
		"OpenDisk":        true, // base load and WAL replay on open
		"applyShipped":    true, // standby replay of shipped frames
		"Snapshot":        true, // the image as WAL frames, the base write
		"installSnapshot": true, // standby base load
	},
	"bioopera/internal/wal": {
		"Append":      true,
		"AppendBatch": true,
		"Compact":     true, // the base write
		"ReplayBase":  true, // the base load
		"readBatch":   true, // a base or shipped batch, checked
		"Frame":       true, // the follower's records and base frames
	},
	// The worker link is crossed twice per activity. Its six messages are
	// codec records; a JSON fallback for an older peer is the second wire
	// generation that must not come back (the peer is refused instead).
	"bioopera/internal/remote": {
		"Launch":           true, // server: lease + launch frame, under the dispatcher's shard lock
		"Kill":             true,
		"accept":           true, // the handshake's hello and welcome
		"Frame":            true, // both inbound handlers: workerConn's and Agent's
		"handleCompletion": true, // server: completion decode, lease check, delivery
		"runJob":           true, // agent: run, completion encode, send
		"heartbeatLoop":    true,
		"Encode":           true, // the six message encoders and decoders
		"Decode":           true,
		"openFrame":        true, // body header check, per frame
		"send":             true,
		"sendWait":         true,
	},
}

// hotJSONFixtureFuncs is the golden fixture's list: a few of the engine's
// names, the worker link's Frame (a method: every receiver's is guarded),
// and one — snapshotScope, refactored away — that the fixture does not
// declare.
var hotJSONFixtureFuncs = map[string]bool{
	"persist": true, "archive": true, "cutCkpt": true, "flushCkpt": true,
	"decodeInstanceRecords": true, "snapshotScope": true, "Frame": true,
}

// hotFuncsFor resolves the banned-function set for a package. The golden
// fixture has its own list so the harness can exercise the analyzer
// without linting the real engine.
func hotFuncsFor(path string) map[string]bool {
	if testdataPkg(path) {
		if strings.Contains(path, "lint/testdata/hotjson") {
			return hotJSONFixtureFuncs
		}
		return nil
	}
	return hotJSONFuncs[path]
}

// runHotJSON flags encoding/json use inside record-path functions. The
// check is syntactic per function body: any selector resolving to the
// encoding/json package (json.Marshal, json.NewEncoder, an aliased import,
// ...) is a violation. Deliberate exceptions — none exist today — carry
// //bioopera:allow hotjson with a reason.
func runHotJSON(p *Pass) {
	funcs := hotFuncsFor(p.Pkg.Path())
	if len(funcs) == 0 {
		return
	}
	declared := make(map[string]bool, len(funcs))
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !funcs[fd.Name.Name] {
				continue
			}
			declared[fd.Name.Name] = true
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				pn, ok := p.Info.Uses[id].(*types.PkgName)
				if !ok || pn.Imported().Path() != "encoding/json" {
					return true
				}
				p.Reportf(sel.Pos(), "json.%s in record-path function %s: records use the binary codec (internal/codec), not encoding/json", sel.Sel.Name, fd.Name.Name)
				return true
			})
		}
	}
	var stale []string
	for name := range funcs {
		if !declared[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		p.Reportf(p.Files[0].Package, "hotjson guards record-path function %s, which %s no longer declares: the function left the guard with its name — update hotJSONFuncs", name, p.Pkg.Path())
	}
}
