package core

import (
	"slices"
	"strings"
	"testing"

	"bioopera/internal/codec"
	"bioopera/internal/store"
)

// FuzzDecodeInstanceRecords hammers the delta-record decode path with
// arbitrary key/value pairs. Recovery feeds this function raw store
// contents, so it must never panic — corrupt input yields an error (or is
// ignored for unrecognized keys), nothing else. Pre-codec JSON, truncated
// keys, wrong prefixes, and embedded separators are all fair game. A
// per-instance process text (proc/<inst>/<hash>, the layout before texts
// became version records of the template space) refuses its instance at
// grouping, by its key.
func FuzzDecodeInstanceRecords(f *testing.F) {
	// Non-codec values under every key shape: a pre-codec store's JSON
	// records, raw text, near-miss keys.
	f.Add("scopec/p0001/-", []byte(`{"id":"","proc":"PROCESS P {}"}`), "task/p0001/-/Add", []byte(`{"name":"Add","state":"ready"}`))
	f.Add("scoped/p0001/-", []byte(`{"id":""}`), "proc/p0001/0011223344556677", []byte("PROCESS P {}")) // retired
	f.Add("scope/p0001/-", []byte(`{"id":"","tasks":[]}`), "scopec/p0001/Fan[2]", []byte(`{"id":"Fan[2]"}`))
	f.Add("task/p0001", []byte("{"), "scopec/", []byte("null"))
	f.Add("task/p0001/A/B[1]/T", []byte(`{"name":"T"}`), "scoped/p0001/-", []byte("{torn"))
	f.Add("", []byte(""), "proc//", []byte{0xff, 0xfe}) // retired, under the empty instance ID
	// Well-formed codec records under the right keys, plus misfiled kinds
	// and torn binary.
	e := codec.Get()
	encodeCreate(e, &scopeCreateDTO{ID: "-", IsRoot: true, ProcText: "PROCESS P {}"})
	encodeTask(e, &taskState{Name: "Add", Status: TaskReady})
	encodeDyn(e, &scope{wbFull: true})
	createBin := append([]byte(nil), e.Span(0)...)
	taskBin := append([]byte(nil), e.Span(1)...)
	dynBin := append([]byte(nil), e.Span(2)...)
	codec.Put(e)
	f.Add("scopec/p0001/-", createBin, "task/p0001/-/Add", taskBin)
	f.Add("scoped/p0001/-", dynBin, "scopec/p0001/-", taskBin) // misfiled kind
	f.Add("task/p0001/-/Add", taskBin[:len(taskBin)-2], "scoped/p0001/-", []byte{codec.Magic, 0xFF})
	f.Add("proc/p0001/0011223344556677", []byte("PROCESS P {}"), "scopec/p0001/-", createBin)
	f.Fuzz(func(t *testing.T, k1 string, v1 []byte, k2 string, v2 []byte) {
		// Sorted by key, as List returns them: groupRecords' precondition.
		kvs := []store.KV{{Key: k1, Value: v1}, {Key: k2, Value: v2}}
		slices.SortFunc(kvs, func(a, b store.KV) int { return strings.Compare(a.Key, b.Key) })
		groups, _, _ := groupRecords(kvs)
		for _, kv := range kvs {
			if rest, ok := strings.CutPrefix(kv.Key, "proc/"); ok {
				if id, _, ok := splitInstKey(rest); ok && (groups[id].retired == nil || !strings.Contains(groups[id].retired.Error(), "proc/"+id+"/")) {
					t.Fatalf("per-instance text %s: instance %q refused with %v", kv.Key, id, groups[id].retired)
				}
			}
		}
		recMap, err := decodeInstanceRecords(kvs)
		if err != nil {
			return
		}
		// A scope-create key always decodes its value, so a JSON value
		// there can only have been refused.
		for _, kv := range kvs {
			if strings.HasPrefix(kv.Key, "scopec/") && len(kv.Value) > 0 && kv.Value[0] == '{' {
				t.Fatalf("pre-codec JSON record %s = %q decoded without error", kv.Key, kv.Value)
			}
		}
		// On success the maps must be well-formed: no nil records, and
		// every record's scopeID matches its map key.
		for id, r := range recMap {
			if r == nil {
				t.Fatalf("nil scopeRec under %q", id)
			}
			if r.scopeID != id {
				t.Fatalf("scopeRec %q filed under %q", r.scopeID, id)
			}
		}
		// Rebuilding the scope tree decodes the task records into their
		// slots: an error or a tree, never a panic.
		eng := &Engine{byHash: make(map[string]*compiledProc)}
		_ = eng.buildScopes(buildInstanceShell(InstanceMeta{ID: "p0001"}), kvs, recMap)
	})
}
