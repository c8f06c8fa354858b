package core

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"bioopera/internal/codec"
	"bioopera/internal/ocr"
	"bioopera/internal/sim"
)

// fuzzValue builds one whiteboard value from fuzz primitives. NaN is
// replaced (it round-trips through the codec but compares unequal to
// itself, which would make DeepEqual report false corruption).
func fuzzValue(sel uint8, num float64, s string) ocr.Value {
	if math.IsNaN(num) {
		num = 0
	}
	switch sel % 5 {
	case 0:
		return ocr.Null
	case 1:
		return ocr.Bool(num > 0)
	case 2:
		return ocr.Num(num)
	case 3:
		return ocr.Str(s)
	default:
		return ocr.List(ocr.Num(num), ocr.Str(s), ocr.Null, ocr.List(ocr.Bool(num < 0)))
	}
}

// fuzzValueMap builds a small map; count 0 yields nil, matching the
// codec's empty-decodes-nil rule (and JSON omitempty).
func fuzzValueMap(n uint8, key string, sel uint8, num float64, s string) map[string]ocr.Value {
	count := int(n % 4)
	if count == 0 {
		return nil
	}
	m := make(map[string]ocr.Value, count)
	for i := 0; i < count; i++ {
		m[key+string(rune('a'+i))] = fuzzValue(sel+uint8(i), num+float64(i), s)
	}
	return m
}

// FuzzCodecRoundTrip drives every record family through binary encode →
// decode and requires the result to be structurally identical to the
// input — or, where the record is a projection of live state (a scope's
// owned whiteboard delta, a task without its derived fields), to that
// projection computed independently. The inputs are built from fuzz
// primitives so the corpus explores string-interning collisions, extreme
// ints, and empty-vs-populated containers. The fuzz strings double as raw
// record bytes: text that does not start with the codec magic — a pre-codec
// store's JSON records, as in the last seed — must be refused by every
// decoder, never misparsed.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add("p0001", "Par", "tenant-a", "", uint8(2), -3, true, int64(12345), int64(-1), "out", "val", 2.5, uint8(2), uint8(7))
	f.Add("", "", "", "node fell over", uint8(200), math.MaxInt32, false, int64(math.MinInt64), int64(math.MaxInt64), "k", "k", math.Inf(1), uint8(3), uint8(0))
	f.Add("x", "x", "x", "x", uint8(0), 0, false, int64(0), int64(0), "x", "x", -0.0, uint8(0), uint8(4))
	f.Add(`{"id":"p0001","template":"Par"}`, "Par", "", "", uint8(1), 0, false, int64(0), int64(0), "k", `{"name":"Add","status":2}`, 1.0, uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, id, tmpl, tenant, reason string, status uint8, prio int, nice bool, t1, t2 int64, key, s string, num float64, n, sel uint8) {
		meta := InstanceMeta{
			ID: id, Template: tmpl, Status: InstanceStatus(status),
			Priority: prio, Nice: nice, Tenant: tenant,
			Started: sim.Time(t1), Ended: sim.Time(t2),
			Activities: int(n), CPU: time.Duration(t1 ^ t2),
			Failures: prio, Retries: int(status),
			Outputs:       fuzzValueMap(n, key, sel, num, s),
			FailureReason: reason,
		}
		create := scopeCreateDTO{
			ID: id, Parent: tmpl, IsRoot: nice, ParentTask: key,
			ElemIndex: prio, ProcRef: tenant, ProcText: s,
		}
		// A scope whose record is either its full whiteboard or the delta
		// it owns: every other key an explicit entry, two keys masked. The
		// expected record is that projection, computed here from wbOwn.
		wb := fuzzValueMap(n+1, key, sel+1, num, s)
		sc := &scope{wbFull: nice, Done: !nice}
		dyn := scopeDynDTO{Full: nice, Done: !nice}
		if nice {
			sc.Whiteboard = wb
			dyn.Entries = wb
		} else {
			for i := 0; i < len(wb); i += 2 {
				k := key + string(rune('a'+i))
				sc.own(k, wb[k], true)
			}
			if n%3 == 1 {
				sc.own("drop/"+s, ocr.Null, false)
				sc.own("drop/"+key, ocr.Null, false)
			}
			for _, o := range sc.wbOwn {
				if !o.present {
					dyn.Drop = append(dyn.Drop, o.key)
					continue
				}
				if dyn.Entries == nil {
					dyn.Entries = map[string]ocr.Value{}
				}
				dyn.Entries[o.key] = o.val
			}
			sort.Strings(dyn.Drop)
		}
		task := taskState{
			Name: id, Status: TaskStatus(status), Attempts: prio,
			Inputs:  fuzzValueMap(n, key, sel, num, s),
			Outputs: fuzzValueMap(n+2, s, sel+3, num, key),
			ConnIn:  []connState{connSatisfied},
			Node:    tenant, Job: tmpl, AltOf: reason,
			ReadyAt: sim.Time(t1), StartedAt: sim.Time(t2), EndedAt: sim.Time(t1 + t2),
			CPUTime: time.Duration(t2), ChildWaiting: int(n),
		}
		if sel%2 == 0 {
			task.Results = []ocr.Value{fuzzValue(sel, num, s), fuzzValue(sel+1, -num, key)}
		}
		if sel%3 == 0 {
			task.OverElems = []ocr.Value{fuzzValue(sel+2, num, s)}
		}
		// Derived and unpersisted fields come back zero.
		wantTask := task
		wantTask.ConnIn, wantTask.ChildWaiting, wantTask.Results = nil, 0, nil

		e := codec.Get()
		defer codec.Put(e)
		encodeMeta(e, &meta)
		encodeCreate(e, &create)
		encodeDyn(e, sc)
		encodeTask(e, &task)

		gotMeta, err := DecodeInstanceMeta(e.Span(0))
		if err != nil {
			t.Fatalf("meta: %v", err)
		}
		if !reflect.DeepEqual(gotMeta, meta) {
			t.Fatalf("meta round trip:\n got %+v\nwant %+v", gotMeta, meta)
		}
		gotCreate, err := decodeCreateRecord(e.Span(1))
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if !reflect.DeepEqual(gotCreate, create) {
			t.Fatalf("create round trip:\n got %+v\nwant %+v", gotCreate, create)
		}
		gotDyn, err := decodeDynRecord(e.Span(2))
		if err != nil {
			t.Fatalf("dyn: %v", err)
		}
		if !reflect.DeepEqual(gotDyn, dyn) {
			t.Fatalf("dyn round trip:\n got %+v\nwant %+v", gotDyn, dyn)
		}
		var gotTask taskState
		if err := decodeTaskRecord(e.Span(3), &gotTask); err != nil {
			t.Fatalf("task: %v", err)
		}
		if !reflect.DeepEqual(gotTask, wantTask) {
			t.Fatalf("task round trip:\n got %+v\nwant %+v", gotTask, wantTask)
		}

		for _, raw := range []string{id, s} {
			if raw != "" && raw[0] == codec.Magic {
				continue
			}
			_, errMeta := DecodeInstanceMeta([]byte(raw))
			_, errCreate := decodeCreateRecord([]byte(raw))
			_, errDyn := decodeDynRecord([]byte(raw))
			errTask := decodeTaskRecord([]byte(raw), new(taskState))
			if errMeta == nil || errCreate == nil || errDyn == nil || errTask == nil {
				t.Fatalf("non-codec bytes %q decoded: meta=%v create=%v dyn=%v task=%v", raw, errMeta, errCreate, errDyn, errTask)
			}
		}
	})
}

// TestCodecEncodeAllocs is the tentpole's headline number: steady-state
// binary encoding of persist records allocates nothing. The pooled
// encoder's buffer, mark slice, intern table and key scratch all survive
// Reset, so a warm flusher costs zero allocations per record.
func TestCodecEncodeAllocs(t *testing.T) {
	meta := InstanceMeta{
		ID: "p0001", Template: "Par", Status: InstanceSuspended,
		Started: 100, Activities: 7, CPU: 3 * time.Second,
		Outputs: map[string]ocr.Value{"doubled": ocr.List(ocr.Num(2), ocr.Num(4))},
	}
	task := taskState{
		Name: "Add", Status: TaskEnded, Attempts: 1,
		Inputs:  map[string]ocr.Value{"a": ocr.Num(1), "b": ocr.Num(2)},
		Outputs: map[string]ocr.Value{"sum": ocr.Num(3)},
		Node:    "ik0", Job: "j0001", ReadyAt: 10, StartedAt: 20, EndedAt: 30,
	}
	e := codec.Get()
	defer codec.Put(e)
	run := func() {
		e.Reset()
		encodeMeta(e, &meta)
		encodeTask(e, &task)
	}
	run() // warm the buffer, intern table, and key scratch
	if allocs := testing.AllocsPerRun(500, run); allocs != 0 {
		t.Errorf("steady-state record encode = %v allocs, want 0", allocs)
	}
}
