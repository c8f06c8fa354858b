package core

import (
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bioopera/internal/codec"
	"bioopera/internal/obs"
	"bioopera/internal/ocr"
	"bioopera/internal/sim"
	"bioopera/internal/store"
)

// These tests cover recovery at scale: partial recovery around poisoned
// instances and lazy hydration of dormant instances.

// sixXs is the stock parallel-block input; Par doubles each element.
func sixXs() ocr.Value {
	return ocr.List(ocr.Num(1), ocr.Num(2), ocr.Num(3), ocr.Num(4), ocr.Num(5), ocr.Num(6))
}

// TestRecoverOnePoisonedOfN: one corrupt instance must not sink the whole
// recovery. The damaged instance is skipped (and reported, both in the
// joined error and through OnError); every healthy sibling recovers and
// runs to completion.
func TestRecoverOnePoisonedOfN(t *testing.T) {
	st := store.NewMem()
	var onErrCalls atomic.Int64
	rt := newRuntime(t, SimConfig{Store: st, Options: Options{
		OnError: func(error) { onErrCalls.Add(1) },
	}})
	register(t, rt, parallelSrc)
	const n = 5
	var ids []string
	for i := 0; i < n; i++ {
		ids = append(ids, start(t, rt, "Par", map[string]ocr.Value{"xs": sixXs()}))
	}
	rt.RunUntil(sim.Time(500 * time.Millisecond))

	// Poison the middle instance's root scope-create record.
	bad := ids[2]
	if err := st.Put(store.Instance, "scopec/"+bad+"/-", []byte("{torn")); err != nil {
		t.Fatal(err)
	}
	rt.Engine.Crash()
	onErrCalls.Store(0)
	recovered, err := rt.Engine.Recover()
	if err == nil {
		t.Fatal("poisoned instance recovered silently")
	}
	if !strings.Contains(err.Error(), bad) {
		t.Fatalf("error does not name the poisoned instance %s: %v", bad, err)
	}
	if recovered != n-1 {
		t.Fatalf("recovered = %d, want %d", recovered, n-1)
	}
	if onErrCalls.Load() == 0 {
		t.Fatal("OnError was not invoked for the poisoned instance")
	}
	if _, ok := rt.Engine.Instance(bad); ok {
		t.Fatal("poisoned instance present in the registry")
	}
	// The survivors finish with correct results.
	rt.Run()
	for i, id := range ids {
		if i == 2 {
			continue
		}
		in := finished(t, rt, id)
		for j := 0; j < 6; j++ {
			if got := in.Outputs["doubled"].At(j).AsNum(); got != float64(2*(j+1)) {
				t.Fatalf("instance %s doubled[%d] = %v", id, j, got)
			}
		}
	}
}

// TestLazyRecoverSuspendedDeferred: a suspended instance comes back as a
// meta-only stub, and Resume hydrates it into exactly the state a stub
// hydrated at once, the moment it is recovered, builds; then it runs to the
// correct result.
func TestLazyRecoverSuspendedDeferred(t *testing.T) {
	st := store.NewMem()
	rtA := newRuntime(t, SimConfig{Store: st})
	register(t, rtA, parallelSrc)
	id := start(t, rtA, "Par", map[string]ocr.Value{"xs": sixXs()})
	quiesceSuspended(t, rtA, id, sim.Time(1500*time.Millisecond))
	rtA.Engine.Crash()

	rtB := newRuntime(t, SimConfig{Store: st})
	register(t, rtB, parallelSrc)
	if n, err := rtB.Engine.Recover(); err != nil || n != 1 {
		t.Fatalf("recover = %d, %v", n, err)
	}
	if h, err := rtB.Engine.Hydrated(id); err != nil || h {
		t.Fatalf("Hydrated = %v, %v; want a dormant stub", h, err)
	}
	inB, ok := rtB.Engine.Instance(id)
	if !ok {
		t.Fatal("stub missing from the registry")
	}
	if inB.statusNow() != InstanceSuspended {
		t.Fatalf("stub status = %s, want Suspended", inB.statusNow())
	}

	// The reference: the same records, hydrated as soon as they recover.
	rtC := newRuntime(t, SimConfig{Store: st})
	register(t, rtC, parallelSrc)
	if n, err := rtC.Engine.Recover(); err != nil || n != 1 {
		t.Fatalf("reference recover = %d, %v", n, err)
	}
	if err := hydrateNow(rtC.Engine, id); err != nil {
		t.Fatal(err)
	}
	if inC, _ := rtC.Engine.Instance(id); inC.statusNow() != InstanceSuspended {
		t.Fatalf("hydration changed status to %s", inC.statusNow())
	}
	for _, e := range []*Engine{rtB.Engine, rtC.Engine} {
		if err := e.Resume(id); err != nil {
			t.Fatal(err)
		}
	}
	if h, _ := rtB.Engine.Hydrated(id); !h {
		t.Fatal("Resume did not hydrate the stub")
	}
	inC, _ := rtC.Engine.Instance(id)
	if dumpB, dumpC := dumpInstance(t, inB), dumpInstance(t, inC); dumpB != dumpC {
		t.Fatalf("hydration by Resume diverged from hydration at recovery:\n--- by Resume ---\n%s\n--- at recovery ---\n%s", dumpB, dumpC)
	}
	rtB.Run()
	in := finished(t, rtB, id)
	for i := 0; i < 6; i++ {
		if got := in.Outputs["doubled"].At(i).AsNum(); got != float64(2*(i+1)) {
			t.Fatalf("doubled[%d] = %v", i, got)
		}
	}
}

// TestLazyRecoverActiveInstanceEager: recovery defers only dormant
// (suspended) instances. A Running instance interrupted mid-flight is
// rebuilt fully during Recover and finishes without any extra touch.
func TestLazyRecoverActiveInstanceEager(t *testing.T) {
	st := store.NewMem()
	rtA := newRuntime(t, SimConfig{Store: st})
	register(t, rtA, parallelSrc)
	var xs []ocr.Value
	for i := 0; i < 12; i++ {
		xs = append(xs, ocr.Num(float64(i)))
	}
	id := start(t, rtA, "Par", map[string]ocr.Value{"xs": ocr.List(xs...)})
	rtA.RunUntil(sim.Time(1300 * time.Millisecond))
	rtA.Engine.Crash()

	rtB := newRuntime(t, SimConfig{Store: st})
	register(t, rtB, parallelSrc)
	if n, err := rtB.Engine.Recover(); err != nil || n != 1 {
		t.Fatalf("recover = %d, %v", n, err)
	}
	if h, err := rtB.Engine.Hydrated(id); err != nil || !h {
		t.Fatalf("Hydrated = %v, %v; a Running instance must recover eagerly", h, err)
	}
	rtB.Run()
	in := finished(t, rtB, id)
	for i := 0; i < 12; i++ {
		if got := in.Outputs["doubled"].At(i).AsNum(); got != float64(2*i) {
			t.Fatalf("doubled[%d] = %v", i, got)
		}
	}
}

// corruptSuspendedTask suspends a Par instance, crashes its server and
// rewrites the instance's first task record with what corrupt makes of it.
// It returns the store, the instance and the record's key.
func corruptSuspendedTask(t *testing.T, corrupt func([]byte) []byte) (*store.Mem, string, string) {
	t.Helper()
	st := store.NewMem()
	rtA := newRuntime(t, SimConfig{Store: st})
	register(t, rtA, parallelSrc)
	id := start(t, rtA, "Par", map[string]ocr.Value{"xs": sixXs()})
	quiesceSuspended(t, rtA, id, sim.Time(1500*time.Millisecond))
	rtA.Engine.Crash()

	kvs, err := st.List(store.Instance)
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range kvs {
		if strings.HasPrefix(kv.Key, "task/"+id+"/") {
			if err := st.Put(store.Instance, kv.Key, corrupt(kv.Value)); err != nil {
				t.Fatal(err)
			}
			return st, id, kv.Key
		}
	}
	t.Fatal("no task record to corrupt")
	return nil, "", ""
}

// TestRecoverRefusesStubHeader: a suspended instance's record that is not a
// codec record of its key's kind — torn at its first bytes here — is refused
// at Recover, as the rebuild of a running instance refuses it: the instance
// fails with an error naming the record, and no stub is registered.
func TestRecoverRefusesStubHeader(t *testing.T) {
	st, id, key := corruptSuspendedTask(t, func([]byte) []byte { return []byte("{torn") })
	rt := newRuntime(t, SimConfig{Store: st})
	register(t, rt, parallelSrc)
	n, err := rt.Engine.Recover()
	if n != 0 || !errors.Is(err, codec.ErrCorrupt) || !strings.Contains(err.Error(), key) {
		t.Fatalf("recover = %d, %v; want the refusal of %s", n, err, key)
	}
	if _, ok := rt.Engine.Instance(id); ok {
		t.Fatal("refused instance present in the registry")
	}
}

// TestLazyRecoverCorruptStubSurfacesOnResume: a record with a good header
// and a bad body waits for hydration. It fails the first touch with a
// hydration error and leaves the stub intact, so the failure is stable, not
// state-corrupting.
func TestLazyRecoverCorruptStubSurfacesOnResume(t *testing.T) {
	st, id, _ := corruptSuspendedTask(t, func(rec []byte) []byte { return rec[:len(rec)-1] })
	rtB := newRuntime(t, SimConfig{Store: st})
	register(t, rtB, parallelSrc)
	if n, err := rtB.Engine.Recover(); err != nil || n != 1 {
		t.Fatalf("recover = %d, %v; a body is decoded at hydration", n, err)
	}
	for attempt := 0; attempt < 2; attempt++ {
		err := rtB.Engine.Resume(id)
		if err == nil || !strings.Contains(err.Error(), "hydrating") {
			t.Fatalf("Resume attempt %d = %v, want hydration error", attempt, err)
		}
		if h, _ := rtB.Engine.Hydrated(id); h {
			t.Fatalf("attempt %d: stub discarded despite failed hydration", attempt)
		}
	}
	in, ok := rtB.Engine.Instance(id)
	if !ok || in.statusNow() != InstanceSuspended {
		t.Fatalf("instance after failed hydration: ok=%v status=%v", ok, in.statusNow())
	}
}

// TestRecoverRefusesPreCodecJSON: the codec is the only record format. A
// well-formed JSON record — what an engine from before the codec wrote — is
// refused, not converted: its instance fails with one error naming the key
// and the reason, and the other instances recover.
func TestRecoverRefusesPreCodecJSON(t *testing.T) {
	st := store.NewMem()
	rtA := newRuntime(t, SimConfig{Store: st})
	register(t, rtA, parallelSrc)
	var ids []string
	for i := 0; i < 3; i++ {
		id := start(t, rtA, "Par", map[string]ocr.Value{"xs": sixXs()})
		ids = append(ids, id)
	}
	rtA.RunUntil(sim.Time(500 * time.Millisecond))
	for _, id := range ids {
		if err := rtA.Engine.Suspend(id, false); err != nil {
			t.Fatal(err)
		}
	}
	rtA.RunUntil(sim.Time(2500 * time.Millisecond))
	rtA.Engine.Crash()

	bad := ids[1]
	badKey := taskKey(bad, "", "Fan")
	if _, ok, _ := st.Get(store.Instance, badKey); !ok {
		t.Fatalf("no record under %s to overwrite", badKey)
	}
	if err := st.Put(store.Instance, badKey, []byte(`{"name":"x"}`)); err != nil {
		t.Fatal(err)
	}
	refused := func(err error) bool {
		return err != nil && errors.Is(err, codec.ErrCorrupt) &&
			strings.Contains(err.Error(), badKey) && strings.Contains(err.Error(), "pre-codec JSON")
	}

	var reported []error
	rtB := newRuntime(t, SimConfig{Store: st, Options: Options{
		OnError: func(err error) { reported = append(reported, err) },
	}})
	register(t, rtB, parallelSrc)
	n, err := rtB.Engine.Recover()
	if n != len(ids)-1 || !refused(err) {
		t.Fatalf("eager recover = %d, %v; want %d recovered and a refusal naming %s", n, err, len(ids)-1, badKey)
	}
	if len(reported) != 1 || !refused(reported[0]) {
		t.Fatalf("OnError saw %v; want exactly the one refusal", reported)
	}
	if _, ok := rtB.Engine.Instance(bad); ok {
		t.Fatal("refused instance present in the registry")
	}
}

// TestRestartBuildsOnlyWhatRuns: a restart builds the instances that run and
// leaves every suspended one a stub with nothing in the scheduler. Running to
// idle hydrates none of them; a Resume hydrates its own instance, once, and
// that instance finishes.
func TestRestartBuildsOnlyWhatRuns(t *testing.T) {
	st, ids := crashedChains(t, 12, func(i int) bool { return i%3 == 0 })
	hydrations := map[string]int{}
	rt := newRuntime(t, SimConfig{Store: st, Spec: wideSpec(), Options: Options{
		OnEvent: func(ev Event) {
			if ev.Kind == EvServerRecovered && ev.Detail == "hydrated" {
				hydrations[ev.Instance]++
			}
		},
	}})
	register(t, rt, chain8Src)
	e := rt.Engine
	if n, err := e.Recover(); err != nil || n != len(ids) {
		t.Fatalf("recover = %d, %v", n, err)
	}
	jobs := func(id string) int {
		e.dmu.Lock()
		defer e.dmu.Unlock()
		n := 0
		for _, ref := range e.queued {
			if ref.inst.ID == id {
				n++
			}
		}
		for _, ref := range e.running {
			if ref.inst.ID == id {
				n++
			}
		}
		return n
	}
	var suspended []string
	for i, id := range ids {
		h, err := e.Hydrated(id)
		if err != nil {
			t.Fatal(err)
		}
		switch running := i%3 == 0; {
		case running && !h:
			t.Fatalf("running instance %s is a stub", id)
		case !running && (h || jobs(id) != 0):
			t.Fatalf("suspended instance %s: hydrated %v with %d jobs, want a stub with none", id, h, jobs(id))
		case !running:
			suspended = append(suspended, id)
		}
	}
	rt.Run()
	requireClean(t, "idle", e.Check())
	if len(hydrations) != 0 {
		t.Fatalf("running to idle hydrated %v", hydrations)
	}
	for i, id := range ids {
		if i%3 == 0 {
			finished(t, rt, id)
		}
	}
	resumed := suspended[0]
	if err := e.Resume(resumed); err != nil {
		t.Fatal(err)
	}
	rt.Run()
	requireClean(t, "resumed", e.Check())
	finished(t, rt, resumed)
	if len(hydrations) != 1 || hydrations[resumed] != 1 {
		t.Fatalf("hydrations %v, want %s's one", hydrations, resumed)
	}
}

// TestStubProgressMatchesHydrated: the monitor reads a stub's progress from
// its records without a turn, a write or a hydration, and its row is the row
// of the same instance hydrated — but for Queued, which counts the
// scheduler's jobs: a stub's task enters the queue when it hydrates.
func TestStubProgressMatchesHydrated(t *testing.T) {
	st := store.NewMem()
	rtA := newRuntime(t, SimConfig{Store: st})
	register(t, rtA, chain8Src)
	id := start(t, rtA, "Chain8", map[string]ocr.Value{"x": ocr.Num(1)})
	quiesceSuspended(t, rtA, id, sim.Time(2500*time.Millisecond))
	rtA.Engine.Crash()

	rc := newRecordCounter(st)
	rt := newRuntime(t, SimConfig{Store: rc})
	register(t, rt, chain8Src)
	if n, err := rt.Engine.Recover(); err != nil || n != 1 {
		t.Fatalf("recover = %d, %v", n, err)
	}
	mon := NewMonitorSource(rt.Engine)
	row := func() obs.InstanceSummary {
		rows := mon.Instances()
		if len(rows) != 1 {
			t.Fatalf("%d monitor rows, want 1", len(rows))
		}
		return rows[0]
	}
	batches := rc.batches
	stub := row()
	if h, _ := rt.Engine.Hydrated(id); h || rc.batches != batches {
		t.Fatalf("the monitor's look hydrated %v, committed %d batches", h, rc.batches-batches)
	}
	if stub.Progress <= 0 || stub.Progress >= 1 {
		t.Fatalf("stub progress %v, want the steps its records show done", stub.Progress)
	}
	if err := hydrateNow(rt.Engine, id); err != nil {
		t.Fatal(err)
	}
	built := row()
	if stub.Queued != 0 || built.Queued != 1 {
		t.Fatalf("queued %d as a stub and %d hydrated, want 0 and 1", stub.Queued, built.Queued)
	}
	stub.Queued = built.Queued
	if !reflect.DeepEqual(stub, built) {
		t.Fatalf("stub row %+v, hydrated row %+v", stub, built)
	}
}
