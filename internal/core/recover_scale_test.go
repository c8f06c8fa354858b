package core

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bioopera/internal/codec"
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

// TestLazyRecoverSuspendedDeferred: under LazyRecovery a suspended
// instance comes back as a meta-only stub, hydrates on first touch into
// exactly the state an eager recovery builds, and then resumes to the
// correct result.
func TestLazyRecoverSuspendedDeferred(t *testing.T) {
	st := store.NewMem()
	rtA := newRuntime(t, SimConfig{Store: st})
	register(t, rtA, parallelSrc)
	id := start(t, rtA, "Par", map[string]ocr.Value{"xs": sixXs()})
	quiesceSuspended(t, rtA, id, sim.Time(1500*time.Millisecond))
	rtA.Engine.Crash()

	// Eager reference recovery, for the equivalence check below.
	rtC := newRuntime(t, SimConfig{Store: st})
	register(t, rtC, parallelSrc)
	if n, err := rtC.Engine.Recover(); err != nil || n != 1 {
		t.Fatalf("eager recover = %d, %v", n, err)
	}
	inC, _ := rtC.Engine.Instance(id)

	rtB := newRuntime(t, SimConfig{Store: st, Options: Options{LazyRecovery: true}})
	register(t, rtB, parallelSrc)
	if n, err := rtB.Engine.Recover(); err != nil || n != 1 {
		t.Fatalf("lazy recover = %d, %v", n, err)
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

	// A read-side touch (Lineage) hydrates without changing status.
	if _, err := rtB.Engine.Lineage(id); err != nil {
		t.Fatal(err)
	}
	if h, _ := rtB.Engine.Hydrated(id); !h {
		t.Fatal("Lineage did not hydrate the stub")
	}
	if inB.statusNow() != InstanceSuspended {
		t.Fatalf("hydration changed status to %s", inB.statusNow())
	}
	if dumpB, dumpC := dumpInstance(t, inB), dumpInstance(t, inC); dumpB != dumpC {
		t.Fatalf("lazy hydration diverged from eager recovery:\n--- lazy ---\n%s\n--- eager ---\n%s", dumpB, dumpC)
	}

	if err := rtB.Engine.Resume(id); err != nil {
		t.Fatal(err)
	}
	rtB.Run()
	in := finished(t, rtB, id)
	for i := 0; i < 6; i++ {
		if got := in.Outputs["doubled"].At(i).AsNum(); got != float64(2*(i+1)) {
			t.Fatalf("doubled[%d] = %v", i, got)
		}
	}
}

// TestLazyRecoverActiveInstanceEager: LazyRecovery only defers dormant
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

	rtB := newRuntime(t, SimConfig{Store: st, Options: Options{LazyRecovery: true}})
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

// TestLazyRecoverCorruptStubSurfacesOnResume: lazy recovery defers decode
// errors to hydration time. A corrupt delta record inside a stub fails the
// first touch with a hydration error, leaves the stub intact (so the
// failure is stable, not state-corrupting), and the same store fails
// immediately under eager recovery.
func TestLazyRecoverCorruptStubSurfacesOnResume(t *testing.T) {
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
	corrupted := false
	for _, kv := range kvs {
		if strings.HasPrefix(kv.Key, "task/"+id+"/") {
			if err := st.Put(store.Instance, kv.Key, []byte("{torn")); err != nil {
				t.Fatal(err)
			}
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("no task record to corrupt")
	}

	rtB := newRuntime(t, SimConfig{Store: st, Options: Options{LazyRecovery: true}})
	register(t, rtB, parallelSrc)
	if n, err := rtB.Engine.Recover(); err != nil || n != 1 {
		t.Fatalf("lazy recover = %d, %v; stub decode must be deferred", n, err)
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

	// Eager recovery of the same store hits the corruption up front.
	rtC := newRuntime(t, SimConfig{Store: st})
	register(t, rtC, parallelSrc)
	if n, err := rtC.Engine.Recover(); err == nil || n != 0 {
		t.Fatalf("eager recover = %d, %v; want immediate decode failure", n, err)
	}
}

// TestRecoverRefusesPreCodecJSON: the codec is the only record format. A
// well-formed JSON record — what an engine from before the codec wrote — is
// refused, not converted: its instance fails with one error naming the key
// and the reason, the other instances recover, and lazy recovery surfaces
// the same error on first touch.
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

	rtC := newRuntime(t, SimConfig{Store: st, Options: Options{LazyRecovery: true}})
	register(t, rtC, parallelSrc)
	if n, err := rtC.Engine.Recover(); err != nil || n != len(ids) {
		t.Fatalf("lazy recover = %d, %v; stub decode must be deferred", n, err)
	}
	if err := rtC.Engine.Resume(bad); !refused(err) {
		t.Fatalf("Resume of the refused stub = %v; want the refusal naming %s", err, badKey)
	}
	if err := rtC.Engine.Resume(ids[0]); err != nil {
		t.Fatalf("Resume of a healthy stub: %v", err)
	}
}
