package core

import (
	"slices"
	"strings"
	"testing"

	"bioopera/internal/ocr"
	"bioopera/internal/store"
)

// These tests pin what a scope's task slots cost and what they write: the
// allocations of a fan element, of a Chain8 start and of rebuilding a
// recovered Chain8 instance, and the order task records reach the store in.

// Allocation ceilings, each at the count measured when block bodies began
// reading their whiteboard through the parent's (in brackets: the slot
// layout before it, with a whiteboard map and a parent copy per element; and
// the map layout before that). One more means a per-scope or per-task
// allocation came back.
const (
	fanElementAllocs    = 30.0 // one parallel-block element, spawn to completion: measured 29.13 (32.16; 37.13)
	chain8StartAllocs   = 27.0 // one Chain8 StartProcess turn (27; 44)
	chain8RebuildAllocs = 22.0 // phase 2 of recovering one suspended Chain8 (23; 44)
	fanRebuildAllocs    = 76.0 // phase 2 of recovering one suspended Fan of 4 (85)
)

// fanInput is the list 0, 1, …, n-1.
func fanInput(n int) ocr.Value {
	xs := make([]ocr.Value, n)
	for i := range xs {
		xs[i] = ocr.Num(float64(i))
	}
	return ocr.List(xs...)
}

// TestFanElementAllocs: what one parallel-block element costs from its spawn
// to the completion its parent collects — its scope, task slot and whiteboard,
// its activity's attempt, events and records, and the store's copies — read
// as the difference between a fan of 2n elements and a fan of n.
func TestFanElementAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector; allocation budgets do not hold")
	}
	rt := newRuntime(t, SimConfig{Library: benchLibrary(t)})
	register(t, rt, benchFanSrc)
	fan := func(n int) func() {
		xs := fanInput(n)
		return func() {
			start(t, rt, "Fan", map[string]ocr.Value{"xs": xs})
			rt.Run()
		}
	}
	const n = 100
	fan(2 * n)() // warm the pools and the engine's maps
	perElem := (testing.AllocsPerRun(5, fan(2*n)) - testing.AllocsPerRun(5, fan(n))) / n
	t.Logf("one fan element = %.2f allocs", perElem)
	if perElem > fanElementAllocs {
		t.Errorf("one fan element = %.2f allocs, want <= %.0f", perElem, fanElementAllocs)
	}
}

// TestChain8StartAllocs: one StartProcess of Chain8 on a full cluster — the
// instance, its root scope with eight task slots and one ConnIn array, S1's
// activation and the start's records and events.
func TestChain8StartAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector; allocation budgets do not hold")
	}
	rt := newRuntime(t, SimConfig{Library: benchLibrary(t)})
	register(t, rt, benchChain8Src)
	inputs := map[string]ocr.Value{"x": ocr.Num(1)}
	run := func() { start(t, rt, "Chain8", inputs) }
	for i := 0; i < 20; i++ {
		run() // fill the cluster's slots: later starts only queue
	}
	allocs := testing.AllocsPerRun(200, run)
	t.Logf("Chain8 start = %.2f allocs", allocs)
	if allocs > chain8StartAllocs {
		t.Errorf("Chain8 start = %.2f allocs, want <= %.0f", allocs, chain8StartAllocs)
	}
}

// TestChain8RebuildAllocs: recovering one suspended Chain8 whose seven later
// steps never activated — its stub, then the rebuild hydration makes of it.
// A task with no record keeps its zero slot and costs nothing.
func TestChain8RebuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector; allocation budgets do not hold")
	}
	st := store.NewMem()
	rt := newRuntime(t, SimConfig{Store: st, Library: benchLibrary(t)})
	register(t, rt, benchChain8Src)
	id := start(t, rt, "Chain8", map[string]ocr.Value{"x": ocr.Num(1)})
	if err := rt.Engine.Suspend(id, false); err != nil {
		t.Fatal(err)
	}
	rt.Run()
	rt.Engine.Crash()
	g := suspendedGroup(t, st, id)
	rebuild := func() {
		in := rebuildStub(t, rt.Engine, g)
		if got := in.root.task("S1").Status; got != TaskReady {
			t.Fatalf("S1 rebuilt %s, want ready", got)
		}
	}
	rebuild()
	allocs := testing.AllocsPerRun(100, rebuild)
	t.Logf("rebuilding one suspended Chain8 = %.2f allocs", allocs)
	if allocs > chain8RebuildAllocs {
		t.Errorf("rebuilding one suspended Chain8 = %.2f allocs, want <= %.0f", allocs, chain8RebuildAllocs)
	}
}

// TestFanRebuildAllocs: recovering one suspended Fan of four elements whose
// activities wait in the queue — its stub, then hydration's rebuild. An element scope reads its
// whiteboard through the root's, so it is rebuilt from what it owns: no map
// of its own and no copy of the parent's.
func TestFanRebuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector; allocation budgets do not hold")
	}
	st := store.NewMem()
	rt := newRuntime(t, SimConfig{Store: st, Library: benchLibrary(t)})
	register(t, rt, benchFanSrc)
	id := start(t, rt, "Fan", map[string]ocr.Value{"xs": fanInput(4)})
	if err := rt.Engine.Suspend(id, false); err != nil {
		t.Fatal(err)
	}
	rt.Run()
	rt.Engine.Crash()
	g := suspendedGroup(t, st, id)
	rebuild := func() {
		in := rebuildStub(t, rt.Engine, g)
		if len(in.scopes) != 5 || in.scopes["F[3]"].task("A").Status != TaskReady {
			t.Fatalf("rebuilt %d scopes, F[3]'s A %v; want the root and four elements, A ready", len(in.scopes), in.scopes["F[3]"])
		}
	}
	rebuild()
	allocs := testing.AllocsPerRun(100, rebuild)
	t.Logf("rebuilding one suspended Fan of 4 = %.2f allocs", allocs)
	if allocs > fanRebuildAllocs {
		t.Errorf("rebuilding one suspended Fan of 4 = %.2f allocs, want <= %.0f", allocs, fanRebuildAllocs)
	}
}

// rebuildStub recovers a suspended instance's group as a stub and builds its
// scope tree as hydration does.
func rebuildStub(t *testing.T, e *Engine, g *instGroup) *Instance {
	t.Helper()
	in, err := e.buildRecovered(g)
	if err == nil {
		err = e.buildStub(in)
	}
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// suspendedGroup reads the records of instance id, which must be suspended,
// from the instance space as phase 1 of recovery groups them.
func suspendedGroup(t *testing.T, st store.Store, id string) *instGroup {
	t.Helper()
	kvs, err := st.List(store.Instance)
	if err != nil {
		t.Fatal(err)
	}
	g := &instGroup{id: id}
	for _, kv := range kvs {
		if !strings.HasPrefix(kv.Key, "inst/") {
			g.kvs = append(g.kvs, kv)
			continue
		}
		if g.meta, err = DecodeInstanceMeta(kv.Value); err != nil {
			t.Fatal(err)
		}
	}
	if g.meta.Status != InstanceSuspended {
		t.Fatalf("instance %s is %s, want suspended", id, g.meta.Status)
	}
	return g
}

// TestTaskRecordOrder: a delta checkpoint writes a scope's dirty task records
// in name order and an archive writes all of them in declaration order, as
// they always were — whatever order the tasks were touched in.
func TestTaskRecordOrder(t *testing.T) {
	const src = `
PROCESS ZAM {
  OUTPUT r;
  ACTIVITY Z { CALL test.constant(); OUT out; MAP out -> r; }
  ACTIVITY A { CALL test.constant(); OUT out; }
  ACTIVITY M { CALL test.constant(); OUT out; }
}`
	bl := &batchLog{Store: store.NewMem()}
	rt := newRuntime(t, SimConfig{Store: bl})
	register(t, rt, src)
	id := start(t, rt, "ZAM", nil)
	e := rt.Engine
	in, _ := e.Instance(id)
	sc := in.root
	mu := e.shardFor(id)
	mu.Lock()
	delta := len(bl.batches)
	for _, name := range []string{"M", "Z", "A"} {
		e.touchTask(in, sc, sc.task(name))
	}
	e.persist(in)
	e.endTurn(in, mu)
	rt.Run()
	finished(t, rt, id)

	// tasks lists the task records a batch puts into space, by task name.
	tasks := func(ops []store.Op, space store.Space) []string {
		var names []string
		for _, op := range ops {
			if name, ok := strings.CutPrefix(op.Key, "task/"+id+"/-/"); ok && op.Space == space && !op.Delete {
				names = append(names, name)
			}
		}
		return names
	}
	if got, want := tasks(bl.batches[delta], store.Instance), []string{"A", "M", "Z"}; !slices.Equal(got, want) {
		t.Errorf("delta checkpoint writes task records %v, want name order %v", got, want)
	}
	archive := bl.batches[len(bl.batches)-1]
	if got, want := tasks(archive, store.History), []string{"Z", "A", "M"}; !slices.Equal(got, want) {
		t.Errorf("archive writes task records %v, want declaration order %v", got, want)
	}
}
