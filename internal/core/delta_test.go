package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"bioopera/internal/ocr"
	"bioopera/internal/sim"
	"bioopera/internal/store"
)

// These tests cover the incremental-checkpoint layout: torn mid-delta
// batches, checkpoint failure re-marking, and allocation guards on the
// persist hot path.

// scopeDump is dumpInstance's view of one scope: everything recovery must
// reproduce, including the derived task fields it recomputes.
type scopeDump struct {
	ID         string
	Parent     string
	ParentTask string
	ElemIndex  int
	ProcText   string
	Whiteboard map[string]ocr.Value
	Tasks      []taskState
	Done       bool
}

// dumpInstance renders an instance's observable state as canonical JSON:
// metadata, then each scope (sorted by ID) with its whiteboard and tasks in
// Proc order, including the derived fields recovery recomputes. Two
// recoveries of the same execution state must dump byte-identically.
func dumpInstance(t *testing.T, in *Instance) string {
	t.Helper()
	var scopes []scopeDump
	for _, sc := range in.scopes {
		d := scopeDump{
			ID:         sc.ID,
			ParentTask: sc.ParentTask,
			ElemIndex:  sc.ElemIndex,
			ProcText:   string(sc.Proc.bytes),
			Whiteboard: sc.view(),
			Done:       sc.Done,
		}
		if sc.Parent != nil {
			d.Parent = sc.Parent.ID
		}
		d.Tasks = append(d.Tasks, sc.tasks...) // ConnIn is not rendered
		scopes = append(scopes, d)
	}
	sort.Slice(scopes, func(i, j int) bool { return scopes[i].ID < scopes[j].ID })
	out, err := json.MarshalIndent(struct {
		Meta   InstanceMeta
		Scopes []scopeDump
	}{in.InstanceMeta, scopes}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// quiesceSuspended runs a mid-flight parallel instance into a stable
// suspended state: kills delivered, every task Ready or terminal, nothing
// on the cluster.
func quiesceSuspended(t *testing.T, rt *SimRuntime, id string, at sim.Time) {
	t.Helper()
	rt.RunUntil(at)
	if err := rt.Engine.Suspend(id, false); err != nil {
		t.Fatal(err)
	}
	rt.RunUntil(at + sim.Time(time.Second)) // drain kill completions
	if rt.Engine.RunningJobs() != 0 {
		t.Fatal("jobs still running after suspend drain")
	}
}

// tearWALTail truncates the newest WAL segment mid-frame, inside the last
// batch: the cut lands in the middle of the final frame's data, simulating
// a crash between marshal and full commit of a delta batch.
func tearWALTail(t *testing.T, dir string) {
	t.Helper()
	walDir := filepath.Join(dir, "wal")
	entries, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".log") {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) == 0 {
		t.Fatal("no WAL segments")
	}
	sort.Strings(segs)
	tail := filepath.Join(walDir, segs[len(segs)-1])
	data, err := os.ReadFile(tail)
	if err != nil {
		t.Fatal(err)
	}
	// Walk the frames (uint32 len|batchFlag, uint32 crc, data) to find
	// where the last frame's data begins, then cut into it.
	const batchFlag = 1 << 31
	var off, lastData int64
	for off+8 <= int64(len(data)) {
		length := int64(binary.LittleEndian.Uint32(data[off:off+4]) &^ batchFlag)
		if off+8+length > int64(len(data)) {
			break
		}
		lastData = off + 8
		off += 8 + length
	}
	if lastData == 0 {
		t.Fatal("no complete frame to tear")
	}
	cut := lastData + (off-lastData)/2
	if cut <= lastData {
		cut = lastData + 1
	}
	if err := os.Truncate(tail, cut); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverTornDeltaBatch(t *testing.T) {
	// A crash mid-checkpoint-batch must roll the store back to the
	// previous complete checkpoint, from which recovery resumes cleanly.
	dir := t.TempDir()
	st, err := store.OpenDisk(dir, store.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rt := newRuntime(t, SimConfig{Store: st})
	register(t, rt, parallelSrc)
	xs := ocr.List(ocr.Num(1), ocr.Num(2), ocr.Num(3), ocr.Num(4))
	id := start(t, rt, "Par", map[string]ocr.Value{"xs": xs})
	rt.RunUntil(sim.Time(1500 * time.Millisecond))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	tearWALTail(t, dir)

	st2, err := store.OpenDisk(dir, store.DiskOptions{})
	if err != nil {
		t.Fatalf("reopening torn store: %v", err)
	}
	defer st2.Close()
	rt2 := newRuntime(t, SimConfig{Store: st2})
	if n, err := rt2.Engine.Recover(); err != nil || n != 1 {
		t.Fatalf("recover after torn batch = %d, %v", n, err)
	}
	rt2.Run()
	in := finished(t, rt2, id)
	for i := 0; i < 4; i++ {
		if got := in.Outputs["doubled"].At(i).AsNum(); got != float64(2*(i+1)) {
			t.Fatalf("doubled[%d] = %v", i, got)
		}
	}
}

// toggleStore fails Batch while tripped, then recovers when untripped —
// unlike failingStore it can be disarmed, so tests can provoke a failure
// window and verify the next successful checkpoint repairs it.
type toggleStore struct {
	store.Store
	mu      sync.Mutex
	tripped bool
	fails   int
}

func (f *toggleStore) set(tripped bool) {
	f.mu.Lock()
	f.tripped = tripped
	f.mu.Unlock()
}

func (f *toggleStore) Batch(ops []store.Op) error {
	f.mu.Lock()
	tripped := f.tripped
	if tripped {
		f.fails++
	}
	f.mu.Unlock()
	if tripped {
		return fmt.Errorf("store full")
	}
	return f.Store.Batch(ops)
}

func TestPersistRemarkAfterBatchFailure(t *testing.T) {
	// Checkpoints that fail re-mark their records; the next successful
	// checkpoint must carry them. Fail every batch while Compute finishes,
	// then let one unrelated SetParameter checkpoint through and verify a
	// crash+recover restores the full state, Compute's completion included.
	fs := &toggleStore{Store: store.NewMem()}
	rt := newRuntime(t, SimConfig{Store: fs})
	register(t, rt, approvalSrc)
	id := start(t, rt, "Approval", map[string]ocr.Value{"x": ocr.Num(21)})
	fs.set(true)
	rt.RunUntil(sim.Time(5 * time.Second)) // Compute done, Review awaiting
	if aw := rt.Engine.Awaiting(id); len(aw) != 1 {
		t.Fatalf("awaiting = %v", aw)
	}
	fs.set(false)
	if fs.fails == 0 {
		t.Fatal("no batches failed during the window")
	}
	if err := rt.Engine.SetParameter(id, "note", ocr.Str("repair")); err != nil {
		t.Fatal(err)
	}

	before, _ := rt.Engine.Instance(id)
	dumpBefore := dumpInstance(t, before)
	rt.Engine.Crash()
	if n, err := rt.Engine.Recover(); err != nil || n != 1 {
		t.Fatalf("recover = %d, %v", n, err)
	}
	after, _ := rt.Engine.Instance(id)
	if dumpAfter := dumpInstance(t, after); dumpAfter != dumpBefore {
		t.Fatalf("state lost across failed-checkpoint window:\n--- before ---\n%s\n--- after ---\n%s", dumpBefore, dumpAfter)
	}
	if err := rt.Engine.Signal(id, "approved", map[string]ocr.Value{
		"verdict": ocr.Str("ok"), "correction": ocr.Num(0),
	}); err != nil {
		t.Fatal(err)
	}
	rt.Run()
	in := finished(t, rt, id)
	if got := in.Outputs["published"].At(0).AsNum(); got != 42 {
		t.Fatalf("published = %v", in.Outputs["published"])
	}
}

// keyLog records the key of every mutation the engine issues.
type keyLog struct {
	store.Store
	mu   sync.Mutex
	keys []string
}

func (l *keyLog) log(keys ...string) {
	l.mu.Lock()
	l.keys = append(l.keys, keys...)
	l.mu.Unlock()
}

func (l *keyLog) Put(space store.Space, key string, value []byte) error {
	l.log(key)
	return l.Store.Put(space, key, value)
}

func (l *keyLog) Delete(space store.Space, key string) error {
	l.log(key)
	return l.Store.Delete(space, key)
}

func (l *keyLog) Batch(ops []store.Op) error {
	for _, op := range ops {
		l.log(op.Key)
	}
	return l.Store.Batch(ops)
}

// TestNoWholeScopeKeyOps: the whole-scope record family is gone, so no
// mutation may name a scope/ key — archive batches and sphere compensation
// used to append one delete per scope for a key that never existed.
func TestNoWholeScopeKeyOps(t *testing.T) {
	kl := &keyLog{Store: store.NewMem()}
	rt := newRuntime(t, SimConfig{Store: kl})
	register(t, rt, parallelSrc)
	var xs []ocr.Value
	for i := 0; i < 40; i++ {
		xs = append(xs, ocr.Num(float64(i)))
	}
	id := start(t, rt, "Par", map[string]ocr.Value{"xs": ocr.List(xs...)})
	rt.Run()
	finished(t, rt, id)

	sl := newSphereLibrary(t, 1) // one sphere abort, then success
	kl2 := &keyLog{Store: store.NewMem()}
	rt2 := newRuntime(t, SimConfig{Library: sl.Library, Store: kl2})
	register(t, rt2, sphereSrc)
	id2 := start(t, rt2, "Sphere", nil)
	rt2.Run()
	finished(t, rt2, id2)

	for _, log := range []*keyLog{kl, kl2} {
		if len(log.keys) == 0 {
			t.Fatal("no store mutations logged; test is vacuous")
		}
		for _, key := range log.keys {
			if strings.HasPrefix(key, "scope/") {
				t.Fatalf("engine issued an op on whole-scope key %s", key)
			}
		}
	}
}

func TestPersistHotPathAllocs(t *testing.T) {
	// Guard the per-activity checkpoint cost: touching one task, encoding it
	// and committing must stay allocation-light (the pooled ckpt absorbs
	// the steady-state cost).
	rt := newRuntime(t, SimConfig{})
	register(t, rt, linearSrc)
	id := start(t, rt, "Linear", map[string]ocr.Value{"a": ocr.Num(1), "b": ocr.Num(2)})
	e := rt.Engine
	in, _ := e.Instance(id)
	mu := e.shardFor(id)
	sc := in.root
	ts := sc.task("Add")
	run := func() {
		mu.Lock()
		defer e.endTurn(in, mu)
		e.touchTask(in, sc, ts)
		e.persist(in)
	}
	run() // warm the pools
	allocs := testing.AllocsPerRun(200, run)
	t.Logf("persist+flush of one dirty task = %.1f allocs", allocs)
	// One task record, encoded in place by the pooled ckpt (see
	// TestCodecEncodeAllocs) and carried by the pooled write set, under the
	// store key the task built once and keeps (persist.go); the mem store
	// rewrites the record in its own slot. Nothing is left to allocate, so
	// any allocation is a regression — a snapshot layer, a per-record
	// marshal or a rebuilt key coming back.
	if allocs > 0 && !raceEnabled {
		t.Errorf("persist+flush of one dirty task = %.1f allocs, want 0", allocs)
	}
}
