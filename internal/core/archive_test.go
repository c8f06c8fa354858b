package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"bioopera/internal/ocr"
	"bioopera/internal/store"
)

// archiveCheck is a store that checks every batch it commits for what an
// archive must not hand over: (a) a history put of the very bytes the
// instance space holds under its key — a record encoded again that could
// have moved — and (b) a move of a key the instance space does not hold.
// Each op is checked against the instance space as the batch's earlier ops
// leave it, since a batch applies in order. Batches are serialized, so the
// check reads the state its batch applies to. A batch the store refuses
// changes nothing and is not counted: after a failed batch an archive
// encodes everything, by design (ckpt.all).
type archiveCheck struct {
	store.Store
	mu          sync.Mutex
	moves, puts int // the moves and history puts of the committed batches
	violations  []string
}

func (c *archiveCheck) Batch(ops []store.Op) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	type rec struct {
		v  []byte
		ok bool
	}
	written := map[string]rec{} // instance-space keys the batch's ops so far put or removed
	held := func(key string) ([]byte, bool) {
		if r, ok := written[key]; ok {
			return r.v, r.ok
		}
		v, ok, err := c.Store.Get(store.Instance, key)
		return v, ok && err == nil
	}
	var found []string
	moves, puts := 0, 0
	for _, op := range ops {
		from, move := op.MovedFrom()
		switch {
		case op.IsEvent():
		case move:
			moves++
			if _, ok := held(op.Key); from != store.Instance || !ok {
				found = append(found, fmt.Sprintf("(b) a move of %s from the %s space, which does not hold it", op.Key, from))
			}
			written[op.Key] = rec{}
		case op.Space == store.History && !op.Delete:
			puts++
			if v, ok := held(op.Key); ok && bytes.Equal(v, op.Value) {
				found = append(found, fmt.Sprintf("(a) a history put of %s encodes again the bytes the instance space holds", op.Key))
			}
		case op.Space == store.Instance:
			written[op.Key] = rec{op.Value, !op.Delete}
		}
	}
	err := c.Store.Batch(ops)
	if err == nil {
		c.moves += moves
		c.puts += puts
		c.violations = append(c.violations, found...)
	}
	return err
}

// report fails t with the violations, or when no batch moved anything.
func (c *archiveCheck) report(t *testing.T, what string) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, v := range c.violations {
		t.Errorf("%s: %s", what, v)
	}
	if c.moves == 0 {
		t.Errorf("%s: no archive moved a record; the check is vacuous", what)
	}
	t.Logf("%s: %d moves, %d history puts", what, c.moves, c.puts)
}

// spareSrc names an alternative its activity never needs: the alternative's
// task record is never written, so the archive encodes it.
const spareSrc = `
PROCESS Spare {
  OUTPUT r;
  ACTIVITY Main { CALL test.constant(); OUT out; MAP out -> r; ON FAILURE ALTERNATIVE Backup; }
  ACTIVITY Backup { CALL test.constant(); OUT out; MAP out -> r; }
}
`

// TestArchiveMovesCleanRecords: an archive encodes again no record the
// instance space holds unchanged, and moves none it does not hold — over the
// golden workload, whose sphere aborts and retries, over an instance whose
// spare alternative never ran, and over 50 Chain8s
// finishing concurrently on a LocalRuntime, and over a restart of the crash
// laboratory, whose recovered instances finish and move what recovery read.
// Every restart of the crash enumeration runs the same check (restartLab).
func TestArchiveMovesCleanRecords(t *testing.T) {
	golden := &archiveCheck{Store: store.NewMem()}
	goldenWorkloadOn(t, golden)
	golden.report(t, "golden workload")

	spare := &archiveCheck{Store: store.NewMem()}
	srt := newRuntime(t, SimConfig{Store: spare})
	register(t, srt, spareSrc)
	id := start(t, srt, "Spare", nil)
	srt.Run()
	finished(t, srt, id)
	spare.report(t, "a spare alternative")
	if _, ok, err := spare.Get(store.History, taskKey(id, "", "Backup")); err != nil || !ok {
		t.Fatalf("the unused alternative's record is not in the history space (%v)", err)
	}

	chains := &archiveCheck{Store: store.NewMem()}
	rt, err := NewLocalRuntime(LocalConfig{Workers: 4, Library: testLibrary(t), Store: chains})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if err := rt.RegisterTemplateSource(chain8Src); err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 50)
	for i := range ids {
		if ids[i], err = rt.StartProcess("Chain8", map[string]ocr.Value{"x": ocr.Str(fmt.Sprintf("x%02d", i))}, StartOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for i, id := range ids {
		in, err := rt.Wait(id, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if in.Status != InstanceDone || in.Outputs["r"].AsStr() != fmt.Sprintf("x%02d", i) {
			t.Fatalf("instance %s is %s with r = %v", id, in.Status, in.Outputs["r"])
		}
	}
	if kvs, err := chains.List(store.Instance); err != nil || len(kvs) != 0 {
		t.Fatalf("the instance space holds %d records after every chain finished (%v)", len(kvs), err)
	}
	chains.report(t, "50 Chain8s")

	w := buildCrashWorld(t)
	fs, _ := w.image.reboot(0)
	r, err := restartLab(t, fs, w.resumed)
	if err != nil {
		t.Fatal(err)
	}
	defer r.disk.Close()
	r.archives.report(t, "a restart of the crash laboratory")
}

// TestArchiveBehindInFlightWriteSet: an instance fails while the batch of
// its previous turn — which wrote a task record for the first time — is
// still in the store. That record is not marked held yet, and the batch may
// yet fail, so the archive cannot trust the marks: it encodes every record
// and deletes every key (ckpt.all). Once both batches commit, the instance
// space holds nothing of the instance and the history space holds the
// record.
func TestArchiveBehindInFlightWriteSet(t *testing.T) {
	gates := map[string]chan struct{}{"A": make(chan struct{}), "B": make(chan struct{}), "C": make(chan struct{})}
	entered := make(chan string, 3)
	lib := NewLibrary()
	if err := lib.RegisterFunc("test.gated", func(ctx ProgramCtx, _ map[string]ocr.Value) (map[string]ocr.Value, error) {
		entered <- ctx.Task
		<-gates[ctx.Task]
		if ctx.Task == "B" {
			return nil, fmt.Errorf("B fails")
		}
		return map[string]ocr.Value{"out": ocr.Num(1)}, nil
	}); err != nil {
		t.Fatal(err)
	}
	st := &gatedStore{Store: store.NewMem(), held: make(chan struct{}, 1), gate: make(chan struct{})}
	rt, err := NewLocalRuntime(LocalConfig{Workers: 3, Library: lib, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var opened sync.Once
	open := func() { opened.Do(func() { close(st.gate); close(gates["C"]) }) }
	defer open() // before Close, which waits for the held commit
	const src = `PROCESS Race { OUTPUT r;
  ACTIVITY A { CALL test.gated(); OUT out; MAP out -> r; }
  ACTIVITY B { CALL test.gated(); OUT out; }
  ACTIVITY C { CALL test.gated(); OUT out; }
  A -> C; }`
	if err := rt.RegisterTemplateSource(src); err != nil {
		t.Fatal(err)
	}
	id, err := rt.StartProcess("Race", nil, StartOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for range 2 { // A and B run
		<-entered
	}
	// A's completion dispatches C, writing C's record for the first time;
	// the store holds that batch.
	st.hold.Store(&id)
	close(gates["A"])
	<-st.held
	// B fails the instance; its archive is cut behind the held batch.
	in, _ := rt.Engine().Instance(id)
	close(gates["B"])
	eventually(t, "the failing turn has ended", func() bool {
		in.gateMu.Lock()
		defer in.gateMu.Unlock()
		return in.ckptSeq == in.ckptDone+2
	})
	open()
	if in, err := rt.Wait(id, 10*time.Second); err != nil || in.Status != InstanceFailed {
		t.Fatalf("instance %s: %v", id, err)
	}
	kvs, err := st.List(store.Instance)
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range kvs {
		t.Errorf("the instance space still holds %s", kv.Key)
	}
	if _, ok, err := st.Get(store.History, taskKey(id, "", "C")); err != nil || !ok {
		t.Fatalf("C's record is not in the history space (%v)", err)
	}
}
