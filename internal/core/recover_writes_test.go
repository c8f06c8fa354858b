package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"bioopera/internal/cluster"
	"bioopera/internal/ocr"
	"bioopera/internal/sim"
	"bioopera/internal/store"
)

// These tests cover what Recover writes: only what recovery changed, at most
// one checkpoint per recovered instance, committed recoverGroup instances to
// a store batch.

// wideSpec starts every test instance's first step at once.
func wideSpec() cluster.Spec {
	return cluster.Spec{Name: "wide", Nodes: []cluster.NodeSpec{{Name: "n1", CPUs: 512, Speed: 1, OS: "linux"}}}
}

// crashedChains starts n Chain8 instances and crashes the engine with each
// either running its first step (running(i)) or suspended with that step
// still queued. The store is what a restart recovers; the IDs come back in
// recovery (sorted) order.
func crashedChains(t *testing.T, n int, running func(i int) bool) (*store.Mem, []string) {
	t.Helper()
	st := store.NewMem()
	rt := newRuntime(t, SimConfig{Store: st, Spec: wideSpec()})
	register(t, rt, chain8Src)
	rt.Engine.PauseAll()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = start(t, rt, "Chain8", map[string]ocr.Value{"x": ocr.Num(float64(i))})
		if !running(i) {
			if err := rt.Engine.Suspend(ids[i], true); err != nil {
				t.Fatal(err)
			}
		}
	}
	rt.Engine.ResumeAll() // dispatches the running ones' first steps
	for i, id := range ids {
		want := TaskReady
		if running(i) {
			want = TaskRunning
		}
		if got := taskStatusInStore(t, st, id, "S1"); got != want {
			t.Fatalf("%s: S1 is %s at the crash, want %s", id, got, want)
		}
	}
	rt.Engine.Crash()
	return st, ids
}

func never(int) bool  { return false }
func always(int) bool { return true }

// recordCounter counts what the engine commits through Batch: the calls,
// the instance-space ops of each instance, its checkpoints (one inst/ put
// each) and the journal records in commit order.
type recordCounter struct {
	store.Store
	mu      sync.Mutex
	batches int
	ops     map[string]int
	ckpts   map[string]int
	events  []Event
}

func newRecordCounter(st store.Store) *recordCounter {
	return &recordCounter{Store: st, ops: make(map[string]int), ckpts: make(map[string]int)}
}

func (c *recordCounter) Batch(ops []store.Op) error {
	c.mu.Lock()
	c.batches++
	for _, op := range ops {
		if op.IsEvent() {
			var ev Event
			if err := json.Unmarshal(op.Value, &ev); err != nil {
				panic(err)
			}
			c.events = append(c.events, ev)
			continue
		}
		family, rest, _ := strings.Cut(op.Key, "/")
		id, _, _ := strings.Cut(rest, "/")
		c.ops[id]++
		if family == "inst" {
			c.ckpts[id]++
		}
	}
	c.mu.Unlock()
	return c.Store.Batch(ops)
}

// recovered returns the instances of the server-recovered events committed,
// in commit order.
func (c *recordCounter) recovered() []string {
	var ids []string
	for _, ev := range c.events {
		if ev.Kind == EvServerRecovered {
			ids = append(ids, ev.Instance)
		}
	}
	return ids
}

// spacesDigest hashes every record of every space — the store's state, the
// journal left out.
func spacesDigest(t *testing.T, st store.Store) string {
	t.Helper()
	h := sha256.New()
	for sp := store.Template; sp <= store.History; sp++ {
		kvs, err := st.List(sp)
		if err != nil {
			t.Fatal(err)
		}
		for _, kv := range kvs {
			fmt.Fprintf(h, "%s %q %x\n", sp, kv.Key, kv.Value)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func taskStatusInStore(t *testing.T, st store.Store, id, task string) TaskStatus {
	t.Helper()
	v, ok, err := st.Get(store.Instance, taskKey(id, "", task))
	if err != nil || !ok {
		t.Fatalf("task record %s/%s: ok=%v err=%v", id, task, ok, err)
	}
	var ts taskState
	if err := decodeTaskRecord(v, &ts); err != nil {
		t.Fatal(err)
	}
	return ts.Status
}

// TestRecoverSuspendedWritesNothing: a suspended instance whose first step
// was still queued comes back exactly as it was — its ready task keeps the
// job ID its record names — so recovering a store of them commits no
// instance-space op at all, one journal record per instance in sorted order,
// in one batch per group. Crashing and recovering again leaves every space
// byte-identical.
func TestRecoverSuspendedWritesNothing(t *testing.T) {
	st, ids := crashedChains(t, 40, never)
	before := spacesDigest(t, st)
	for round := 1; round <= 2; round++ {
		c := newRecordCounter(st)
		rt := newRuntime(t, SimConfig{Store: c, Spec: wideSpec()})
		register(t, rt, chain8Src)
		if n, err := rt.Engine.Recover(); err != nil || n != len(ids) {
			t.Fatalf("round %d: recover = %d, %v", round, n, err)
		}
		if len(c.ops) != 0 {
			t.Errorf("round %d: recovery wrote instance-space records: %v", round, c.ops)
		}
		if len(c.events) != len(ids) || strings.Join(c.recovered(), " ") != strings.Join(ids, " ") {
			t.Errorf("round %d: journal got %d records %v, want one server-recovered per instance in sorted order", round, len(c.events), c.recovered())
		}
		if c.batches != 1 {
			t.Errorf("round %d: %d batches for %d instances, want 1", round, c.batches, len(ids))
		}
		if got := spacesDigest(t, st); got != before {
			t.Errorf("round %d: recovery changed the store's records", round)
		}
		rt.Engine.Crash()
	}
}

// TestRecoverWritesOnlyLostWork: on a store where some instances lost a
// running step in the crash, only those write records — each in one
// checkpoint, its step requeued — and the server-recovered events stay in
// sorted instance order.
func TestRecoverWritesOnlyLostWork(t *testing.T) {
	lostStep := func(i int) bool { return i%3 == 0 }
	st, ids := crashedChains(t, 30, lostStep)
	lost := make(map[string]bool)
	for i, id := range ids {
		lost[id] = lostStep(i)
	}
	c := newRecordCounter(st)
	rt := newRuntime(t, SimConfig{Store: c, Spec: wideSpec()})
	register(t, rt, chain8Src)
	rt.Engine.PauseAll() // observe the recovery commits alone
	if n, err := rt.Engine.Recover(); err != nil || n != len(ids) {
		t.Fatalf("recover = %d, %v", n, err)
	}
	for _, id := range ids {
		switch {
		case lost[id] && c.ckpts[id] != 1:
			t.Errorf("%s lost its step: %d checkpoints, want 1", id, c.ckpts[id])
		case !lost[id] && c.ops[id] != 0:
			t.Errorf("%s was unchanged: %d instance-space ops, want 0", id, c.ops[id])
		}
		if lost[id] && taskStatusInStore(t, st, id, "S1") != TaskReady {
			t.Errorf("%s: S1 not committed ready", id)
		}
	}
	if got := strings.Join(c.recovered(), " "); got != strings.Join(ids, " ") {
		t.Errorf("server-recovered order = %s, want sorted", got)
	}
}

// TestRecoverGroupFailure: the first phase-3 group's batch fails. Every
// member gets what a failed turn gets — one persist-error, its records
// re-marked, its event carried — and its next turn commits them; the next
// group commits untouched.
func TestRecoverGroupFailure(t *testing.T) {
	// Every member lost its running step, so every member has a checkpoint
	// to write; the new engine stays paused, so nothing is dispatched after.
	st, ids := crashedChains(t, recoverGroup+40, always)
	ts := &turnStore{Store: st, failAt: 1}
	log := &eventLog{}
	var onErr int
	rt := newRuntime(t, SimConfig{Store: ts, Spec: wideSpec(), Options: Options{
		OnEvent: log.add,
		OnError: func(error) { onErr++ },
	}})
	register(t, rt, chain8Src)
	rt.Engine.PauseAll()
	if n, err := rt.Engine.Recover(); err != nil || n != len(ids) {
		t.Fatalf("recover = %d, %v", n, err)
	}
	first, rest := ids[:recoverGroup], ids[recoverGroup:]
	persistErrs := make(map[string]int)
	for _, ev := range log.evs {
		if ev.Kind == EvPersistError {
			persistErrs[ev.Instance]++
		}
	}
	if onErr != len(first) || len(persistErrs) != len(first) {
		t.Fatalf("OnError fired %d times for %d instances, want one per member of the failed group (%d)", onErr, len(persistErrs), len(first))
	}
	journaled := func() map[string]int {
		n := make(map[string]int)
		_, evs := engineJournal(t, st)
		for _, ev := range evs {
			if ev.Kind == EvServerRecovered {
				n[ev.Instance]++
			}
		}
		return n
	}
	got := journaled()
	for _, id := range first {
		in, _ := rt.Engine.Instance(id)
		mu := rt.Engine.shardFor(id)
		mu.Lock()
		remarked := len(in.dirty) > 0
		mu.Unlock()
		if persistErrs[id] != 1 || !remarked || got[id] != 0 || taskStatusInStore(t, st, id, "S1") != TaskRunning {
			t.Errorf("failed member %s: %d persist-errors, re-marked %v, %d journal records, S1 %s; want 1, true, 0, running",
				id, persistErrs[id], remarked, got[id], taskStatusInStore(t, st, id, "S1"))
		}
	}
	for _, id := range rest {
		if persistErrs[id] != 0 || got[id] != 1 || taskStatusInStore(t, st, id, "S1") != TaskReady {
			t.Errorf("member %s of the next group: %d persist-errors, %d journal records, S1 %s; want 0, 1, ready",
				id, persistErrs[id], got[id], taskStatusInStore(t, st, id, "S1"))
		}
	}

	// The next turn of each failed member commits its records and carries
	// its event, once.
	for _, id := range first {
		if err := rt.Engine.SetParameter(id, "note", ocr.Num(1)); err != nil {
			t.Fatal(err)
		}
	}
	got = journaled()
	for _, id := range ids {
		if got[id] != 1 || taskStatusInStore(t, st, id, "S1") != TaskReady {
			t.Errorf("%s after its next turn: %d server-recovered records, S1 %s; want 1, ready", id, got[id], taskStatusInStore(t, st, id, "S1"))
		}
	}
}

// gateStore blocks the first Batch until released, so a test can act while
// a phase-3 group is committing.
type gateStore struct {
	store.Store
	entered, release chan struct{}
	mu               sync.Mutex
	batches          [][]Event
}

func (s *gateStore) Batch(ops []store.Op) error {
	var evs []Event
	for _, op := range ops {
		if op.IsEvent() {
			var ev Event
			if err := json.Unmarshal(op.Value, &ev); err != nil {
				return err
			}
			evs = append(evs, ev)
		}
	}
	s.mu.Lock()
	s.batches = append(s.batches, evs)
	first := len(s.batches) == 1
	s.mu.Unlock()
	if first {
		close(s.entered)
		<-s.release
	}
	return s.Store.Batch(ops)
}

func (s *gateStore) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.batches)
}

// idleExec is a cluster with no nodes: nothing is ever dispatched.
type idleExec struct{}

func (idleExec) AppendNodes(dst []cluster.NodeView) []cluster.NodeView { return dst }
func (idleExec) Launch(Launch) error                                   { return errors.New("no nodes") }
func (idleExec) Kill(cluster.JobID, string) error                      { return nil }

// TestRecoverGroupGateOrder: a Resume of a group member while the group's
// batch is still committing waits at that member's commit gate — its own
// batch follows the group's, never overtakes it.
func TestRecoverGroupGateOrder(t *testing.T) {
	st, ids := crashedChains(t, 8, never)
	gs := &gateStore{Store: st, entered: make(chan struct{}), release: make(chan struct{})}
	e, err := New(Options{Store: gs, Library: testLibrary(t), Executor: idleExec{}, Clock: ClockFunc(func() sim.Time { return 0 })})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterTemplateSource(chain8Src); err != nil {
		t.Fatal(err)
	}
	recovered := make(chan error, 1)
	go func() {
		_, err := e.Recover()
		recovered <- err
	}()
	<-gs.entered
	member := ids[3]
	in, ok := e.Instance(member)
	if !ok {
		t.Fatal("member not registered while its group commits")
	}
	resumed := make(chan error, 1)
	go func() { resumed <- e.Resume(member) }()
	// The Resume turn has ended once it holds the member's second gate
	// sequence; its batch must now be waiting behind the group's.
	for deadline := time.Now().Add(10 * time.Second); ; {
		in.gateMu.Lock()
		ended := in.ckptSeq == 2
		in.gateMu.Unlock()
		if ended {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the Resume turn never ended")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if n := gs.count(); n != 1 {
		t.Fatalf("%d batches while the group's is still committing, want 1", n)
	}
	close(gs.release)
	if err := <-recovered; err != nil {
		t.Fatal(err)
	}
	if err := <-resumed; err != nil {
		t.Fatal(err)
	}
	if len(gs.batches) != 2 {
		t.Fatalf("%d batches, want the group's and the Resume's", len(gs.batches))
	}
	if evs := gs.batches[1]; len(evs) != 1 || evs[0].Kind != EvInstanceResumed || evs[0].Instance != member {
		t.Fatalf("second batch carries %+v, want the Resume's event", evs)
	}
	if evs := gs.batches[0]; len(evs) != len(ids) {
		t.Fatalf("group batch carries %d events, want %d", len(evs), len(ids))
	}
}
