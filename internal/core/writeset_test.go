package core

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"bioopera/internal/cluster"
	"bioopera/internal/codec"
	"bioopera/internal/obs"
	"bioopera/internal/ocr"
	"bioopera/internal/sim"
	"bioopera/internal/store"
)

// chain8Src is the benchmark's eight-step chain: one activity at a time, so
// an instance's turns are the same on every runtime — one to start it, then a
// completion turn per activity, each of the first two kinds dispatching the
// step it readied.
const chain8Src = `
PROCESS Chain8 {
  INPUT x;
  OUTPUT r;
  ACTIVITY S1 { CALL test.echo(x = x);  OUT out; MAP out -> w1; }
  ACTIVITY S2 { CALL test.echo(x = w1); OUT out; MAP out -> w2; }
  ACTIVITY S3 { CALL test.echo(x = w2); OUT out; MAP out -> w3; }
  ACTIVITY S4 { CALL test.echo(x = w3); OUT out; MAP out -> w4; }
  ACTIVITY S5 { CALL test.echo(x = w4); OUT out; MAP out -> w5; }
  ACTIVITY S6 { CALL test.echo(x = w5); OUT out; MAP out -> w6; }
  ACTIVITY S7 { CALL test.echo(x = w6); OUT out; MAP out -> w7; }
  ACTIVITY S8 { CALL test.echo(x = w7); OUT out; MAP out -> r; }
  S1 -> S2; S2 -> S3; S3 -> S4; S4 -> S5; S5 -> S6; S6 -> S7; S7 -> S8;
}
`

const (
	// The turns, each one batch: the start, which dispatches S1, and the
	// completions of S1–S7, each dispatching the next step, then S8's, which
	// cuts S8's checkpoint and the archive. A turn that readies a step
	// dispatches it, so there is no dispatch turn of its own (there were 8,
	// for 17 batches).
	chain8Turns  = 1 + 8             // start, 8 completions
	chain8Events = 2 + 8 + 8 + 7 + 1 // started+ready, 8 dispatched, 8 ended, 7 more ready, done
)

// registration reports whether ops is RegisterTemplate's batch, the template
// space's name and version records. The wrappers that count or hold a turn's
// commits pass it through untouched.
func registration(ops []store.Op) bool {
	return len(ops) > 0 && !ops[0].IsEvent() && ops[0].Space == store.Template
}

// turnStore counts the engine's store calls, fails the failAt-th Batch
// (0 = none) and runs afterBatch, when set, once each Batch has returned.
type turnStore struct {
	store.Store
	failAt     int
	afterBatch func()

	mu      sync.Mutex
	batches int
	appends [][]byte // AppendEvent payloads
}

func (s *turnStore) Batch(ops []store.Op) error {
	if registration(ops) {
		return s.Store.Batch(ops)
	}
	s.mu.Lock()
	s.batches++
	fail := s.batches == s.failAt
	s.mu.Unlock()
	err := errors.New("store full")
	if !fail {
		err = s.Store.Batch(ops)
	}
	if s.afterBatch != nil {
		s.afterBatch()
	}
	return err
}

func (s *turnStore) AppendEvent(data []byte) (uint64, error) {
	s.mu.Lock()
	s.appends = append(s.appends, append([]byte(nil), data...))
	s.mu.Unlock()
	return s.Store.AppendEvent(data)
}

// eventLog is an OnEvent hook that keeps the engine's events in emit order.
type eventLog struct {
	mu  sync.Mutex
	evs []Event
}

func (l *eventLog) add(ev Event) {
	l.mu.Lock()
	l.evs = append(l.evs, ev)
	l.mu.Unlock()
}

// journalEvents returns every record of the journal, decoded, in journal
// order.
func journalEvents(t *testing.T, st store.Store) (evs []Event) {
	t.Helper()
	err := st.Events(1, func(rec store.Event) error {
		ev, err := DecodeEvent(rec.Data)
		if err != nil {
			t.Fatalf("journal record %d: %v", rec.Seq, err)
		}
		evs = append(evs, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

// isClusterRecord reports whether ev is one of the sim driver's own cluster-*
// records.
func isClusterRecord(ev Event) bool { return strings.HasPrefix(string(ev.Kind), "cluster-") }

// engineJournal returns the journal's engine events, in journal order: the
// sim driver's own cluster-* records are left out, and so are persist-error
// events, which report on the commit path instead of riding it.
func engineJournal(t *testing.T, st store.Store) (evs []Event) {
	t.Helper()
	for _, ev := range journalEvents(t, st) {
		if !isClusterRecord(ev) && ev.Kind != EvPersistError {
			evs = append(evs, ev)
		}
	}
	return evs
}

// TestOneCommitPerTurn: a navigation turn is one store call. The engine hands
// the store one Batch per turn — checkpoint and events together — and never
// commits an event of a turn on its own, nor, on the simulator, the cluster's
// job records, which ride the next turn's batch; the journal still holds
// every event, decoding to exactly what OnEvent saw, in the order raised.
func TestOneCommitPerTurn(t *testing.T) {
	check := func(t *testing.T, st *turnStore, log *eventLog) {
		t.Helper()
		if st.batches != chain8Turns {
			t.Errorf("%d Batch calls, want %d: one per turn", st.batches, chain8Turns)
		}
		if len(st.appends) != 0 {
			t.Errorf("%d AppendEvent calls, want 0: every journal record rides a turn's batch", len(st.appends))
		}
		journal := engineJournal(t, st)
		if len(journal) != chain8Events || len(log.evs) != chain8Events {
			t.Fatalf("journal holds %d engine events, OnEvent saw %d, want %d", len(journal), len(log.evs), chain8Events)
		}
		for i, ev := range log.evs {
			if journal[i] != ev {
				t.Errorf("journal record %d = %+v, want %+v", i, journal[i], ev)
			}
		}
	}

	t.Run("sim", func(t *testing.T) {
		st, log := &turnStore{Store: store.NewMem()}, &eventLog{}
		rt := newRuntime(t, SimConfig{Store: st, Options: Options{OnEvent: log.add}})
		register(t, rt, chain8Src)
		id := start(t, rt, "Chain8", map[string]ocr.Value{"x": ocr.Num(1)})
		rt.Run()
		finished(t, rt, id)
		check(t, st, log)
	})
	t.Run("local", func(t *testing.T) {
		st, log := &turnStore{Store: store.NewMem()}, &eventLog{}
		rt, err := NewLocalRuntime(LocalConfig{Workers: 2, Library: testLibrary(t), Store: st, OnEvent: log.add})
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.RegisterTemplateSource(chain8Src); err != nil {
			t.Fatal(err)
		}
		id, err := rt.StartProcess("Chain8", map[string]ocr.Value{"x": ocr.Num(1)}, StartOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Wait(id, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		rt.Close()
		check(t, st, log)
	})
}

// checkJournalMatchesRecords: the journal says a task ended exactly when the
// task's committed record does. A sphere abort discards the records of the
// sphere's scopes, so it also voids the task-ended events before it.
func checkJournalMatchesRecords(t *testing.T, st store.Store, when string) {
	t.Helper()
	journal := make(map[string]bool)
	evs := engineJournal(t, st)
	for _, ev := range evs {
		switch ev.Kind {
		case EvTaskEnded:
			journal[nzScope(ev.Scope)+"/"+ev.Task] = true
		case EvSphereAborted:
			sphere := ev.Task
			if ev.Scope != "" {
				sphere = ev.Scope + "/" + ev.Task
			}
			for key := range journal {
				scope := key[:strings.LastIndexByte(key, '/')]
				if scope == sphere || strings.HasPrefix(scope, sphere+"/") || strings.HasPrefix(scope, sphere+"[") {
					delete(journal, key)
				}
			}
		}
	}
	records := make(map[string]bool)
	for _, space := range []store.Space{store.Instance, store.History} {
		kvs, err := st.List(space)
		if err != nil {
			t.Fatal(err)
		}
		for _, kv := range kvs {
			rest, ok := strings.CutPrefix(kv.Key, "task/")
			if !ok {
				continue
			}
			var ts taskState
			if err := decodeTaskRecord(kv.Value, &ts); err != nil {
				t.Fatal(err)
			}
			if _, key, _ := splitInstKey(rest); ts.Status == TaskEnded {
				records[key] = true
			}
		}
	}
	for key := range journal {
		if !records[key] {
			t.Errorf("%s: journal says %s ended, its committed record does not", when, key)
		}
	}
	for key := range records {
		if !journal[key] {
			t.Errorf("%s: committed record of %s says ended, the journal does not", when, key)
		}
	}
}

// TestTurnAtomicity fails each Batch of a run in turn. Whichever one fails,
// the store never shows half a turn — after every Batch call, failed or not,
// journal and records agree on which tasks ended — the failure is reported
// once, and the failed turn's events reach the journal exactly once, with the
// next batch that commits and ahead of that turn's own. The records raised
// outside any turn — the cluster's job records, the persist-error — ride the
// next batch too: whichever batch fails, each reaches the journal exactly
// once, in the order raised, the ones no later batch carried when the
// runtime quiesces.
func TestTurnAtomicity(t *testing.T) {
	for _, w := range []struct {
		name, src string
		lib       func(t *testing.T) *Library
		inputs    map[string]ocr.Value
	}{
		{"Chain8", chain8Src, testLibrary, map[string]ocr.Value{"x": ocr.Num(1)}},
		// One sphere abort (Step1 undone, Tx's scope discarded), then success.
		{"Sphere", sphereSrc, func(t *testing.T) *Library { return newSphereLibrary(t, 1).Library }, nil},
	} {
		t.Run(w.name, func(t *testing.T) {
			var want []Event // the fault-free run's cluster records
			run := func(failAt int) (batches int) {
				t.Helper()
				st, log := &turnStore{Store: store.NewMem(), failAt: failAt}, &eventLog{}
				st.afterBatch = func() { checkJournalMatchesRecords(t, st, "after a Batch") }
				var onErrors int
				rt := newRuntime(t, SimConfig{Store: st, Library: w.lib(t),
					Options: Options{OnEvent: log.add, OnError: func(error) { onErrors++ }}})
				register(t, rt, w.src)
				id := start(t, rt, w.name, w.inputs)
				rt.Run()
				finished(t, rt, id)
				batches = st.batches
				rt.Engine.QuiesceCheckpoints()
				checkJournalMatchesRecords(t, st, "at the end")

				var raised []Event
				persistErrors := 0
				for _, ev := range log.evs {
					if ev.Kind == EvPersistError {
						persistErrors++
					} else {
						raised = append(raised, ev)
					}
				}
				if want := min(failAt, 1); onErrors != want || persistErrors != want {
					t.Errorf("OnError fired %d times, %d persist-error events, want %d of each", onErrors, persistErrors, want)
				}
				var cluster []Event
				journaled := 0
				for _, ev := range journalEvents(t, st) {
					switch {
					case isClusterRecord(ev):
						cluster = append(cluster, ev)
					case ev.Kind == EvPersistError:
						journaled++
					}
				}
				if journaled != persistErrors {
					t.Errorf("the journal holds %d persist-error records, %d were raised", journaled, persistErrors)
				}
				if failAt == 0 {
					if want = cluster; len(want) == 0 {
						t.Fatal("the fault-free run journaled no cluster records")
					}
				} else if !slices.Equal(cluster, want) {
					t.Errorf("cluster records in the journal:\n%v\nwant, as raised:\n%v", cluster, want)
				}
				// The journal is the events raised, in that order — short of
				// the last turn's when it is the last batch that failed and
				// no later one could carry them.
				journal := engineJournal(t, st)
				if failAt == batches {
					if len(journal) >= len(raised) || raised[len(raised)-1].Kind != EvInstanceDone {
						t.Fatalf("last batch failed, yet the journal holds %d of %d events", len(journal), len(raised))
					}
					raised = raised[:len(journal)]
				}
				if len(journal) != len(raised) {
					t.Fatalf("journal holds %d events, %d were raised", len(journal), len(raised))
				}
				for i := range raised {
					if journal[i] != raised[i] {
						t.Fatalf("journal event %d = %+v, want %+v", i, journal[i], raised[i])
					}
				}
				return batches
			}
			n := run(0)
			for k := 1; k <= n; k++ {
				if got := run(k); got != n {
					t.Fatalf("failing batch %d: %d batches, want %d", k, got, n)
				}
			}
		})
	}
}

// TestCrashCommitsDeferredRecords: S1's cluster-job-start waits for the next
// turn's batch — S1's completion — instead of committing alone. A crash
// before that turn commits it, so the journal a restart reads still holds
// it.
func TestCrashCommitsDeferredRecords(t *testing.T) {
	st := store.NewMem()
	rt := newRuntime(t, SimConfig{Store: st})
	register(t, rt, chain8Src)
	start(t, rt, "Chain8", map[string]ocr.Value{"x": ocr.Num(1)})
	rt.RunUntil(sim.Time(500 * time.Millisecond)) // S1 runs until 1 s
	starts := func() (n int) {
		for _, ev := range journalEvents(t, st) {
			if ev.Kind == clusterEventKind(cluster.EvJobStart) {
				n++
			}
		}
		return n
	}
	if n := starts(); n != 0 {
		t.Fatalf("%d job starts journaled before any turn carried them, want 0", n)
	}
	rt.Engine.Crash()
	if n := starts(); n != 1 {
		t.Fatalf("%d job starts journaled after the crash, want 1", n)
	}
}

// TestSignalOnStubFlushesHydration: a signal nobody waits for is buffered, but
// the turn that buffers it still ends like any other — on a recovered
// suspended instance's stub it has just hydrated the instance and cut checkpoints, which must
// commit, or every later quiesce (Close, Crash) waits for them forever.
func TestSignalOnStubFlushesHydration(t *testing.T) {
	st := store.NewMem()
	rtA := newRuntime(t, SimConfig{Store: st})
	register(t, rtA, parallelSrc)
	id := start(t, rtA, "Par", map[string]ocr.Value{"xs": sixXs()})
	quiesceSuspended(t, rtA, id, sim.Time(1500*time.Millisecond))
	rtA.Engine.Crash()

	rtB := newRuntime(t, SimConfig{Store: st})
	register(t, rtB, parallelSrc)
	if n, err := rtB.Engine.Recover(); err != nil || n != 1 {
		t.Fatalf("lazy recover = %d, %v", n, err)
	}
	before := engineJournal(t, st)
	if err := rtB.Engine.Signal(id, "nobody-waits", nil); err != nil {
		t.Fatal(err)
	}
	if h, _ := rtB.Engine.Hydrated(id); !h {
		t.Fatal("Signal did not hydrate the stub")
	}
	returnsWithin(t, 10*time.Second, "QuiesceCheckpoints (the hydration checkpoints were cut and never flushed)",
		rtB.Engine.QuiesceCheckpoints)
	after := engineJournal(t, st)
	var kinds []string
	for _, ev := range after[len(before):] {
		if ev.Kind == EvServerRecovered || ev.Kind == EvSignal {
			kinds = append(kinds, string(ev.Kind)+" "+ev.Detail)
		}
	}
	if want := "server-recovered hydrated,signal nobody-waits"; strings.Join(kinds, ",") != want {
		t.Fatalf("journal after the signal = %q, want %q", kinds, want)
	}
}

// returnsWithin fails the test when fn is still running after d: the way a
// stranded write set or a shard left locked shows.
func returnsWithin(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		fn()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s has not returned after %v", what, d)
	}
}

// TestRejectedCallsLeaveNoTurnState: a call the engine refuses leaves through
// the same deferred endTurn as one it accepts, and leaves nothing behind — no
// write set on the instance, no turn in the metrics, no kill or pump owed,
// nothing for a quiesce to wait on.
func TestRejectedCallsLeaveNoTurnState(t *testing.T) {
	rt := newRuntime(t, SimConfig{Options: Options{Metrics: obs.NewRegistry()}})
	register(t, rt, linearSrc)
	register(t, rt, `
PROCESS BadInit {
  INPUT x;
  OUTPUT r;
  DATA d = x[3];
  ACTIVITY A { CALL test.echo(x = d); OUT out; MAP out -> r; }
}
`)
	e := rt.Engine
	inputs := map[string]ocr.Value{"a": ocr.Num(1), "b": ocr.Num(2)}
	done := start(t, rt, "Linear", inputs)
	rt.Run()
	finished(t, rt, done)
	running := start(t, rt, "Linear", inputs)
	turns := e.metrics.turnSeconds.Count()

	startErr := func(tpl string, in map[string]ocr.Value, opts StartOptions) error {
		_, err := e.StartProcess(tpl, in, opts)
		return err
	}
	for _, c := range []struct {
		name string
		err  error
		want error // nil: any error
	}{
		{"Suspend a finished instance", e.Suspend(done, true), ErrBadState},
		{"Resume a running instance", e.Resume(running), ErrBadState},
		{"Abort a finished instance", e.Abort(done, "too late"), ErrBadState},
		{"SetParameter on a finished instance", e.SetParameter(done, "a", ocr.Num(9)), ErrBadState},
		{"Signal a finished instance", e.Signal(done, "ev", nil), ErrBadState},
		{"Start under a live ID", startErr("Linear", inputs, StartOptions{InstanceID: running}), ErrDuplicateID},
		{"Start with a failing DATA initializer", startErr("BadInit", map[string]ocr.Value{"x": ocr.Num(1)}, StartOptions{}), nil},
	} {
		if c.err == nil || (c.want != nil && !errors.Is(c.err, c.want)) {
			t.Errorf("%s: err = %v, want %v", c.name, c.err, c.want)
		}
	}
	for _, id := range []string{done, running} {
		in, _ := e.Instance(id)
		if in.writes != nil || in.turnLive || in.pendingKills != nil || in.pendingPump || in.pendingDone {
			t.Errorf("instance %s after the rejected calls: writes=%v turnLive=%v kills=%v pump=%v done=%v, want none",
				id, in.writes != nil, in.turnLive, in.pendingKills, in.pendingPump, in.pendingDone)
		}
	}
	if got := e.metrics.turnSeconds.Count(); got != turns {
		t.Errorf("rejected calls counted %d turns", got-turns)
	}
	if got := len(e.Instances()); got != 2 {
		t.Errorf("%d instances registered, want 2: a rejected start published one", got)
	}
	returnsWithin(t, 10*time.Second, "QuiesceCheckpoints", e.QuiesceCheckpoints)
}

// TestPanickingTurnCommitsNothing: a turn that panics half way leaves through
// endTurn like any other, which drops its write set, releases the shard and
// lets the panic go on. Here S1's completion turn has raised task-ended and
// cut S1's checkpoint when costing S2, the activity it goes on to queue,
// panics in the library. The store holds nothing of the half turn: no batch,
// no event, journal and records still agree, and a restart re-runs S1 from
// the last turn that did commit.
func TestPanickingTurnCommitsNothing(t *testing.T) {
	st := &turnStore{Store: store.NewMem()}
	lib := testLibrary(t)
	armed, batchesAtPanic, appendsAtPanic := true, -1, -1 // appends: lone journal records
	echo, _ := lib.Lookup("test.echo")
	if err := lib.Register(Program{Name: "test.panic", Run: echo.Run, Cost: func(map[string]ocr.Value) time.Duration {
		if armed {
			batchesAtPanic, appendsAtPanic = st.batches, len(st.appends)
			panic("program bug")
		}
		return time.Second
	}}); err != nil {
		t.Fatal(err)
	}
	const src = `
PROCESS Boom {
  INPUT x;
  OUTPUT r;
  ACTIVITY S1 { CALL test.echo(x = x);   OUT out; MAP out -> w1; }
  ACTIVITY S2 { CALL test.panic(x = w1); OUT out; MAP out -> r; }
  S1 -> S2;
}
`
	rtA := newRuntime(t, SimConfig{Store: st, Library: lib})
	register(t, rtA, src)
	id := start(t, rtA, "Boom", map[string]ocr.Value{"x": ocr.Num(7)})
	func() {
		defer func() {
			if r := recover(); r != "program bug" {
				t.Fatalf("recovered %v, want the program's panic", r)
			}
		}()
		rtA.Run()
	}()
	if st.batches != batchesAtPanic || len(st.appends) != appendsAtPanic {
		t.Fatalf("the panicking turn reached the store: %d batches (%d before it), %d lone events (%d before it)",
			st.batches, batchesAtPanic, len(st.appends), appendsAtPanic)
	}
	in, _ := rtA.Engine.Instance(id)
	if in.writes != nil || in.turnLive {
		t.Errorf("after the panic: write set attached=%v turnLive=%v", in.writes != nil, in.turnLive)
	}
	returnsWithin(t, 10*time.Second, "InstanceState (the shard)", func() { rtA.Engine.InstanceState(id) })
	returnsWithin(t, 10*time.Second, "QuiesceCheckpoints", rtA.Engine.QuiesceCheckpoints)
	checkJournalMatchesRecords(t, st, "after the panic")

	armed = false
	rtB := newRuntime(t, SimConfig{Store: st, Library: lib})
	register(t, rtB, src)
	if n, err := rtB.Engine.Recover(); err != nil || n != 1 {
		t.Fatalf("recover = %d, %v", n, err)
	}
	rtB.Run()
	if got := finished(t, rtB, id).Outputs["r"].AsNum(); got != 7 {
		t.Fatalf("r = %v after the restart, want 7", got)
	}
	checkJournalMatchesRecords(t, st, "after the restart")
}

// FuzzDecodeEvent: every event — any kind, any bytes in its strings —
// round-trips through its journal record exactly, and any byte string
// decodes to an event or to an error wrapping codec.ErrCorrupt, never a
// panic.
func FuzzDecodeEvent(f *testing.F) {
	f.Add(int64(0), "task-ended", "p0001", "", "S1", "n1", "", []byte{})
	f.Add(int64(-5), "", "", "", "", "", "", []byte(`{"at":0,"kind":"task-ended"}`))
	f.Add(int64(1<<62), "cluster-job-fail", "a<b>&c", "A/B[3]", `q"uo\te`, "tab\there", "nl\ncr\rnul\x00", []byte{0xBF, 1, 5, 0, 99})
	f.Add(int64(7), "no-such-kind", "ls\u2028", "é世界😀", "\xff\xfe", "cut \xe2\x80", "0.25", []byte{0xBF, 1, 5, 2, 0, 1, 3, 1, 1, 1})
	f.Fuzz(func(t *testing.T, at int64, kind, instance, scope, task, node, detail string, raw []byte) {
		ev := Event{At: sim.Time(at), Kind: EventKind(kind), Instance: instance, Scope: scope,
			Task: task, Node: node, Detail: detail}
		prefix := []byte("earlier record")
		rec := appendEvent(prefix, &ev)
		if !bytes.Equal(rec[:len(prefix)], prefix) {
			t.Fatalf("appendEvent overwrote the buffer's earlier bytes")
		}
		if got, err := DecodeEvent(rec[len(prefix):]); err != nil || got != ev {
			t.Fatalf("DecodeEvent(appendEvent(%+v)) = %+v, %v", ev, got, err)
		}
		if _, err := DecodeEvent(raw); err != nil && !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("DecodeEvent(%x) = %v, which does not wrap codec.ErrCorrupt", raw, err)
		}
	})
}

// TestEventKindCodes spells out the journal record's kind-code table, which
// is part of the on-disk format: a code reordered, reused or dropped fails
// here before it misreads a journal written earlier.
func TestEventKindCodes(t *testing.T) {
	want := []EventKind{
		"",
		"instance-started", "instance-done", "instance-failed", "instance-suspended",
		"instance-resumed", "task-ready", "task-dispatched", "task-ended",
		"task-failed", "task-retried", "task-timeout", "task-dead",
		"server-recovered", "sphere-aborted", "undo-run", "undo-failed",
		"task-awaiting", "signal", "persist-error", "node-joined", "node-down",
		"task-unplaceable",
		"cluster-node-down", "cluster-node-up", "cluster-cpu-change", "cluster-load-change",
		"cluster-job-start", "cluster-job-end", "cluster-job-fail",
		"load-report",
	}
	if !slices.Equal(eventCodes[:], want) {
		t.Fatalf("eventCodes = %q\nwant %q", eventCodes, want)
	}
	for typ := cluster.EvNodeDown; typ <= cluster.EvJobFail+1; typ++ {
		if got, want := clusterEventKind(typ), EventKind("cluster-"+typ.String()); got != want {
			t.Errorf("clusterEventKind(%v) = %q, want %q", typ, got, want)
		}
	}
	for code, kind := range want[1:] {
		rec := appendEvent(nil, &Event{Kind: kind})
		if got := rec[4]; int(got) != code+1 {
			t.Errorf("%s is written with code %d, want %d", kind, got, code+1)
		}
	}
}
