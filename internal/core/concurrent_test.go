package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"bioopera/internal/ocr"
	"bioopera/internal/store"
)

// chainSrc is a pure activity chain: no blocks, no parallel expansion, so
// every (instance, task) must see exactly one EvTaskEnded — any second one
// is a duplicated completion, any missing one is a lost completion.
const chainSrc = `
PROCESS Chain {
  INPUT x;
  OUTPUT r;
  ACTIVITY S1 { CALL test.inc(v = x);  OUT out; MAP out -> w1; }
  ACTIVITY S2 { CALL test.inc(v = w1); OUT out; MAP out -> w2; }
  ACTIVITY S3 { CALL test.inc(v = w2); OUT out; MAP out -> w3; }
  ACTIVITY S4 { CALL test.inc(v = w3); OUT out; MAP out -> w4; }
  ACTIVITY S5 { CALL test.inc(v = w4); OUT out; MAP out -> r; }
  S1 -> S2; S2 -> S3; S3 -> S4; S4 -> S5;
}
`

// taskEndCounter counts EvTaskEnded per (instance, scope, task).
type taskEndCounter struct {
	mu    sync.Mutex
	ended map[string]int
}

func newTaskEndCounter() *taskEndCounter {
	return &taskEndCounter{ended: make(map[string]int)}
}

func (c *taskEndCounter) observe(ev Event) {
	if ev.Kind != EvTaskEnded {
		return
	}
	c.mu.Lock()
	c.ended[ev.Instance+"|"+ev.Scope+"|"+ev.Task]++
	c.mu.Unlock()
}

// checkExactlyOnce asserts every counted task ended exactly once and that
// each listed instance ended all five chain tasks.
func (c *taskEndCounter) checkExactlyOnce(t *testing.T, ids []string) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, n := range c.ended {
		if n != 1 {
			t.Errorf("task %s ended %d times, want exactly 1", key, n)
		}
	}
	for _, id := range ids {
		for i := 1; i <= 5; i++ {
			key := fmt.Sprintf("%s||S%d", id, i)
			if c.ended[key] != 1 {
				t.Errorf("task %s ended %d times, want 1 (lost completion)", key, c.ended[key])
			}
		}
	}
}

func incLibrary(t *testing.T, delay time.Duration) *Library {
	t.Helper()
	lib := NewLibrary()
	if err := lib.RegisterFunc("test.inc", func(_ ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
		time.Sleep(delay)
		return map[string]ocr.Value{"out": ocr.Num(args["v"].AsNum() + 1)}, nil
	}); err != nil {
		t.Fatal(err)
	}
	return lib
}

// TestConcurrentInstancesStress launches many instances from several
// goroutines against the worker-pool executor and checks that every
// instance completes with the right result and that no completion was lost
// or delivered twice.
func TestConcurrentInstancesStress(t *testing.T) {
	counter := newTaskEndCounter()
	rt, err := NewLocalRuntime(LocalConfig{
		Workers: 4,
		Library: incLibrary(t, time.Millisecond),
		OnEvent: counter.observe,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if err := rt.RegisterTemplateSource(chainSrc); err != nil {
		t.Fatal(err)
	}

	const goroutines = 4
	const perG = 3 // 12 instances total
	ids := make([]string, goroutines*perG)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				slot := g*perG + i
				id, err := rt.StartProcess("Chain",
					map[string]ocr.Value{"x": ocr.Num(float64(slot * 10))}, StartOptions{})
				if err != nil {
					t.Errorf("StartProcess: %v", err)
					return
				}
				ids[slot] = id
			}
		}(g)
	}
	wg.Wait()

	for slot, id := range ids {
		if id == "" {
			continue
		}
		in, err := rt.Wait(id, 30*time.Second)
		if err != nil {
			t.Fatalf("Wait(%s): %v", id, err)
		}
		if in.Status != InstanceDone {
			t.Fatalf("instance %s: %s (%s)", id, in.Status, in.FailureReason)
		}
		if got := in.Outputs["r"].AsNum(); got != float64(slot*10+5) {
			t.Errorf("instance %s result = %v, want %d", id, got, slot*10+5)
		}
		if in.Activities != 5 {
			t.Errorf("instance %s activities = %d, want 5", id, in.Activities)
		}
	}
	counter.checkExactlyOnce(t, ids)
	requireClean(t, "idle", rt.Engine().Check())
}

// TestConcurrentCrashRecover crashes the engine while several instances
// run concurrently on the worker pool, recovers from the store, and checks
// that every instance still finishes correctly with no lost or duplicated
// completions: work checkpointed before the crash is not redone, work lost
// in the crash is redone exactly once.
func TestConcurrentCrashRecover(t *testing.T) {
	counter := newTaskEndCounter()
	st := store.NewMem()
	rt, err := NewLocalRuntime(LocalConfig{
		Workers: 4,
		Store:   st,
		Library: incLibrary(t, 2*time.Millisecond),
		OnEvent: counter.observe,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if err := rt.RegisterTemplateSource(chainSrc); err != nil {
		t.Fatal(err)
	}

	const goroutines = 4
	const perG = 2 // 8 instances total
	ids := make([]string, goroutines*perG)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				slot := g*perG + i
				id, err := rt.StartProcess("Chain",
					map[string]ocr.Value{"x": ocr.Num(float64(slot * 10))}, StartOptions{})
				if err != nil {
					t.Errorf("StartProcess: %v", err)
					return
				}
				ids[slot] = id
			}
		}(g)
	}
	wg.Wait()

	// Let the fleet get partway through, then pull the plug.
	time.Sleep(8 * time.Millisecond)
	rt.Do(func(e *Engine) { e.Crash() })
	// Orphan workers drain; their completions must be discarded.
	time.Sleep(20 * time.Millisecond)
	rt.Do(func(e *Engine) {
		if _, err := e.Recover(); err != nil {
			t.Errorf("Recover: %v", err)
		}
	})

	for slot, id := range ids {
		if id == "" {
			continue
		}
		in, err := rt.Wait(id, 30*time.Second)
		if errors.Is(err, ErrUnknownInstance) {
			// Finished and archived before the crash: verify from
			// history instead.
			v, ok, gerr := st.Get(store.History, "inst/"+id)
			if gerr != nil || !ok {
				t.Fatalf("instance %s neither live nor archived (%v)", id, gerr)
			}
			meta, err := DecodeInstanceMeta(v)
			if err != nil {
				t.Fatal(err)
			}
			if meta.Status != InstanceDone || meta.Outputs["r"].AsNum() != float64(slot*10+5) {
				t.Errorf("archived instance %s: status=%s outputs=%v", id, meta.Status, meta.Outputs)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Wait(%s): %v", id, err)
		}
		if in.Status != InstanceDone {
			t.Fatalf("instance %s: %s (%s)", id, in.Status, in.FailureReason)
		}
		if got := in.Outputs["r"].AsNum(); got != float64(slot*10+5) {
			t.Errorf("instance %s result = %v, want %d", id, got, slot*10+5)
		}
	}
	counter.checkExactlyOnce(t, ids)
	requireClean(t, "idle", rt.Engine().Check())
}

// failingStore wraps a Store and fails every Batch once armed, so persist
// failures can be provoked deterministically.
type failingStore struct {
	store.Store
	mu    sync.Mutex
	armed bool
	fails int
}

func (f *failingStore) arm() {
	f.mu.Lock()
	f.armed = true
	f.mu.Unlock()
}

func (f *failingStore) Batch(ops []store.Op) error {
	f.mu.Lock()
	armed := f.armed
	if armed {
		f.fails++
	}
	f.mu.Unlock()
	if armed {
		return errors.New("store full")
	}
	return f.Store.Batch(ops)
}

// TestPersistErrorSurfaced checks that checkpoint failures are no longer
// silently dropped: they emit EvPersistError on the event stream, invoke
// the OnError hook, and do not stop in-memory execution.
func TestPersistErrorSurfaced(t *testing.T) {
	fs := &failingStore{Store: store.NewMem()}
	var evMu sync.Mutex
	persistEvents := 0
	var errs []error
	rt, err := NewLocalRuntime(LocalConfig{
		Workers: 2,
		Store:   fs,
		Library: incLibrary(t, 0),
		OnEvent: func(ev Event) {
			if ev.Kind == EvPersistError {
				evMu.Lock()
				persistEvents++
				evMu.Unlock()
			}
		},
		OnError: func(err error) {
			evMu.Lock()
			errs = append(errs, err)
			evMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if err := rt.RegisterTemplateSource(chainSrc); err != nil {
		t.Fatal(err)
	}
	fs.arm()
	id, err := rt.StartProcess("Chain", map[string]ocr.Value{"x": ocr.Num(1)}, StartOptions{})
	if err != nil {
		t.Fatal(err)
	}
	in, err := rt.Wait(id, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if in.Status != InstanceDone || in.Outputs["r"].AsNum() != 6 {
		t.Fatalf("instance with failing store: %s outputs=%v", in.Status, in.Outputs)
	}
	evMu.Lock()
	defer evMu.Unlock()
	if persistEvents == 0 {
		t.Error("no EvPersistError emitted despite failing store")
	}
	if len(errs) == 0 {
		t.Error("OnError hook never invoked despite failing store")
	}
	for _, e := range errs {
		if e.Error() == "" {
			t.Error("OnError received empty error")
		}
	}
}
