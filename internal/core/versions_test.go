package core

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bioopera/internal/ocr"
	"bioopera/internal/sim"
	"bioopera/internal/store"
)

// These tests cover where a process text lives: once per distinct text, as a
// version record of the template space that RegisterTemplate writes, and
// nowhere in the instance or history space.

// checkFiled fails for every scope of a built instance of e whose process is
// not the one compiledProc filed for its hash, and returns how many scopes it
// looked at. A stub has no scopes to look at.
func checkFiled(t *testing.T, e *Engine) int {
	t.Helper()
	n := 0
	for _, in := range e.Instances() {
		mu := e.shardFor(in.ID)
		mu.Lock()
		for _, sc := range in.scopes {
			n++
			e.emu.RLock()
			filed := e.byHash[sc.Proc.hash]
			e.emu.RUnlock()
			if filed != sc.Proc {
				t.Errorf("instance %s, scope %q: its process is not the one filed for hash %s", in.ID, sc.ID, sc.Proc.hash)
			}
		}
		mu.Unlock()
	}
	return n
}

// runMidway runs rt until each of ids has ended an activity, failing if one
// of them finishes first.
func runMidway(t *testing.T, rt *SimRuntime, ids []string) {
	t.Helper()
	for deep := false; !deep; {
		rt.RunUntil(rt.Sim.Now().Add(sim.Duration(100 * time.Millisecond)))
		deep = true
		for _, id := range ids {
			in, _ := rt.Engine.Instance(id)
			if in.statusNow() != InstanceRunning {
				t.Fatalf("instance %s is %s before the crash", id, in.statusNow())
			}
			deep = deep && in.Activities > 0
		}
	}
}

// TestScopesShareFiledProc: a template is compiled once. Every scope of a
// started instance — root, block element, subprocess body — points at the
// compiledProc filed for its hash, and so does every scope of an instance
// recovered onto an engine that registered the same templates, and of a stub
// once Resume hydrates it. The crash comes with the first steps dispatched.
func TestScopesShareFiledProc(t *testing.T) {
	st := store.NewMem()
	rtA := newRuntime(t, SimConfig{Store: st})
	register(t, rtA, mixSrc)
	register(t, rtA, subprocSrc)
	var running, suspended []string
	for i := 0; i < 2; i++ {
		running = append(running,
			start(t, rtA, "Mix", map[string]ocr.Value{"xs": fanInput(4)}),
			start(t, rtA, "Outer", map[string]ocr.Value{"v": ocr.Num(float64(i))}))
	}
	suspended = append(suspended, start(t, rtA, "Mix", map[string]ocr.Value{"xs": fanInput(4)}))
	if err := rtA.Engine.Suspend(suspended[0], false); err != nil {
		t.Fatal(err)
	}
	if n := checkFiled(t, rtA.Engine); n <= len(running)+len(suspended) {
		t.Fatalf("the started instances have %d scopes; the test needs block elements and subprocess bodies", n)
	}
	rtA.Engine.Crash()

	rtB := newRuntime(t, SimConfig{Store: st})
	register(t, rtB, mixSrc)
	register(t, rtB, subprocSrc)
	if n, err := rtB.Engine.Recover(); err != nil || n != len(running)+len(suspended) {
		t.Fatalf("recover = %d, %v", n, err)
	}
	checkFiled(t, rtB.Engine)
	if err := rtB.Engine.Resume(suspended[0]); err != nil {
		t.Fatal(err)
	}
	if h, _ := rtB.Engine.Hydrated(suspended[0]); !h {
		t.Fatal("Resume left the stub unhydrated")
	}
	checkFiled(t, rtB.Engine)
	rtB.Run()
	for _, id := range append(running, suspended...) {
		finished(t, rtB, id)
	}
	checkFiled(t, rtB.Engine)
}

// TestRecoverWithoutRegistering: an engine that never registered a template —
// a federation member adopting a partition another member ran over a shared
// store — recovers that member's instances from the template space's version
// records alone, compiles each text once, hydrates a suspended instance on
// Resume and runs them all to their right end. (A subprocess spawned after
// the adoption late-binds by name, so it needs its template registered.)
func TestRecoverWithoutRegistering(t *testing.T) {
	st := store.NewMem()
	rtB := newRuntime(t, SimConfig{Store: st}) // boots before anything is registered
	rtA := newRuntime(t, SimConfig{Store: st})
	register(t, rtA, mixSrc)
	ids := []string{
		start(t, rtA, "Mix", map[string]ocr.Value{"xs": fanInput(4)}),
		start(t, rtA, "Mix", map[string]ocr.Value{"xs": fanInput(4)}),
	}
	suspended := ids[1]
	if err := rtA.Engine.Suspend(suspended, false); err != nil {
		t.Fatal(err)
	}
	rtA.Engine.Crash() // every scope exists; the first steps are dispatched

	if n, err := rtB.Engine.Recover(); err != nil || n != len(ids) {
		t.Fatalf("recover = %d, %v", n, err)
	}
	if tpls := rtB.Engine.Templates(); len(tpls) != 0 {
		t.Fatalf("the adopting engine knows templates %v; the test needs it to know none", tpls)
	}
	if err := rtB.Engine.Resume(suspended); err != nil {
		t.Fatal(err)
	}
	rtB.Run()
	if v := rtB.Engine.Check(); len(v) > 0 {
		t.Fatalf("Check: %v", v)
	}
	for _, id := range ids {
		if got := finished(t, rtB, id).Outputs["doubled"].String(); got != "[0, 2, 4, 6]" {
			t.Errorf("instance %s: doubled = %s, want [0, 2, 4, 6]", id, got)
		}
	}
	// Mix and its Fan body: compiled once each, and shared by every scope
	// with that text.
	checkFiled(t, rtB.Engine)
	rtB.Engine.emu.RLock()
	compiled := len(rtB.Engine.byHash)
	rtB.Engine.emu.RUnlock()
	if compiled != 2 {
		t.Errorf("%d processes compiled from version records, want 2", compiled)
	}
}

// TestReRegisteringKeepsRecoveredProc: the hash index only grows. Three
// suspended Inner instances are recovered after Inner was replaced; the first
// hydrates, compiling v1's text from its version record; Inner is registered
// twice more, as v2 and then as v1 again; the other two hydrate. All three
// share the one compiledProc the first hydration filed, and so does the name
// Inner once its text is v1's again — nothing compiles v1 a second time.
func TestReRegisteringKeepsRecoveredProc(t *testing.T) {
	st := store.NewMem()
	rtA := newRuntime(t, SimConfig{Store: st})
	register(t, rtA, subprocSrc)
	var ids []string
	for i := 0; i < 3; i++ {
		id := start(t, rtA, "Inner", map[string]ocr.Value{"v": ocr.Num(float64(i))})
		if err := rtA.Engine.Suspend(id, false); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	rtA.Engine.Crash()

	rtB := newRuntime(t, SimConfig{Store: st})
	register(t, rtB, innerTriple)
	if n, err := rtB.Engine.Recover(); err != nil || n != len(ids) {
		t.Fatalf("recover = %d, %v", n, err)
	}
	resume := func(id string) *compiledProc {
		t.Helper()
		if err := rtB.Engine.Resume(id); err != nil {
			t.Fatal(err)
		}
		in, _ := rtB.Engine.Instance(id)
		return in.root.Proc
	}
	v1 := resume(ids[0])
	register(t, rtB, innerTriple)
	register(t, rtB, subprocSrc)
	for _, id := range ids[1:] {
		if got := resume(id); got != v1 {
			t.Errorf("instance %s hydrated onto a second compile of v1's text", id)
		}
	}
	if named, _ := rtB.Engine.resolveTemplate("Inner"); named != v1 {
		t.Error("Inner, registered with v1's text again, is not bound to the filed v1")
	}
	checkFiled(t, rtB.Engine)
	rtB.Run()
	for i, id := range ids {
		if in := finished(t, rtB, id); in.Outputs["w"].AsNum() != float64(2*i) {
			t.Errorf("instance %s: w = %v, want v1's %d", id, in.Outputs["w"], 2*i)
		}
	}
}

// TestRecoverRefusesPerInstanceText: a process text stored under its
// instance, proc/<inst>/<hash>, is the layout of stores written before texts
// became version records of the template space. It is refused, not
// converted: its instance fails with one error naming the key, and the other
// instances recover and finish.
func TestRecoverRefusesPerInstanceText(t *testing.T) {
	st := store.NewMem()
	rtA := newRuntime(t, SimConfig{Store: st})
	register(t, rtA, chain8Src)
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, start(t, rtA, "Chain8", map[string]ocr.Value{"x": ocr.Num(float64(i))}))
	}
	runMidway(t, rtA, ids)
	rtA.Engine.Crash()

	bad := ids[1]
	cp, _ := rtA.Engine.resolveTemplate("Chain8")
	badKey := "proc/" + bad + "/" + cp.hash
	if err := st.Put(store.Instance, badKey, cp.bytes); err != nil {
		t.Fatal(err)
	}
	var reported []error
	rtB := newRuntime(t, SimConfig{Store: st, Options: Options{
		OnError: func(err error) { reported = append(reported, err) },
	}})
	register(t, rtB, chain8Src)
	n, err := rtB.Engine.Recover()
	if n != len(ids)-1 || err == nil || !strings.Contains(err.Error(), badKey) {
		t.Fatalf("recover = %d, %v; want %d recovered and a refusal naming %s", n, err, len(ids)-1, badKey)
	}
	if len(reported) != 1 || !strings.Contains(reported[0].Error(), badKey) {
		t.Fatalf("OnError saw %v; want exactly the one refusal", reported)
	}
	if _, ok := rtB.Engine.Instance(bad); ok {
		t.Fatal("refused instance present in the registry")
	}
	rtB.Run()
	for _, id := range ids {
		if id != bad {
			finished(t, rtB, id)
		}
	}
}

// TestNoTextInInstanceBatches: over TestStoreBytesGolden's workload — a
// block, a subprocess, a sphere that aborts and retries, an alternative, an
// AWAIT — no instance or history batch carries a proc/ key, and the template
// space holds each registered text once.
func TestNoTextInInstanceBatches(t *testing.T) {
	_, bl, _ := goldenWorkload(t)
	for _, ops := range bl.batches {
		for _, op := range ops {
			if !op.IsEvent() && op.Space != store.Template && strings.HasPrefix(op.Key, versionPrefix) {
				t.Errorf("%s %s: an instance batch carries a process text", op.Space, op.Key)
			}
		}
	}
	kvs, err := bl.List(store.Template)
	if err != nil {
		t.Fatal(err)
	}
	versions := 0
	for _, kv := range kvs {
		if hash, ok := strings.CutPrefix(kv.Key, versionPrefix); ok {
			versions++
			if procHash(string(kv.Value)) != hash {
				t.Errorf("version record %s holds a text of another hash", kv.Key)
			}
		}
	}
	// Mix and its Fan body, Inner, Outer, Sphere and its Tx body, WithAlt,
	// Approval.
	if versions != 8 {
		t.Errorf("the template space holds %d version records, want 8", versions)
	}
}

// holdStore holds the first registration it sees between its commit and its
// return, until release is closed: RegisterTemplate has then written its
// template and not yet swapped it in. It holds a Put of the template space
// as it holds a Batch, whichever a registration writes with.
type holdStore struct {
	store.Store
	held               atomic.Bool
	committed, release chan struct{}
}

func (s *holdStore) hold() {
	if s.held.CompareAndSwap(false, true) {
		close(s.committed)
		<-s.release
	}
}

func (s *holdStore) Batch(ops []store.Op) error {
	err := s.Store.Batch(ops)
	if registration(ops) {
		s.hold()
	}
	return err
}

func (s *holdStore) Put(space store.Space, key string, value []byte) error {
	err := s.Store.Put(space, key, value)
	if space == store.Template {
		s.hold()
	}
	return err
}

// registrationWaiting reports whether a goroutine waits for a mutex inside
// RegisterTemplate.
func registrationWaiting() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "[sync.Mutex.Lock") && strings.Contains(g, ").RegisterTemplate(") {
			return true
		}
	}
	return false
}

// TestRegistrationsOfOneNameAgree: two registrations of one name race. A
// commits its template and is held before it swaps it in; B registers
// meanwhile. Were B to commit and swap while A is held, A's swap would come
// last: the engine would run A's definition while the store holds B's, and a
// restart would change the definition of every later start. B must instead
// wait for A, and once both return, the engine's template is the stored one.
// A is held until B has returned, or until B waits on a mutex inside
// RegisterTemplate.
func TestRegistrationsOfOneNameAgree(t *testing.T) {
	hs := &holdStore{Store: store.NewMem(), committed: make(chan struct{}), release: make(chan struct{})}
	rt := newRuntime(t, SimConfig{Store: hs})
	a, b := make(chan error, 1), make(chan error, 1)
	go func() { a <- rt.Engine.RegisterTemplateSource(subprocSrc) }() // Inner doubles
	<-hs.committed
	go func() { b <- rt.Engine.RegisterTemplateSource(innerTriple) }()
	var errB error
	bReturned := false
	for deadline := time.Now().Add(10 * time.Second); !bReturned && !registrationWaiting(); {
		select {
		case errB = <-b:
			bReturned = true
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			close(hs.release)
			t.Fatal("the second registration neither returned nor waited")
		}
	}
	close(hs.release)
	errA := <-a
	if !bReturned {
		errB = <-b
	}
	if err := errors.Join(errA, errB); err != nil {
		t.Fatal(err)
	}
	stored, ok, err := hs.Get(store.Template, "Inner")
	if err != nil || !ok {
		t.Fatalf("no stored Inner: %v", err)
	}
	p, _ := rt.Engine.Template("Inner")
	if got := ocr.Format(p); got != string(stored) {
		t.Fatalf("the engine runs Inner as\n%s\nthe store holds\n%s", got, stored)
	}
}
