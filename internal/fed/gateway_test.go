package fed

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bioopera/internal/core"
	"bioopera/internal/sim"
	"bioopera/internal/store"
	"bioopera/internal/transport"
)

// fakeClock is the injected time of this package's tests: it moves only
// when Advance is called, and lets a test learn — without sleeping — when
// the code under test has armed a timer. Due timers run on the goroutine
// that armed or advanced past them. It is a copy of internal/transport's
// FakeClock (export_test.go), kept in step with it by hand: a shared copy
// would be a non-test package that only tests reach, each of whose methods
// the deadcode rule would need allowed.
type fakeClock struct {
	mu      sync.Mutex
	now     sim.Time
	timers  []*fakeTimer
	armed   int // AtFunc calls so far
	waiters []armedWaiter
}

type fakeTimer struct {
	c  *fakeClock
	at sim.Time
	f  func()
}

type armedWaiter struct {
	n  int
	ch chan struct{}
}

// useFakeClock installs a fakeClock for the rest of the test. Register
// Close calls after it: cleanups run last-in first-out, and the real clock
// must come back only once every goroutine reading it is gone.
func useFakeClock(t *testing.T) *fakeClock {
	f := &fakeClock{now: sim.Time(time.Hour)}
	prev := clk
	clk = f
	t.Cleanup(func() { clk = prev })
	return f
}

func (f *fakeClock) Now() sim.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) AtFunc(at sim.Time, fn func()) sim.Stopper {
	t := &fakeTimer{c: f, at: at, f: fn}
	f.mu.Lock()
	due := at <= f.now
	if !due {
		f.timers = append(f.timers, t)
	}
	f.armed++
	kept := f.waiters[:0]
	for _, w := range f.waiters {
		if f.armed >= w.n {
			close(w.ch)
		} else {
			kept = append(kept, w)
		}
	}
	f.waiters = kept
	f.mu.Unlock()
	if due {
		fn()
	}
	return t
}

func (t *fakeTimer) Stop() bool {
	f := t.c
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, u := range f.timers {
		if u == t {
			f.timers = append(f.timers[:i], f.timers[i+1:]...)
			return true
		}
	}
	return false
}

// Armed reports how many timers have been armed so far.
func (f *fakeClock) Armed() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.armed
}

// ArmedBy returns a channel closed once n timers have been armed.
func (f *fakeClock) ArmedBy(n int) <-chan struct{} {
	ch := make(chan struct{})
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.armed >= n {
		close(ch)
	} else {
		f.waiters = append(f.waiters, armedWaiter{n: n, ch: ch})
	}
	return ch
}

// Advance moves time forward by d and runs every timer that came due.
func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	var due []*fakeTimer
	kept := f.timers[:0]
	for _, t := range f.timers {
		if t.at <= f.now {
			due = append(due, t)
		} else {
			kept = append(kept, t)
		}
	}
	f.timers = kept
	f.mu.Unlock()
	for _, t := range due {
		t.f()
	}
}

// stubMember is a member reduced to its request connections: it answers a
// members call with the view the test set and every other call with
// answer, and counts those.
type stubMember struct {
	ep     *transport.Endpoint
	answer func(Request) Response
	asked  atomic.Int32
}

// stubMembers listens for one stub per name, has setup script the view and
// the answers once every address is known, and only then serves them.
func stubMembers(t *testing.T, setup func(*MembersView, []*stubMember), names ...string) *MembersView {
	t.Helper()
	view := &MembersView{Partitions: 8}
	stubs := make([]*stubMember, len(names))
	for i, name := range names {
		ep, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		stubs[i] = &stubMember{ep: ep}
		view.Members = append(view.Members, MemberInfo{Name: name, Addr: ep.Addr(), Incarnation: 1, Up: true, Partitions: []int{}})
	}
	setup(view, stubs)
	for _, s := range stubs {
		s.ep.Serve(func(c *transport.Conn, kind byte, body []byte) (transport.Handler, error) {
			return acceptRequests(c, func(req Request) Response {
				res := Response{View: *view}
				if req.Method != MethodMembers {
					s.asked.Add(1)
					res = s.answer(req)
				}
				res.ID = req.ID
				return res
			}, kind, body)
		}, nil)
	}
	return view
}

func failed(err error) Response {
	var res Response
	res.fail(err)
	return res
}

type statusResult struct {
	st  StateRes
	err error
}

// goStatus runs g.Status(id) and delivers its outcome on the channel.
func goStatus(g *Gateway, id string) <-chan statusResult {
	done := make(chan statusResult, 1)
	go func() {
		st, err := g.Status(id)
		done <- statusResult{st, err}
	}()
	return done
}

// TestGatewayWaitsOutRedirectLoop replays the window in which two members
// each name the other as a partition's owner until a reconcile settles the
// lease. The gateway follows the first redirect at once, then waits a backoff
// before asking a member again, so the loop costs it waits, not the call:
// it answers once the clock moves and one member owns up.
func TestGatewayWaitsOutRedirectLoop(t *testing.T) {
	clock := useFakeClock(t)
	var settled atomic.Bool
	var stubs []*stubMember
	view := stubMembers(t, func(view *MembersView, s []*stubMember) {
		alpha, beta := view.Members[0].Addr, view.Members[1].Addr
		s[0].answer = func(Request) Response {
			if settled.Load() {
				return Response{State: StateRes{Status: core.InstanceDone.String()}}
			}
			return failed(&RedirectError{Member: "beta", Addr: beta})
		}
		s[1].answer = func(Request) Response { return failed(&RedirectError{Member: "alpha", Addr: alpha}) }
		stubs = s
	}, "alpha", "beta")
	g, err := NewGateway(GatewayConfig{Members: []string{view.Members[0].Addr, view.Members[1].Addr}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)

	// One timer per call to alpha and to beta, then the wait before asking
	// alpha again.
	waiting := clock.ArmedBy(clock.Armed() + 3)
	done := goStatus(g, MintID(0, "alpha", 1, 1))
	select {
	case r := <-done:
		t.Fatalf("status ended before the clock moved: %+v, %v", r.st, r.err)
	case <-waiting:
	}
	if a, b := stubs[0].asked.Load(), stubs[1].asked.Load(); a != 1 || b != 1 {
		t.Fatalf("alpha and beta were asked %d and %d times before the wait, want once each", a, b)
	}
	settled.Store(true)
	clock.Advance(minBackoff)
	r := <-done
	if r.err != nil || r.st.Status != core.InstanceDone.String() {
		t.Fatalf("status after the lease settled = %+v, %v; want done", r.st, r.err)
	}
}

// TestGatewayUnknownInstanceIsFinal: in a settled federation, an unknown
// instance is answered by its partition's owner with
// core.ErrUnknownInstance, and the gateway hands that to the client on the
// first answer, without arming a wait.
func TestGatewayUnknownInstanceIsFinal(t *testing.T) {
	clock := useFakeClock(t)
	var owner *stubMember
	view := stubMembers(t, func(view *MembersView, s []*stubMember) {
		view.Members[0].Partitions = []int{0, 1, 2, 3, 4, 5, 6, 7}
		s[0].answer = func(Request) Response { return failed(core.ErrUnknownInstance) }
		owner = s[0]
	}, "alpha")
	g, err := NewGateway(GatewayConfig{Members: []string{view.Members[0].Addr}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)

	armed := clock.Armed()
	select {
	case r := <-goStatus(g, MintID(3, "nobody", 1, 1)):
		if !errors.Is(r.err, core.ErrUnknownInstance) {
			t.Fatalf("status of an unknown instance = %v, want core.ErrUnknownInstance", r.err)
		}
	case <-clock.ArmedBy(armed + 2):
		t.Fatal("the gateway armed a wait after the owner answered unknown instance")
	}
	if n := owner.asked.Load(); n != 1 {
		t.Fatalf("the owner was asked %d times, want once", n)
	}
}

// TestAdoptingPartitionAnswersNotReady: from its claim to the end of its
// recovery, a partition's instances are not yet in the engine. A call on one
// is answered not ready, which the gateway retries, not with
// core.ErrUnknownInstance, which it hands to the client.
func TestAdoptingPartitionAnswersNotReady(t *testing.T) {
	m := newTestMember(t, "alpha", nil, store.NewMem(), nil)
	defer m.Close()
	req := Request{Method: MethodStatus, Instance: MintID(3, "alpha", m.Incarnation(), 1)}
	waitFor(t, "alpha adopts partition 3 and the unknown instance in it is final", func() bool {
		res := m.answer(req)
		return errors.Is(res.err(), core.ErrUnknownInstance)
	})
	m.mu.Lock()
	m.adopting[3] = true
	m.mu.Unlock()
	res := m.answer(req)
	if err := res.err(); res.Code != codeNoPartition || !errors.Is(err, ErrNoPartition) {
		t.Fatalf("status in a partition being adopted = code %d, %v; want not ready", res.Code, err)
	}
}

// TestGatewayListenerWaitKeepsItsTimeout: a wait that reaches the gateway
// through its listener gets the deadline a library call gets — its own
// timeout plus DefaultCallTimeout — so an answer that comes after
// DefaultCallTimeout but within the wait's timeout is delivered.
func TestGatewayListenerWaitKeepsItsTimeout(t *testing.T) {
	clock := useFakeClock(t)
	release := make(chan struct{})
	view := stubMembers(t, func(view *MembersView, s []*stubMember) {
		view.Members[0].Partitions = []int{0, 1, 2, 3, 4, 5, 6, 7}
		s[0].answer = func(Request) Response {
			<-release
			return Response{State: StateRes{Status: core.InstanceDone.String()}}
		}
	}, "alpha")
	unblock := sync.OnceFunc(func() { close(release) })
	t.Cleanup(unblock) // before the stub hangs up
	g, err := NewGateway(GatewayConfig{ListenAddr: "127.0.0.1:0", Members: []string{view.Members[0].Addr}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	c, err := DialClient(g.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	// The client's call timer, then the gateway's call to alpha.
	called := clock.ArmedBy(clock.Armed() + 2)
	done := make(chan statusResult, 1)
	go func() {
		st, err := c.Wait(MintID(3, "alpha", 1, 1), 2*DefaultCallTimeout)
		done <- statusResult{st, err}
	}()
	<-called
	clock.Advance(DefaultCallTimeout + time.Second)
	unblock()
	if r := <-done; r.err != nil || r.st.Status != core.InstanceDone.String() {
		t.Fatalf("wait answered after DefaultCallTimeout = %+v, %v; want done", r.st, r.err)
	}
}
