package remote

import (
	"errors"
	"testing"
	"time"

	"bioopera/internal/cluster"
	"bioopera/internal/core"
	"bioopera/internal/ocr"
)

// TestServerCloseFast: even with an hour-long heartbeat timeout, Close must
// return promptly instead of waiting out a failure-detector timer.
func TestServerCloseFast(t *testing.T) {
	s, err := Listen("127.0.0.1:0", ServerConfig{
		HeartbeatEvery:   time.Second,
		HeartbeatTimeout: time.Hour,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Close took %v; it must not wait for a failure-detector timer", d)
	}
}

// TestKillAfterClose pins the Close/Kill race fix: a Kill arriving after
// Close has started (the server's WaitGroup is mid-Wait) must not Add to
// the group, must not panic, and must still deliver the job-killed
// completion.
func TestKillAfterClose(t *testing.T) {
	s, err := Listen("127.0.0.1:0", ServerConfig{
		HeartbeatEvery:   beatEvery,
		HeartbeatTimeout: beatTimeout,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	completions := make(chan cluster.Completion, 4)
	s.SetHandlers(func(c cluster.Completion) { completions <- c }, func() {})

	release := make(chan struct{})
	lib := core.NewLibrary()
	lib.Register(core.Program{
		Name: "test.blockForever",
		Run: func(core.ProgramCtx, map[string]ocr.Value) (map[string]ocr.Value, error) {
			<-release
			return nil, nil
		},
	})
	a, err := Dial(s.Addr(), AgentConfig{Name: "w1", CPUs: 1, Library: lib, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer close(release) // let the stuck program finish so a.Close can join it

	deadline := time.Now().Add(5 * time.Second)
	for len(s.AppendNodes(nil)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := s.Launch(core.Launch{
		Job: "j1", Node: "w1/cpu0", Program: "test.blockForever",
	}); err != nil {
		t.Fatal(err)
	}

	// Simulate a Close in progress: closed is set, the WaitGroup may be
	// mid-Wait. A Kill here used to Add to the group after Wait started; it
	// must instead deliver the killed completion inline.
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	if err := s.Kill("j1", "w1/cpu0"); err != nil {
		t.Fatalf("Kill during Close: %v", err)
	}
	select {
	case c := <-completions:
		if !errors.Is(c.Err, cluster.ErrJobKilled) {
			t.Fatalf("completion error = %v, want ErrJobKilled", c.Err)
		}
	default:
		t.Fatal("kill completion was not delivered synchronously during close")
	}

	s.mu.Lock()
	s.closed = false
	s.mu.Unlock()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
