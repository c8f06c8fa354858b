package remote

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"bioopera/internal/codec"
	"bioopera/internal/core"
	"bioopera/internal/transport"
)

// jobLease names one run of a job on the agent. Both halves matter: the same
// job ID relaunches under a fresh lease after a timeout kill, and that run
// must survive the kill of the first.
type jobLease struct {
	job   string
	lease uint64
}

// AgentConfig configures a worker agent.
type AgentConfig struct {
	// Name identifies the worker to the server; node names are namespaced
	// under it. Required.
	Name string
	// CPUs is the number of single-slot nodes offered (default 1).
	CPUs int
	// OS defaults to runtime.GOOS.
	OS string
	// Speed is the relative node speed reported to the scheduler
	// (default 1).
	Speed float64
	// Library resolves program names from launch messages. Required.
	Library *core.Library
	// Load, when set, samples the machine's external (non-BioOpera) load
	// (0..1) before each heartbeat; the server feeds it to the scheduler's
	// granularity autotuning. May be nil (no load reported).
	Load func() float64
	// Logf receives diagnostics. May be nil.
	Logf func(format string, args ...any)
}

// Agent is the worker side of the remote protocol: the program execution
// client that registers its CPUs with the server, runs launched activities
// against its local program library, and streams heartbeats. It is the
// transport handler for its one connection.
type Agent struct {
	cfg  AgentConfig
	conn *transport.Conn
	inc  uint64         // set by the welcome, before welcomed closes
	wg   sync.WaitGroup // the heartbeat loop and every running job

	dec codec.Decoder // reader goroutine only

	mu      sync.Mutex
	paused  bool              // heartbeats suppressed (test hook)
	running map[jobLease]bool // every launch still in runJob; true once a kill named it

	welcomed chan struct{} // closed when the server's welcome has arrived
	done     chan struct{} // closed when the connection is gone
}

// Dial connects to a server, performs the hello/welcome handshake, and
// starts the heartbeat and message loops.
func Dial(addr string, cfg AgentConfig) (*Agent, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("remote: AgentConfig needs a Name")
	}
	if cfg.Library == nil {
		return nil, fmt.Errorf("remote: AgentConfig needs a Library")
	}
	if cfg.CPUs <= 0 {
		cfg.CPUs = 1
	}
	if cfg.OS == "" {
		cfg.OS = runtime.GOOS
	}
	if cfg.Speed <= 0 {
		cfg.Speed = 1
	}
	a := &Agent{
		cfg:      cfg,
		running:  make(map[jobLease]bool),
		welcomed: make(chan struct{}),
		done:     make(chan struct{}),
	}
	conn, err := transport.Dial(addr, transport.DefaultHandshakeTimeout, func(c *transport.Conn) transport.Handler {
		a.conn = c
		return a
	})
	if err != nil {
		return nil, fmt.Errorf("remote: dial %s: %w", addr, err)
	}
	conn.ExpectReply()
	hello := Hello{Worker: cfg.Name, Nodes: make([]NodeInfo, cfg.CPUs)}
	for i := range hello.Nodes {
		hello.Nodes[i] = NodeInfo{Name: fmt.Sprintf("cpu%d", i), OS: cfg.OS, CPUs: 1, Speed: cfg.Speed}
	}
	e := codec.Get()
	hello.Encode(e)
	err = send(conn, codec.FrameHello, e)
	if err == nil {
		select {
		case <-a.welcomed:
		case <-a.done:
			err = conn.Err()
		}
	}
	if err != nil {
		//bioopera:allow droppederr the handshake failure is returned; closing the dead dial is best-effort
		conn.Close()
		return nil, fmt.Errorf("remote: handshake failed: %w", err)
	}
	a.logf("remote: %s connected (incarnation %d, %d cpus)", cfg.Name, a.inc, cfg.CPUs)
	return a, nil
}

// Incarnation returns the tag the server assigned to this connection.
func (a *Agent) Incarnation() uint64 { return a.inc }

// PauseHeartbeats stops the heartbeat stream without closing the
// connection — a frozen or partitioned worker, from the server's point of
// view. Launched jobs keep running and their completions still send, which
// is exactly the stale-completion case the lease check exists for.
func (a *Agent) PauseHeartbeats() {
	a.mu.Lock()
	a.paused = true
	a.mu.Unlock()
}

// Wait blocks until the connection to the server is gone.
func (a *Agent) Wait() { <-a.done }

// Close tears the connection down, returning the close error after the
// heartbeat loop and every running job have drained.
func (a *Agent) Close() error {
	err := a.conn.Close()
	a.wg.Wait()
	return err
}

func (a *Agent) logf(format string, args ...any) {
	if a.cfg.Logf != nil {
		a.cfg.Logf(format, args...)
	}
}

func (a *Agent) heartbeatLoop(every time.Duration) {
	defer a.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-a.done:
			return
		case <-t.C:
			a.mu.Lock()
			paused := a.paused
			a.mu.Unlock()
			if paused {
				continue
			}
			var hb Heartbeat
			if a.cfg.Load != nil {
				hb.Load = a.cfg.Load()
			}
			e := codec.Get()
			hb.Encode(e)
			if err := sendWait(a.conn, codec.FrameHeartbeat, e); err != nil {
				return
			}
		}
	}
}

// Frame handles one message from the server. An error hangs the link up;
// Closed logs it.
func (a *Agent) Frame(kind byte, body []byte) error {
	if err := a.dec.Open(body, kind); err != nil {
		return err
	}
	switch kind {
	case codec.FrameWelcome:
		var m Welcome
		if err := m.Decode(&a.dec); err != nil {
			return err
		}
		select {
		case <-a.welcomed:
			return nil // a second welcome changes nothing
		default:
		}
		a.inc = m.Incarnation
		every := time.Duration(m.HeartbeatMs) * time.Millisecond
		if every <= 0 {
			every = DefaultHeartbeatEvery
		}
		a.wg.Add(1)
		go a.heartbeatLoop(every)
		close(a.welcomed)
	case codec.FrameLaunch:
		l := new(Launch) // runJob's own: it outlives the frame
		if err := l.Decode(&a.dec); err != nil {
			return err
		}
		a.mu.Lock()
		a.running[jobLease{l.Job, l.Lease}] = false
		a.mu.Unlock()
		a.wg.Add(1)
		go a.runJob(l)
	case codec.FrameKill:
		var k Kill
		if err := k.Decode(&a.dec); err != nil {
			return err
		}
		// Only a lease still running is marked: a kill that lands after
		// its completion was sent must leave nothing behind.
		key := jobLease{k.Job, k.Lease}
		a.mu.Lock()
		if _, ok := a.running[key]; ok {
			a.running[key] = true
		}
		a.mu.Unlock()
	default:
		a.logf("remote: %s got unexpected frame kind %d", a.cfg.Name, kind)
	}
	return nil
}

// Closed ends the heartbeat loop and wakes Wait.
func (a *Agent) Closed(err error) {
	a.logf("remote: %s disconnected: %v", a.cfg.Name, err)
	close(a.done)
}

// runJob executes one launched activity against the local library and
// reports the lease-tagged result, unless a kill named the lease meanwhile.
func (a *Agent) runJob(l *Launch) {
	defer a.wg.Done()
	reply := Completion{Job: l.Job, Lease: l.Lease, Incarnation: a.inc}
	if prog, ok := a.cfg.Library.Lookup(l.Program); !ok {
		reply.Error = fmt.Sprintf("worker %s: unknown program %q", a.cfg.Name, l.Program)
	} else {
		t0 := time.Now()
		outputs, err := prog.Run(l.Ctx, l.Inputs)
		reply.CPUNanos = int64(time.Since(t0))
		if err != nil {
			reply.Error = err.Error()
		} else {
			reply.Outputs = outputs
		}
	}

	// The one way out: the run leaves the table whatever became of it.
	key := jobLease{l.Job, l.Lease}
	a.mu.Lock()
	killed := a.running[key]
	delete(a.running, key)
	a.mu.Unlock()
	if killed {
		return
	}
	// Back-pressure, not loss: a completion waits for room in the queue
	// (this goroutine holds no lock) and fails only with the connection.
	e := codec.Get()
	reply.Encode(e)
	_ = sendWait(a.conn, codec.FrameCompletion, e)
}
