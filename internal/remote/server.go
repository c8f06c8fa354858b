package remote

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"bioopera/internal/cluster"
	"bioopera/internal/codec"
	"bioopera/internal/core"
	"bioopera/internal/obs"
	"bioopera/internal/ocr"
	"bioopera/internal/transport"
)

// DefaultHeartbeatEvery is the failure detector's default cadence; a worker
// silent for three of them is dead. The hello/welcome exchange is bounded
// by transport.DefaultHandshakeTimeout on both sides.
const DefaultHeartbeatEvery = time.Second

// ServerConfig tunes the worker server.
type ServerConfig struct {
	// HeartbeatEvery is the cadence advertised to workers (default 1s).
	HeartbeatEvery time.Duration
	// HeartbeatTimeout is how long a worker may stay silent before it is
	// declared dead (default 3 × HeartbeatEvery).
	HeartbeatTimeout time.Duration
	// OnNodeEvent observes workers joining and being declared dead, for
	// the awareness journal. May be nil.
	OnNodeEvent func(worker string, up bool, detail string)
	// Logf receives protocol-level diagnostics. May be nil.
	Logf func(format string, args ...any)
	// Metrics registers the failure-detector counters and worker gauges
	// (lease drops, declared-dead, joins). May be nil.
	Metrics *obs.Registry
}

// lease records one launched job: who runs it and under which lease and
// worker incarnation. A completion must match all of it to count.
type lease struct {
	id     uint64
	job    string
	node   string
	worker string
	inc    uint64
}

// workerConn is one connected worker agent, and the transport handler for
// its connection.
type workerConn struct {
	s     *Server
	name  string
	inc   uint64
	conn  *transport.Conn
	nodes []string // server-side node names owned by this worker; fixed at registration

	dec codec.Decoder // reader goroutine only
	// odd marks the unexpected frame kinds the worker has sent, each logged
	// once: a worker from before the heartbeat went sends one every beat.
	// Reader goroutine only.
	odd [256]bool

	dead bool // guarded by Server.mu
}

// Server accepts worker agents and implements core.Executor over them: the
// dispatcher's launches travel to whichever worker owns the chosen node,
// and worker completions flow back into the engine. It is the remote
// counterpart of the local goroutine pool.
type Server struct {
	cfg ServerConfig
	ep  *transport.Endpoint
	dir *cluster.Directory
	wg  sync.WaitGroup // Kill's asynchronous deliveries

	mu           sync.Mutex
	closed       bool
	onCompletion func(cluster.Completion)
	onChange     func()
	workers      map[string]*workerConn
	nodeOwner    map[string]string // server-side node name → worker name
	running      map[string]*lease // job ID → current lease
	nextLease    uint64
	nextInc      uint64
	declaredDead int
	droppedStale int

	// Failure-detector metrics: pre-resolved, nil-safe handles (see
	// internal/obs), so instrumentation costs one atomic when enabled and
	// one nil check when not.
	mStaleDrops  *obs.Counter
	mWorkersDead *obs.Counter
	mJoins       *obs.Counter
}

// Listen starts a server on addr (e.g. ":7070", or "127.0.0.1:0" to pick a
// free port). Call SetHandlers before workers are expected to do work.
func Listen(addr string, cfg ServerConfig) (*Server, error) {
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = DefaultHeartbeatEvery
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 3 * cfg.HeartbeatEvery
	}
	s := &Server{
		cfg:       cfg,
		dir:       cluster.NewDirectory(),
		workers:   make(map[string]*workerConn),
		nodeOwner: make(map[string]string),
		running:   make(map[string]*lease),
	}
	if reg := cfg.Metrics; reg != nil {
		s.mStaleDrops = reg.Counter("bioopera_remote_stale_completions_total",
			"Worker completions dropped by the lease check.")
		s.mWorkersDead = reg.Counter("bioopera_remote_workers_dead_total",
			"Workers declared dead by the failure detector.")
		s.mJoins = reg.Counter("bioopera_remote_worker_joins_total",
			"Worker agents that completed the hello/welcome handshake.")
		reg.GaugeFunc("bioopera_remote_workers",
			"Connected worker agents currently considered alive.",
			func() float64 { w, _, _ := s.Stats(); return float64(w) })
		reg.GaugeFunc("bioopera_remote_jobs_leased",
			"Jobs currently leased to workers.",
			func() float64 {
				s.mu.Lock()
				defer s.mu.Unlock()
				return float64(len(s.running))
			})
	}
	ep, err := transport.Listen(addr)
	if err != nil {
		return nil, fmt.Errorf("remote: listen %s: %w", addr, err)
	}
	s.ep = ep
	ep.Serve(s.accept, func(remote string, err error) {
		s.logf("remote: bad handshake from %s: %v", remote, err)
	})
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ep.Addr() }

// SetHandlers wires the completion and capacity-change callbacks (the
// engine's HandleCompletion and Pump). Must be called before work runs.
func (s *Server) SetHandlers(onCompletion func(cluster.Completion), onChange func()) {
	s.mu.Lock()
	s.onCompletion = onCompletion
	s.onChange = onChange
	s.mu.Unlock()
}

// Stats reports failure-detector counters: live workers, workers declared
// dead so far, and stale completions dropped by the lease check.
func (s *Server) Stats() (workers, declaredDead, droppedStale int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range s.workers {
		if !w.dead {
			workers++
		}
	}
	return workers, s.declaredDead, s.droppedStale
}

// Close stops accepting workers and tears down every connection; each
// worker still alive is declared dead as its connection ends.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.ep.Close()
	s.wg.Wait()
	return err
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// AppendNodes implements core.Executor.
func (s *Server) AppendNodes(dst []cluster.NodeView) []cluster.NodeView {
	return s.dir.AppendNodes(dst)
}

// Launch implements core.Executor: the job is leased to the worker owning
// the chosen node and shipped over the wire with its resolved binding.
func (s *Server) Launch(l core.Launch) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("remote: server closed")
	}
	w := s.workers[s.nodeOwner[l.Node]]
	if w == nil || w.dead {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", cluster.ErrNodeDown, l.Node)
	}
	if err := s.dir.Reserve(l.Node); err != nil {
		s.mu.Unlock()
		return err
	}
	s.nextLease++
	lz := &lease{
		id: s.nextLease, job: string(l.Job), node: l.Node,
		worker: w.name, inc: w.inc,
	}
	// Record the lease before sending: the completion can race back
	// before send even returns.
	s.running[lz.job] = lz
	s.mu.Unlock()

	// Send never blocks: the engine launches a turn's jobs one after another
	// on the goroutine that committed it, ahead of that turn's pump.
	m := Launch{
		Job:         lz.job,
		Lease:       lz.id,
		Incarnation: lz.inc,
		Program:     l.Program,
		Ctx:         l.Ctx,
		Nice:        l.Nice,
		CostMs:      l.Cost.Milliseconds(),
		TimeoutMs:   l.Timeout.Milliseconds(),
		Inputs:      l.Inputs,
	}
	m.Ctx.Node = l.Node
	e := codec.Get()
	m.Encode(e)
	if err := send(w.conn, codec.FrameLaunch, e); err != nil {
		// Undo; a broken connection ends in Closed, which declares the
		// worker dead.
		s.mu.Lock()
		if s.running[lz.job] == lz {
			delete(s.running, lz.job)
			s.dir.Release(lz.node)
		}
		s.mu.Unlock()
		return fmt.Errorf("remote: launch on %s: %w", l.Node, err)
	}
	return nil
}

// Kill implements core.Executor. Like the local pool, the server drops the
// lease and reports the job killed immediately; the worker gets a
// best-effort kill message so it discards the eventual result.
func (s *Server) Kill(id cluster.JobID, node string) error {
	s.mu.Lock()
	lz := s.running[string(id)]
	if lz == nil {
		s.mu.Unlock()
		return fmt.Errorf("remote: job %s not running", id)
	}
	delete(s.running, lz.job)
	s.dir.Release(lz.node)
	w := s.workers[lz.worker]
	deliver := s.onCompletion
	// The Add must happen before mu is released and only while the server
	// is open: a Kill racing Close must not Add after Close's Wait started.
	async := !s.closed
	if async {
		s.wg.Add(1)
	}
	s.mu.Unlock()
	if w != nil {
		// Best-effort: a worker that misses the kill reports a completion
		// the lease check then drops.
		e := codec.Get()
		(&Kill{Job: lz.job, Lease: lz.id}).Encode(e)
		_ = send(w.conn, codec.FrameKill, e)
	}
	if !async {
		if deliver != nil {
			deliver(cluster.Completion{Job: id, Node: lz.node, Err: cluster.ErrJobKilled})
		}
		return nil
	}
	go func() {
		defer s.wg.Done()
		if deliver != nil {
			deliver(cluster.Completion{Job: id, Node: lz.node, Err: cluster.ErrJobKilled})
		}
	}()
	return nil
}

var errBadHello = errors.New("remote: first frame is not a valid hello")

// accept is the server's handshake: the first frame must be a hello naming
// the worker and its nodes; the worker is registered and welcomed, and its
// workerConn handles the connection from then on.
func (s *Server) accept(c *transport.Conn, kind byte, body []byte) (transport.Handler, error) {
	w := &workerConn{s: s, conn: c}
	var hello Hello
	if err := w.dec.Open(body, kind); err != nil {
		return nil, err
	}
	if kind != codec.FrameHello || hello.Decode(&w.dec) != nil || hello.Worker == "" || len(hello.Nodes) == 0 {
		return nil, errBadHello
	}
	w.name = hello.Worker

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errors.New("remote: server closed")
	}
	if old := s.workers[w.name]; old != nil && !old.dead {
		// The name rejoined while its previous connection still looked
		// alive: the new connection wins, the old incarnation is dead.
		s.mu.Unlock()
		s.declareDead(old, "replaced by new connection")
		s.mu.Lock()
	}
	s.nextInc++
	w.inc = s.nextInc
	// Nodes previously owned by this worker but absent from the new offer
	// are forgotten (a rejoin may offer fewer CPUs).
	offered := make(map[string]bool, len(hello.Nodes))
	for _, n := range hello.Nodes {
		offered[w.name+"/"+n.Name] = true
	}
	if old := s.workers[w.name]; old != nil {
		for _, n := range old.nodes {
			if !offered[n] {
				s.dir.Leave(n)
				delete(s.nodeOwner, n)
			}
		}
	}
	for _, n := range hello.Nodes {
		full := w.name + "/" + n.Name
		cpus := n.CPUs
		if cpus <= 0 {
			cpus = 1
		}
		speed := n.Speed
		if speed <= 0 {
			speed = 1
		}
		s.dir.Join(cluster.NodeView{Name: full, OS: n.OS, Up: true, CPUs: cpus, Speed: speed})
		s.nodeOwner[full] = w.name
		w.nodes = append(w.nodes, full)
	}
	s.workers[w.name] = w
	// The welcome is queued before the registration lock is released, so it
	// is first on the wire even if a dispatcher Launch targets this worker
	// the instant mu unlocks. The fresh queue cannot be full.
	e := codec.Get()
	(&Welcome{Incarnation: w.inc, HeartbeatMs: s.cfg.HeartbeatEvery.Milliseconds()}).Encode(e)
	welcomeErr := send(c, codec.FrameWelcome, e)
	onChange := s.onChange
	s.mu.Unlock()
	if welcomeErr != nil {
		s.declareDead(w, "welcome enqueue failed")
		return nil, welcomeErr
	}
	// The transport times the silence; the verdict is the server's, and it
	// leaves the link open, so a thawed worker's late completion still
	// arrives for the lease check to drop.
	c.OnSilence(s.cfg.HeartbeatTimeout, func() { s.declareDead(w, "heartbeat timeout") })
	s.mJoins.Inc()
	s.logf("remote: worker %s joined (incarnation %d, %d nodes)", w.name, w.inc, len(w.nodes))
	if s.cfg.OnNodeEvent != nil {
		s.cfg.OnNodeEvent(w.name, true, fmt.Sprintf("incarnation %d", w.inc))
	}
	if onChange != nil {
		onChange() // new capacity: let the dispatcher drain
	}
	return w, nil
}

// Frame handles one message from the worker. Liveness needs nothing here:
// the transport stamps every inbound byte and times the silence. An error
// hangs the link up; Closed logs it.
func (w *workerConn) Frame(kind byte, body []byte) error {
	if err := w.dec.Open(body, kind); err != nil {
		return err
	}
	if kind != codec.FrameCompletion {
		if !w.odd[kind] {
			w.odd[kind] = true
			w.s.logf("remote: worker %s sent unexpected frame kind %d (logged once per connection)", w.name, kind)
		}
		return nil
	}
	return w.s.handleCompletion(w)
}

// Closed: the connection is gone. If this worker was still considered
// alive, its death is now certain — no need to wait out the heartbeat
// timeout.
func (w *workerConn) Closed(err error) {
	w.s.logf("remote: worker %s link ended: %v", w.name, err)
	w.s.declareDead(w, "connection lost")
}

// declareDead marks a worker dead, takes its nodes down, and fails its
// running jobs with ErrNodeFailed so the engine requeues them elsewhere —
// the paper's node-failure handling (§3.3), at worker granularity. The
// connection is left open on purpose: a worker that was only partitioned
// may still deliver completions, which the lease check then drops.
func (s *Server) declareDead(w *workerConn, reason string) {
	s.mu.Lock()
	if w.dead || s.workers[w.name] != w {
		s.mu.Unlock()
		return
	}
	w.dead = true
	s.declaredDead++
	for _, n := range w.nodes {
		s.dir.SetUp(n, false)
	}
	var lost []*lease
	for job, lz := range s.running {
		if lz.worker == w.name && lz.inc == w.inc {
			lost = append(lost, lz)
			delete(s.running, job)
		}
	}
	deliver := s.onCompletion
	onChange := s.onChange
	s.mu.Unlock()
	s.mWorkersDead.Inc()

	s.logf("remote: worker %s declared dead (%s), %d jobs requeued", w.name, reason, len(lost))
	if s.cfg.OnNodeEvent != nil {
		s.cfg.OnNodeEvent(w.name, false, reason)
	}
	for _, lz := range lost {
		if deliver != nil {
			deliver(cluster.Completion{
				Job:  cluster.JobID(lz.job),
				Node: lz.node,
				Err:  fmt.Errorf("%w: worker %s %s", cluster.ErrNodeFailed, w.name, reason),
			})
		}
	}
	if onChange != nil {
		onChange()
	}
}

// handleCompletion decodes a worker's result from the frame w.dec is open
// on, validates it against the current lease and delivers it to the engine.
// Anything stale — unknown job, reused job ID under a newer lease, dead
// worker, pre-crash incarnation — is dropped. The lease supplies the job and
// node strings; the frame's job bytes only find it.
func (s *Server) handleCompletion(w *workerConn) error {
	var m Completion
	job, err := m.Decode(&w.dec)
	if err != nil {
		return err
	}
	s.mu.Lock()
	lz := s.running[string(job)]
	valid := lz != nil && lz.id == m.Lease && lz.worker == w.name &&
		lz.inc == m.Incarnation && lz.inc == w.inc &&
		!w.dead && s.workers[w.name] == w
	if !valid {
		s.droppedStale++
		s.mu.Unlock()
		s.mStaleDrops.Inc()
		s.logf("remote: dropped stale completion for job %s from %s (lease %d)", job, w.name, m.Lease)
		return nil
	}
	delete(s.running, lz.job)
	s.dir.Release(lz.node)
	deliver := s.onCompletion
	s.mu.Unlock()

	c := cluster.Completion{
		Job:     cluster.JobID(lz.job),
		Node:    lz.node,
		CPUTime: time.Duration(m.CPUNanos),
		Outputs: m.Outputs,
	}
	if m.Error != "" {
		c.ProgramErr = errors.New(m.Error)
		c.Outputs = nil
	}
	if c.Outputs == nil && c.ProgramErr == nil {
		// The worker ran the program; an empty (non-nil) output map keeps
		// the engine from running it again at completion time.
		c.Outputs = map[string]ocr.Value{}
	}
	if deliver != nil {
		deliver(c)
	}
	return nil
}
