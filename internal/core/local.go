package core

import (
	"fmt"
	"runtime"
	"sync"

	"bioopera/internal/cluster"
	"bioopera/internal/obs"
	"bioopera/internal/ocr"
	"bioopera/internal/sim"
	"bioopera/internal/store"
)

// LocalRuntime drives the same engine in real time: activities execute on
// a pool of worker goroutines ("local nodes", one CPU slot each) and their
// external bindings really run. The runnable examples use it; the
// experiments use the deterministic SimRuntime instead.
//
// The engine is internally synchronized, so the runtime adds no lock of
// its own: workers deliver completions to HandleCompletion directly and
// independent instances truly execute in parallel. The embedded
// RuntimeBase supplies Do/Wait, shared with the remote runtime.
type LocalRuntime struct {
	RuntimeBase

	Store store.Store

	exec *localExec
}

// LocalConfig configures a LocalRuntime.
type LocalConfig struct {
	// Workers is the number of single-slot local nodes (default:
	// GOMAXPROCS).
	Workers int
	// Store defaults to an in-memory store.
	Store store.Store
	// Library is required.
	Library *Library
	// OnEvent observes engine events (called under the instance's shard
	// lock; must not call back into the engine).
	OnEvent func(Event)
	// OnError observes persistence failures (see Options.OnError).
	OnError func(error)
	// Metrics enables engine instrumentation plus the pool's
	// slot-occupancy gauges (see Options.Metrics).
	Metrics *obs.Registry
	// EventRing receives emitted events for live tailing (see
	// Options.EventRing).
	EventRing *obs.Ring
	// Owns partitions instance ownership for federated members sharing a
	// store (see Options.Owns).
	Owns func(id string) bool
}

// NewLocalRuntime builds the pool and engine.
func NewLocalRuntime(cfg LocalConfig) (*LocalRuntime, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Store == nil {
		cfg.Store = store.NewMem()
	}
	if cfg.Library == nil {
		return nil, fmt.Errorf("core: LocalConfig needs a Library")
	}
	rt := &LocalRuntime{Store: cfg.Store}
	rt.exec = newLocalExec(rt, cfg.Library, cfg.Workers)
	eng, err := New(Options{
		Store:     cfg.Store,
		Library:   cfg.Library,
		Executor:  rt.exec,
		Clock:     sim.NewWall(),
		OnEvent:   cfg.OnEvent,
		OnError:   cfg.OnError,
		Metrics:   cfg.Metrics,
		EventRing: cfg.EventRing,
		Owns:      cfg.Owns,
		OnInstanceDone: func(*Instance) {
			rt.Bump()
		},
	})
	if err != nil {
		return nil, err
	}
	rt.Bind(eng)
	if cfg.Metrics != nil {
		workers := cfg.Workers
		cfg.Metrics.GaugeFunc("bioopera_local_slots_total",
			"Worker slots in the local pool.",
			func() float64 { return float64(workers) })
		cfg.Metrics.GaugeFunc("bioopera_local_slots_busy",
			"Worker slots currently executing an activity.",
			func() float64 { return float64(rt.exec.busySlots()) })
	}
	return rt, nil
}

// Close stops accepting work and waits for in-flight checkpoint flushes to
// commit, so the caller may close the store immediately after. Running
// workers drain.
func (rt *LocalRuntime) Close() {
	ex := rt.exec
	ex.mu.Lock()
	ex.closed = true
	idle := ex.idle
	ex.idle = nil
	ex.mu.Unlock()
	// Outside the lock: a parked worker wakes to a closed mailbox and exits.
	for _, w := range idle {
		close(w.mail)
	}
	rt.Engine().QuiesceCheckpoints()
}

// localExec is the worker pool behind LocalRuntime. One slot per "node",
// tracked in a cluster.Directory like the remote server's. Dispatches
// carry a sequence token so a stale worker (whose job was killed and
// possibly re-dispatched) can never free the wrong slot or deliver a stale
// result. ex.mu guards the pool's own state only; it is a leaf lock —
// never held across engine calls.
type localExec struct {
	rt  *LocalRuntime
	lib *Library // the engine's: a slot looks its program up here
	dir *cluster.Directory

	mu     sync.Mutex
	closed bool
	seq    uint64
	slots  map[string]*localSlot    // node → slot; the map itself never changes
	live   map[cluster.JobID]uint64 // job → dispatch seq whose result is wanted
	idle   []*localWorker           // parked workers, a stack; at most one per slot
}

// localSlot is one single-CPU local node, and owns the launch it is running:
// a slot runs one program at a time by construction — seq is cleared only by
// the worker it was set for, and Launch refuses a slot whose seq is set — so
// Launch writes the occupant's fields while the slot is free and hands the
// slot to a worker. A launch therefore allocates nothing.
type localSlot struct {
	ex *localExec

	// The occupant. Written under ex.mu by the Launch that takes the free
	// slot; read by the occupant's worker, which copies them out before it
	// frees the slot and never looks again.
	seq uint64 // dispatch seq of the occupant, 0 when free
	l   Launch
}

// localWorker is a goroutine that runs one slot's occupant at a time. Between
// occupants it parks on its mailbox; Launch pops it off ex.idle and sends it
// the slot, and Close closes the mailbox of every parked worker.
type localWorker struct {
	mail chan *localSlot // capacity 1: the one Launch that popped it never blocks
}

func newLocalExec(rt *LocalRuntime, lib *Library, workers int) *localExec {
	ex := &localExec{
		rt:    rt,
		lib:   lib,
		dir:   cluster.NewDirectory(),
		slots: make(map[string]*localSlot, workers),
		live:  make(map[cluster.JobID]uint64),
		idle:  make([]*localWorker, 0, workers),
	}
	for i := 0; i < workers; i++ {
		name := fmt.Sprintf("local-%02d", i)
		ex.dir.Join(cluster.NodeView{
			Name: name, OS: runtime.GOOS,
			Up: true, CPUs: 1, Speed: 1,
		})
		ex.slots[name] = &localSlot{ex: ex}
	}
	return ex
}

// AppendNodes implements Executor.
func (ex *localExec) AppendNodes(dst []cluster.NodeView) []cluster.NodeView {
	return ex.dir.AppendNodes(dst)
}

// busySlots reports occupied worker slots (the slot-occupancy gauge): a slot
// holds its directory reservation exactly while it has an occupant.
func (ex *localExec) busySlots() (n int) {
	for _, v := range ex.dir.Nodes() {
		n += v.Running
	}
	return n
}

// Launch implements Executor: the program executes on a parked worker, or on
// a fresh one if none is parked, and the completion is delivered straight to
// HandleCompletion, which serializes it on the instance's shard. Launch never
// waits for a busy worker: the worker inside HandleCompletion → flushWrites →
// Pump that placed this job is busy until its commits are done, so the job
// goes to another.
func (ex *localExec) Launch(l Launch) error {
	ex.mu.Lock()
	if ex.closed {
		ex.mu.Unlock()
		return fmt.Errorf("core: local runtime closed")
	}
	s := ex.slots[l.Node]
	if s != nil && s.seq != 0 {
		ex.mu.Unlock()
		return cluster.ErrNoFreeCPU
	}
	// Reserve refuses a node the pool does not have, so s is not nil past it.
	if err := ex.dir.Reserve(l.Node); err != nil {
		ex.mu.Unlock()
		return err
	}
	ex.seq++
	s.seq, s.l = ex.seq, l
	ex.live[l.Job] = ex.seq
	var w *localWorker
	if n := len(ex.idle); n > 0 {
		w = ex.idle[n-1]
		ex.idle = ex.idle[:n-1]
	}
	ex.mu.Unlock()
	if w != nil {
		w.mail <- s
		return nil
	}
	go ex.worker(s)
	return nil
}

// worker runs s's occupant, then parks for the next slot a Launch hands it.
// It exits when the pool already holds a parked worker per slot, when the
// pool is closed, or when its occupant's result was discarded: a kill is
// rare, and the attempt that replaced the killed one has a worker of its own.
func (ex *localExec) worker(s *localSlot) {
	var w *localWorker
	for {
		if !s.work() {
			return
		}
		if w == nil {
			w = &localWorker{mail: make(chan *localSlot, 1)}
		}
		ex.mu.Lock()
		if ex.closed || len(ex.idle) == cap(ex.idle) {
			ex.mu.Unlock()
			return
		}
		ex.idle = append(ex.idle, w)
		ex.mu.Unlock()
		var ok bool
		if s, ok = <-w.mail; !ok {
			return
		}
	}
}

// work runs the slot's occupant and delivers its completion, reporting
// whether the result was wanted. A binding the library lacks is reported as
// not run — nil outputs, nil program error — and the completion turn's own
// lookup fails the instance, as on the simulator.
func (s *localSlot) work() bool {
	ex := s.ex
	l, mySeq := s.l, s.seq
	c := cluster.Completion{Job: l.Job, Node: l.Node}
	eng := ex.rt.Engine()
	t0 := eng.now()
	if prog, ok := ex.lib.Lookup(l.Program); ok {
		c.Outputs, c.ProgramErr = prog.Run(l.Ctx, l.Inputs)
		switch {
		case c.ProgramErr != nil:
			c.Outputs = nil
		case c.Outputs == nil:
			c.Outputs = map[string]ocr.Value{}
		}
	}
	c.CPUTime = eng.now().Sub(t0)

	ex.mu.Lock()
	if s.seq == mySeq {
		s.seq, s.l = 0, Launch{}
		ex.dir.Release(l.Node)
	}
	if ex.live[l.Job] != mySeq {
		ex.mu.Unlock()
		// Killed (or superseded): the result is discarded, but the
		// slot just freed may unblock the queue.
		eng.Pump()
		ex.rt.Bump()
		return false
	}
	delete(ex.live, l.Job)
	ex.mu.Unlock()
	eng.HandleCompletion(c)
	ex.rt.Bump()
	return true
}

// Kill implements Executor: the goroutine cannot be interrupted, but its
// result is discarded and the engine immediately sees the job as killed.
func (ex *localExec) Kill(id cluster.JobID, node string) error {
	ex.mu.Lock()
	if _, ok := ex.live[id]; !ok {
		ex.mu.Unlock()
		return fmt.Errorf("core: job %s not running", id)
	}
	delete(ex.live, id)
	ex.mu.Unlock()
	// Deliver the kill asynchronously, mirroring the simulated cluster;
	// the engine defers kills past navigation, so the completion may
	// even be handled before this goroutine runs — both orders are safe.
	//bioopera:allow goroleak one-shot completion delivery: the goroutine runs a single HandleCompletion and exits; there is nothing to park it on
	go func() {
		ex.rt.Engine().HandleCompletion(cluster.Completion{
			Job:  id,
			Node: node,
			Err:  cluster.ErrJobKilled,
		})
		ex.rt.Bump()
	}()
	return nil
}
