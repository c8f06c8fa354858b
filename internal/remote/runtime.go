package remote

import (
	"fmt"
	"time"

	"bioopera/internal/cluster"
	"bioopera/internal/core"
	"bioopera/internal/obs"
	"bioopera/internal/sched"
	"bioopera/internal/sim"
	"bioopera/internal/store"
)

// Config configures a remote Runtime.
type Config struct {
	// Addr is the TCP listen address for worker agents (e.g. ":7070";
	// "127.0.0.1:0" picks a free port).
	Addr string
	// Store defaults to an in-memory store.
	Store store.Store
	// Library is required on the server too: recovery and completion-time
	// evaluation still resolve program names locally.
	Library *core.Library
	// Policy defaults to LeastLoaded.
	Policy sched.Policy
	// Quotas assigns per-tenant fair-share weights (see core.Options.Quotas).
	Quotas map[string]float64
	// OnEvent observes engine events plus the runtime's node-joined /
	// node-down events from the failure detector.
	OnEvent func(core.Event)
	// OnError observes persistence failures.
	OnError func(error)
	// HeartbeatEvery / HeartbeatTimeout tune the failure detector; see
	// ServerConfig.
	HeartbeatEvery   time.Duration
	HeartbeatTimeout time.Duration
	// Logf receives protocol diagnostics. May be nil.
	Logf func(format string, args ...any)
	// Metrics enables engine instrumentation plus the server's
	// failure-detector counters and worker gauges (see core.Options.Metrics
	// and ServerConfig.Metrics).
	Metrics *obs.Registry
	// EventRing receives emitted events for live tailing (see
	// core.Options.EventRing).
	EventRing *obs.Ring
}

// Runtime drives the engine against remote workers: the BioOpera server
// process. It is the fourth Executor-backed runtime — same engine, same
// recovery, with activities running on machines that register over TCP.
type Runtime struct {
	core.RuntimeBase

	Store  store.Store
	Server *Server
}

// NewRuntime listens for workers and builds the engine on top of the
// server's Executor. Workers may connect before or after; the dispatcher
// queues activities until capacity registers.
func NewRuntime(cfg Config) (*Runtime, error) {
	if cfg.Store == nil {
		cfg.Store = store.NewMem()
	}
	if cfg.Library == nil {
		return nil, fmt.Errorf("remote: Config needs a Library")
	}
	rt := &Runtime{Store: cfg.Store}
	clock := sim.NewWall()
	srv, err := Listen(cfg.Addr, ServerConfig{
		HeartbeatEvery:   cfg.HeartbeatEvery,
		HeartbeatTimeout: cfg.HeartbeatTimeout,
		Logf:             cfg.Logf,
		Metrics:          cfg.Metrics,
		OnNodeEvent: func(worker string, up bool, detail string) {
			// The configuration space (§3.2) tracks the worker fleet.
			kind := core.EvNodeJoined
			if !up {
				kind = core.EvNodeDown
			}
			rec := []byte(fmt.Sprintf("worker %s up=%v %s", worker, up, detail))
			if err := cfg.Store.Put(store.Configuration, "worker/"+worker, rec); err != nil && cfg.OnError != nil {
				cfg.OnError(fmt.Errorf("remote: record worker %s: %w", worker, err))
			}
			// Route through the engine's event path (journal, ring,
			// metrics, OnEvent) once it is bound; before that — a worker
			// racing the handshake — fall back to the bare callback.
			if eng := rt.Engine(); eng != nil {
				eng.EmitInfra(core.Event{Kind: kind, Node: worker, Detail: detail})
			} else if cfg.OnEvent != nil {
				cfg.OnEvent(core.Event{At: clock.Now(), Kind: kind, Node: worker, Detail: detail})
			}
		},
	})
	if err != nil {
		return nil, err
	}
	rt.Server = srv
	eng, err := core.New(core.Options{
		Store:     cfg.Store,
		Library:   cfg.Library,
		Executor:  srv,
		Clock:     clock,
		Policy:    cfg.Policy,
		Quotas:    cfg.Quotas,
		OnEvent:   cfg.OnEvent,
		OnError:   cfg.OnError,
		Metrics:   cfg.Metrics,
		EventRing: cfg.EventRing,
		OnInstanceDone: func(*core.Instance) {
			rt.Bump()
		},
	})
	if err != nil {
		//bioopera:allow droppederr the engine construction error is returned; closing the fresh listener is best-effort
		srv.Close()
		return nil, err
	}
	rt.Bind(eng)
	srv.SetHandlers(
		func(c cluster.Completion) {
			eng.HandleCompletion(c)
			rt.Bump()
		},
		func() {
			eng.Pump()
			rt.Bump()
		},
	)
	return rt, nil
}

// Addr returns the bound listen address (handy with ":0").
func (rt *Runtime) Addr() string { return rt.Server.Addr() }

// Close tears down the server and every worker connection, and waits for
// in-flight checkpoint flushes to commit (so the caller may close the
// store), returning the listener's close error.
func (rt *Runtime) Close() error {
	err := rt.Server.Close()
	rt.Engine().QuiesceCheckpoints()
	return err
}
