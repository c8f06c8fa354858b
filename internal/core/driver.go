package core

import (
	"fmt"
	"strconv"
	"time"

	"bioopera/internal/cluster"
	"bioopera/internal/sim"
	"bioopera/internal/store"
)

// SimRuntime wires the engine, a simulated cluster, and the discrete-event
// kernel into one deterministic system — the configuration every
// experiment runs on.
type SimRuntime struct {
	Sim     *sim.Sim
	Cluster *cluster.Cluster
	Engine  *Engine
	Tracker *Tracker
	Store   store.Store

	monitors map[string]*cluster.AdaptiveMonitor
	reported map[string]float64
}

// SimConfig configures a SimRuntime.
type SimConfig struct {
	// Seed drives all randomness.
	Seed int64
	// Spec is the cluster hardware. Required.
	Spec cluster.Spec
	// Store defaults to an in-memory store.
	Store store.Store
	// Library defaults to an empty library.
	Library *Library
	// Engine options applied on top (Policy, callbacks).
	Options Options
	// TrackEvery enables the availability/utilization tracker at the
	// given period (0 = disabled).
	TrackEvery time.Duration
	// InitialCPUs optionally caps per-node CPUs at start (Fig. 6's
	// pre-upgrade state).
	InitialCPUs int
	// Monitor attaches an adaptive load monitor (a PEC duty, §3.4) to
	// every node; reports land in the runtime's ReportedLoads view and
	// the store's event journal.
	Monitor bool
}

// simExec adapts the simulated cluster to the Executor contract. It models
// only the scheduling decision (job, node, cost, niceness): leaving the
// completion's Outputs nil makes the engine run the external binding at
// completion time, so the discrete-event trace never depends on real
// execution.
type simExec struct{ c *cluster.Cluster }

// AppendNodes implements Executor.
func (x simExec) AppendNodes(dst []cluster.NodeView) []cluster.NodeView { return x.c.AppendNodes(dst) }

// Launch implements Executor.
func (x simExec) Launch(l Launch) error {
	return x.c.Start(l.Job, l.Node, l.Cost, l.Nice)
}

// Kill implements Executor.
func (x simExec) Kill(id cluster.JobID, node string) error { return x.c.Kill(id, node) }

// NewSimRuntime builds the wired system. The cluster's configuration is
// recorded in the store's configuration space.
func NewSimRuntime(cfg SimConfig) (*SimRuntime, error) {
	s := sim.New(cfg.Seed)
	st := cfg.Store
	if st == nil {
		st = store.NewMem()
	}
	lib := cfg.Library
	if lib == nil {
		lib = NewLibrary()
	}
	rt := &SimRuntime{Sim: s, Store: st}
	rt.Cluster = cluster.New(s, cfg.Spec, cluster.Options{InitialCPUs: cfg.InitialCPUs})
	opts := cfg.Options
	opts.Store = st
	opts.Library = lib
	opts.Executor = simExec{rt.Cluster}
	opts.Clock = s
	eng, err := New(opts)
	if err != nil {
		return nil, err
	}
	rt.Engine = eng

	rt.Cluster.SetHandlers(
		func(c cluster.Completion) { eng.HandleCompletion(c) },
		func(ev cluster.Event) {
			// Infrastructure events feed the awareness model's
			// journal (§3.4: node availability, failures, load are
			// all stored persistently). A job's start, end or failure
			// is followed by a turn — the job's completion, or this
			// one's — whose batch carries the record; the others
			// commit at once.
			rec := Event{At: ev.At, Kind: clusterEventKind(ev.Type), Node: ev.Node, Detail: ev.Detail}
			switch ev.Type {
			case cluster.EvJobStart, cluster.EvJobEnd, cluster.EvJobFail:
				eng.deferred.add(&rec)
			default:
				eng.journalNow(&rec)
			}
			// Capacity may have appeared: node back up, CPUs
			// added, or a slot freed by a failure.
			switch ev.Type {
			case cluster.EvNodeUp, cluster.EvCPUChange, cluster.EvLoadChange:
				eng.Pump()
			}
		},
	)

	// Record the configuration space (§3.2). A failure flows to the same
	// OnError the engine uses.
	for _, n := range cfg.Spec.Nodes {
		rec := []byte(n.Name + " os=" + n.OS)
		if err := st.Put(store.Configuration, "node/"+n.Name, rec); err != nil && cfg.Options.OnError != nil {
			cfg.Options.OnError(fmt.Errorf("core: sim runtime record node config: %w", err))
		}
	}

	if cfg.TrackEvery > 0 {
		rt.Tracker = NewTracker(s, rt.Cluster, cfg.TrackEvery)
	}
	if cfg.Monitor {
		rt.monitors = make(map[string]*cluster.AdaptiveMonitor, len(cfg.Spec.Nodes))
		rt.reported = make(map[string]float64, len(cfg.Spec.Nodes))
		for _, n := range cfg.Spec.Nodes {
			name := n.Name
			rt.monitors[name] = cluster.NewAdaptiveMonitor(s, cluster.DefaultMonitorConfig(),
				func() float64 { return rt.Cluster.Load(name) },
				func(at sim.Time, load float64) {
					rt.reported[name] = load
					rt.Engine.journalNow(&Event{At: at, Kind: evLoadReport, Node: name,
						Detail: strconv.FormatFloat(load, 'g', -1, 64)})
				})
		}
	}
	return rt, nil
}

// ReportedLoads returns the server's current belief about each node's
// load, as delivered by the adaptive monitors (empty unless
// SimConfig.Monitor was set).
func (rt *SimRuntime) ReportedLoads() map[string]float64 {
	out := make(map[string]float64, len(rt.reported))
	for k, v := range rt.reported {
		out[k] = v
	}
	return out
}

// MonitorStats aggregates the PEC monitors' sampling statistics: total
// local samples and reports actually sent to the server.
func (rt *SimRuntime) MonitorStats() (samples, reports int) {
	for _, m := range rt.monitors {
		samples += m.Samples
		reports += m.Reports
	}
	return samples, reports
}

// Failover models the backup-server architecture the paper names as
// future work (§6: "a backup architecture for the BioOpera server so that
// if a server fails or requires maintenance, the backup can assume control
// and continue execution smoothly"): a standby engine is built over the
// same store and cluster, the cluster's completion stream is re-pointed at
// it, and it recovers every unfinished instance. The old engine is dead
// from this point on (its completions would be stale anyway). Returns the
// standby, which also replaces rt.Engine.
func (rt *SimRuntime) Failover() (*Engine, error) {
	old := rt.Engine
	opts := old.opts
	// The journal records the old engine's next turn would have carried.
	old.flushDeferred()
	standby, err := New(opts)
	if err != nil {
		return nil, err
	}
	// Orphan the old engine: no more completions reach it.
	rt.Cluster.SetHandlers(
		func(c cluster.Completion) { standby.HandleCompletion(c) },
		func(ev cluster.Event) {
			switch ev.Type {
			case cluster.EvNodeUp, cluster.EvCPUChange, cluster.EvLoadChange:
				standby.Pump()
			}
		},
	)
	if _, err := standby.Recover(); err != nil {
		return nil, err
	}
	rt.Engine = standby
	return standby, nil
}

// Run drives the simulation until the agenda drains and returns the final
// virtual time.
func (rt *SimRuntime) Run() sim.Time { return rt.Sim.Run() }

// RunUntil drives the simulation to the given virtual time.
func (rt *SimRuntime) RunUntil(t sim.Time) sim.Time { return rt.Sim.RunUntil(t) }
