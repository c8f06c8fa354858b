package core

import (
	"sort"
	"strconv"
	"time"

	"bioopera/internal/obs"
)

// engineMetrics holds pre-resolved metric handles so the instrumented hot
// paths (emit, navigation turns) touch only atomics — no registry lookup,
// no lock, no allocation. A nil *engineMetrics disables everything behind
// a single pointer check; every method is safe on a nil receiver.
type engineMetrics struct {
	events      map[EventKind]*obs.Counter
	otherEvents *obs.Counter
	turnSeconds *obs.Histogram
	shardTurns  []*obs.Counter

	// Checkpoint pipeline instrumentation: the first four by cutCkpt, under
	// the shard lock; ckptFenced by flushWrites, outside it.
	ckpts       *obs.Counter
	ckptMarshal *obs.Histogram
	ckptBytes   *obs.Counter
	ckptRecords *obs.Counter
	ckptFenced  *obs.Counter

	// Scheduler instrumentation. Decision latency reads zero under the sim
	// clock (virtual time does not advance mid-drain), keeping sim runs
	// deterministic.
	schedDecide *obs.Histogram
}

// newEngineMetrics registers the engine's instrumentation: event counters
// by kind, per-shard navigation turn counts, turn latency, and the
// dispatcher gauges (sampled at scrape time, so they cost nothing on the
// hot path).
func newEngineMetrics(reg *obs.Registry, e *Engine) *engineMetrics {
	m := &engineMetrics{events: make(map[EventKind]*obs.Counter, len(allEventKinds))}
	vec := reg.CounterVec("bioopera_engine_events_total", "Engine events by kind.", "kind")
	for _, k := range allEventKinds {
		m.events[k] = vec.With(string(k))
	}
	m.otherEvents = vec.With("other")
	m.turnSeconds = reg.Histogram("bioopera_engine_turn_seconds",
		"Navigation turn latency: time an instance's shard lock is held per turn.", nil)
	turns := reg.CounterVec("bioopera_engine_turns_total", "Navigation turns by lock shard.", "shard")
	m.shardTurns = make([]*obs.Counter, len(e.shards))
	for i := range e.shards {
		m.shardTurns[i] = turns.With(strconv.Itoa(i))
	}
	m.ckpts = reg.Counter("bioopera_checkpoints_total",
		"Checkpoint batches committed (including archives).")
	m.ckptMarshal = reg.Histogram("bioopera_checkpoint_marshal_seconds",
		"Time spent encoding one checkpoint's records, under the shard lock.", nil)
	m.ckptBytes = reg.Counter("bioopera_checkpoint_bytes_total",
		"Serialized checkpoint record bytes written.")
	m.ckptRecords = reg.Counter("bioopera_checkpoint_records_total",
		"Individual records written across checkpoint batches.")
	m.ckptFenced = reg.Counter("bioopera_checkpoints_fenced_total",
		"Checkpoint batches dropped by the ownership write fence.")
	m.schedDecide = reg.Histogram("bioopera_sched_decide_seconds",
		"Scheduler decision latency per dispatched (or declined) drain step.", nil)
	reg.GaugeFunc("bioopera_engine_queue_depth",
		"Activities awaiting dispatch.",
		func() float64 { return float64(e.QueueLen()) })
	reg.GaugeFunc("bioopera_sched_held_jobs",
		"Queued activities of suspended instances: counted in the queue depth, not dispatchable until Resume; a recovered suspended instance's count once it hydrates.",
		func() float64 { return float64(e.HeldJobs()) })
	// Per-tenant and per-priority queue depth. Label sets must be fixed at
	// registration, so tenants come from the configured quota map (plus the
	// default bucket) and priorities cover the engine's practical range.
	tenants := make([]string, 0, len(e.opts.Quotas)+1)
	tenants = append(tenants, "")
	for t := range e.opts.Quotas {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	for _, t := range tenants {
		t := t
		label := t
		if label == "" {
			label = "default"
		}
		reg.GaugeFuncWith("bioopera_sched_queue_depth_tenant",
			"Activities awaiting dispatch, by tenant.", "tenant", label,
			func() float64 {
				byTenant, _ := e.QueueDepths()
				return float64(byTenant[t])
			})
	}
	for p := 0; p <= 7; p++ {
		p := p
		reg.GaugeFuncWith("bioopera_sched_queue_depth_priority",
			"Activities awaiting dispatch, by priority level.", "priority", strconv.Itoa(p),
			func() float64 {
				_, byPrio := e.QueueDepths()
				return float64(byPrio[p])
			})
	}
	reg.GaugeFunc("bioopera_engine_running_jobs",
		"Activities executing on the cluster.",
		func() float64 { return float64(e.RunningJobs()) })
	reg.GaugeFunc("bioopera_engine_instances",
		"Instances in the registry (all statuses).",
		func() float64 {
			e.emu.RLock()
			n := len(e.order)
			e.emu.RUnlock()
			return float64(n)
		})
	return m
}

// event counts one emitted engine event by kind. The kind map is immutable
// after construction, so the lookup is safe from any goroutine.
func (m *engineMetrics) event(k EventKind) {
	if m == nil {
		return
	}
	if c, ok := m.events[k]; ok {
		c.Inc()
		return
	}
	m.otherEvents.Inc()
}

// turn records one completed navigation turn on the given shard.
func (m *engineMetrics) turn(shard int, d time.Duration) {
	if m == nil {
		return
	}
	m.shardTurns[shard].Inc()
	m.turnSeconds.Observe(d.Seconds())
}

// checkpoint records one cut checkpoint: encode latency, bytes and record
// count. Under the sim clock the encode duration reads zero (virtual time
// does not advance mid-turn), keeping sim runs deterministic.
func (m *engineMetrics) checkpoint(encode time.Duration, bytes, records int) {
	if m == nil {
		return
	}
	m.ckpts.Inc()
	m.ckptMarshal.Observe(encode.Seconds())
	m.ckptBytes.Add(uint64(bytes))
	m.ckptRecords.Add(uint64(records))
}

// fenced counts one checkpoint batch dropped by the ownership write fence.
func (m *engineMetrics) fenced() {
	if m == nil {
		return
	}
	m.ckptFenced.Inc()
}

// decision records one scheduler drain step's decision latency.
func (m *engineMetrics) decision(d time.Duration) {
	if m == nil {
		return
	}
	m.schedDecide.Observe(d.Seconds())
}

// beginTurn stamps the start of a navigation turn; endTurn observes the
// latency. Caller holds the instance's shard. Under the sim clock a turn
// is instantaneous in virtual time, so simulated histograms read zero —
// deterministic by construction; real runtimes see real lock-hold times.
func (e *Engine) beginTurn(in *Instance) {
	if e.metrics != nil {
		in.turnStart = e.now()
		in.turnLive = true
	}
}
