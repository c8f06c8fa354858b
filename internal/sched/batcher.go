package sched

import (
	"bioopera/internal/cluster"
	"bioopera/internal/obs"
)

// BatchConfig tunes granularity autotuning.
type BatchConfig struct {
	// FactorIdle is the TEUs-per-CPU target on a quiet cluster. Fig. 4's
	// sweep puts the wall-time optimum near 4× the CPU count: large
	// batches amortize DarwinInit, but below ~4× the merge barrier waits
	// on stragglers.
	FactorIdle float64
	// FactorLoaded is the TEUs-per-CPU target under heavy or volatile
	// external load: smaller batches lose less work to preemption and
	// rebalance around slowed nodes. Past ~2× the idle factor the per-batch
	// overhead (Fig. 4's S3 tail) eats the rebalancing gain, so the default
	// doubles rather than explodes the batch count.
	FactorLoaded float64
	// Min and Max clamp the recommendation (Max 0 = uncapped).
	Min, Max int
	// Alpha smooths the load and volatility trackers (default 0.5).
	Alpha float64
	// Metrics, when non-nil, registers the batch-size histogram
	// bioopera_sched_batch_teus, observed on every recommendation.
	Metrics *obs.Registry
}

// DefaultBatchConfig returns the paper-derived tuning.
func DefaultBatchConfig() BatchConfig {
	return BatchConfig{FactorIdle: 4, FactorLoaded: 8, Min: 1, Alpha: 0.5}
}

// Batcher recommends how many task execution units to split a workload
// into, from cluster load feedback: batches grow (fewer TEUs) on idle
// nodes and shrink (more TEUs) when external load is high or volatile.
// Feed it NodeView samples via ObserveLoad — from the simulated cluster,
// the local pool, or remote heartbeats — then ask TEUs for the current
// recommendation. Deterministic; not safe for concurrent use.
type Batcher struct {
	cfg    BatchConfig
	avg    float64 // EWMA of mean external load across up nodes
	vol    float64 // EWMA of |load delta| between samples
	seeded bool
	hist   *obs.Histogram
}

// NewBatcher builds a batcher; zero config fields fall back to
// DefaultBatchConfig values.
func NewBatcher(cfg BatchConfig) *Batcher {
	def := DefaultBatchConfig()
	if cfg.FactorIdle <= 0 {
		cfg.FactorIdle = def.FactorIdle
	}
	if cfg.FactorLoaded <= 0 {
		cfg.FactorLoaded = def.FactorLoaded
	}
	if cfg.Min <= 0 {
		cfg.Min = def.Min
	}
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		cfg.Alpha = def.Alpha
	}
	b := &Batcher{cfg: cfg}
	if cfg.Metrics != nil {
		b.hist = cfg.Metrics.Histogram("bioopera_sched_batch_teus",
			"Batch sizes (task execution units) recommended by the granularity autotuner.",
			obs.SizeBuckets)
	}
	return b
}

// ObserveLoad folds one cluster snapshot into the load trackers: the mean
// external load across up nodes updates the level EWMA, and the absolute
// change since the previous sample updates the volatility EWMA.
func (b *Batcher) ObserveLoad(nodes []cluster.NodeView) {
	var sum float64
	var up int
	for _, v := range nodes {
		if v.Up {
			sum += v.ExtLoad
			up++
		}
	}
	if up == 0 {
		return
	}
	load := sum / float64(up)
	if !b.seeded {
		b.avg = load
		b.seeded = true
		return
	}
	delta := load - b.avg
	if delta < 0 {
		delta = -delta
	}
	b.vol += b.cfg.Alpha * (delta - b.vol)
	b.avg += b.cfg.Alpha * (load - b.avg)
}

// Stress folds load level and volatility into one [0, 1] figure that
// drives the idle→loaded interpolation: volatility counts double because
// a swinging cluster invalidates placement decisions faster than a
// steadily busy one.
func (b *Batcher) Stress() float64 {
	s := b.avg + 2*b.vol
	if s < 0 {
		s = 0
	}
	if s > 1 {
		s = 1
	}
	return s
}

// TEUs recommends the number of task execution units for the given
// cluster: FactorIdle×CPUs on a quiet cluster, sliding toward
// FactorLoaded×CPUs as stress rises, clamped to [Min, Max].
func (b *Batcher) TEUs(nodes []cluster.NodeView) int {
	cpus := 0
	for _, v := range nodes {
		if v.Up {
			cpus += v.CPUs
		}
	}
	if cpus == 0 {
		cpus = 1
	}
	f := b.cfg.FactorIdle + (b.cfg.FactorLoaded-b.cfg.FactorIdle)*b.Stress()
	teus := int(f*float64(cpus) + 0.5)
	if teus < b.cfg.Min {
		teus = b.cfg.Min
	}
	if b.cfg.Max > 0 && teus > b.cfg.Max {
		teus = b.cfg.Max
	}
	b.hist.Observe(float64(teus))
	return teus
}
