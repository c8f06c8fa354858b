package cluster

import (
	"math"
	"time"

	"bioopera/internal/sim"
)

// MonitorConfig tunes the adaptive monitoring technique of §3.4: "the PEC
// compares the last recorded load with the current load at that node. If
// the change falls below some predetermined cut-off level, the interval
// before the next sampling is increased. Otherwise, the interval is
// decreased. Second, the PEC notifies the BioOpera server of changes in
// load only if the amount of change has increased/decreased beyond a
// second predetermined cut-off level."
type MonitorConfig struct {
	// BaseInterval is the initial sampling period.
	BaseInterval time.Duration
	// MinInterval and MaxInterval bound the adaptation.
	MinInterval time.Duration
	MaxInterval time.Duration
	// SampleCutoff is the load delta below which the interval grows.
	SampleCutoff float64
	// ReportCutoff is the minimum delta vs. the last report before the
	// server is notified.
	ReportCutoff float64
	// Grow and Shrink scale the interval on stable/changing load.
	Grow   float64
	Shrink float64
}

// DefaultMonitorConfig returns the configuration used by the experiments.
func DefaultMonitorConfig() MonitorConfig {
	return MonitorConfig{
		BaseInterval: 10 * time.Second,
		MinInterval:  5 * time.Second,
		MaxInterval:  5 * time.Minute,
		SampleCutoff: 0.05,
		ReportCutoff: 0.10,
		Grow:         1.6,
		Shrink:       0.5,
	}
}

func (c *MonitorConfig) fill() {
	if c.BaseInterval <= 0 {
		c.BaseInterval = 10 * time.Second
	}
	if c.MinInterval <= 0 {
		c.MinInterval = time.Second
	}
	if c.MaxInterval <= 0 {
		c.MaxInterval = 5 * time.Minute
	}
	if c.SampleCutoff <= 0 {
		c.SampleCutoff = 0.05
	}
	if c.ReportCutoff <= 0 {
		c.ReportCutoff = 0.10
	}
	if c.Grow <= 1 {
		c.Grow = 1.6
	}
	if c.Shrink <= 0 || c.Shrink >= 1 {
		c.Shrink = 0.5
	}
}

// AdaptiveMonitor is the load-monitoring half of a PEC. It samples a load
// source on the simulator clock and forwards significant changes to the
// server.
type AdaptiveMonitor struct {
	cfg      MonitorConfig
	s        *sim.Sim
	source   func() float64
	report   func(at sim.Time, load float64)
	interval time.Duration
	last     float64
	reported float64
	hasData  bool
	stopped  bool

	// Samples counts local measurements; Reports counts server
	// notifications. Their ratio is the §3.4 "90% of samples
	// discarded" claim.
	Samples int
	Reports int
}

// NewAdaptiveMonitor starts a monitor on s. source returns the node's
// current true load; report delivers notifications to the server.
func NewAdaptiveMonitor(s *sim.Sim, cfg MonitorConfig, source func() float64, report func(at sim.Time, load float64)) *AdaptiveMonitor {
	cfg.fill()
	m := &AdaptiveMonitor{cfg: cfg, s: s, source: source, report: report, interval: cfg.BaseInterval}
	m.schedule()
	return m
}

// Stop halts sampling.
func (m *AdaptiveMonitor) Stop() { m.stopped = true }

func (m *AdaptiveMonitor) schedule() {
	m.s.After(m.interval, func(now sim.Time) {
		if m.stopped {
			return
		}
		m.sample(now)
		m.schedule()
	})
}

func (m *AdaptiveMonitor) sample(now sim.Time) {
	load := m.source()
	m.Samples++
	delta := math.Abs(load - m.last)
	if m.hasData && delta < m.cfg.SampleCutoff {
		m.interval = time.Duration(float64(m.interval) * m.cfg.Grow)
		if m.interval > m.cfg.MaxInterval {
			m.interval = m.cfg.MaxInterval
		}
	} else {
		m.interval = time.Duration(float64(m.interval) * m.cfg.Shrink)
		if m.interval < m.cfg.MinInterval {
			m.interval = m.cfg.MinInterval
		}
	}
	if !m.hasData || math.Abs(load-m.reported) >= m.cfg.ReportCutoff {
		m.reported = load
		m.Reports++
		if m.report != nil {
			m.report(now, load)
		}
	}
	m.last = load
	m.hasData = true
}

// DiscardFraction is the fraction of samples never sent to the server.
func (m *AdaptiveMonitor) DiscardFraction() float64 {
	if m.Samples == 0 {
		return 0
	}
	return 1 - float64(m.Reports)/float64(m.Samples)
}

// LoadTrace is the server-side view of a node's load: a right-continuous
// step function of the reported values, used to compare the server's
// picture against the true load curve.
type LoadTrace struct {
	times []sim.Time
	loads []float64
}

// Add appends a report (times must be non-decreasing).
func (t *LoadTrace) Add(at sim.Time, load float64) {
	t.times = append(t.times, at)
	t.loads = append(t.loads, load)
}

// At returns the server's belief about the load at time x (the last
// report at or before x; 0 before the first report).
func (t *LoadTrace) At(x sim.Time) float64 {
	// Binary search for the last index with times[i] <= x.
	lo, hi := 0, len(t.times)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.times[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return t.loads[lo-1]
}

// MeanAbsError compares the trace against truth sampled every step over
// [0, horizon] — the paper's "average 3% error per sample".
func (t *LoadTrace) MeanAbsError(truth func(sim.Time) float64, horizon sim.Time, step time.Duration) float64 {
	if step <= 0 || horizon <= 0 {
		return 0
	}
	var sum float64
	var n int
	for x := sim.Time(0); x <= horizon; x = x.Add(step) {
		sum += math.Abs(truth(x) - t.At(x))
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
