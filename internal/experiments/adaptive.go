package experiments

import (
	"fmt"
	"time"

	"bioopera/internal/allvsall"
	"bioopera/internal/cluster"
	"bioopera/internal/core"
	"bioopera/internal/sched"
	"bioopera/internal/sim"
)

// This file evaluates the scheduler's granularity autotuning: instead of
// asking the user for the number of TEUs (the Fig. 4 knob), the Batcher
// watches the cluster's external load and picks the batch count itself —
// large batches of small tasks when competing load is volatile (stragglers
// re-balance), the Fig. 4 sweet spot (~4× CPUs) when the cluster is idle.
// The comparison baseline is the naive fixed choice of one TEU per CPU.

// AdaptiveOptions configure the adaptive-batching comparison.
type AdaptiveOptions struct {
	// N is the dataset size.
	N int
	// MeanLen is the mean sequence length.
	MeanLen int
	// Seed drives dataset generation and the simulation.
	Seed int64
	// Warmup is how long the batcher observes cluster load before the
	// process starts.
	Warmup time.Duration
	// SampleEvery is the batcher's load-sampling cadence.
	SampleEvery time.Duration
}

func (o *AdaptiveOptions) fill() {
	if o.N == 0 {
		o.N = 200
	}
	if o.MeanLen == 0 {
		o.MeanLen = 360
	}
	if o.Seed == 0 {
		o.Seed = 4
	}
	if o.Warmup == 0 {
		o.Warmup = 2 * time.Hour
	}
	if o.SampleEvery == 0 {
		o.SampleEvery = 15 * time.Second
	}
}

// AdaptiveCell is one (profile, mode) measurement.
type AdaptiveCell struct {
	Profile string // "idle" or "volatile"
	Mode    string // "fixed" or "adaptive"
	TEUs    int
	Stress  float64 // batcher's load estimate at decision time (adaptive only)
	WALL    time.Duration
}

// AdaptiveResult is the 2×2 comparison.
type AdaptiveResult struct {
	Options AdaptiveOptions
	CPUs    int
	Cells   []AdaptiveCell
}

// AdaptiveBatching runs the comparison: load profile × granularity mode.
//
//bioopera:allow deadcode BenchmarkAdaptiveBatching and its BENCH_6.json CI gate run it; no program does
func AdaptiveBatching(opts AdaptiveOptions) (*AdaptiveResult, error) {
	opts.fill()
	res := &AdaptiveResult{Options: opts, CPUs: cluster.IkSun().TotalCPUs()}
	for _, profile := range []string{"idle", "volatile"} {
		for _, mode := range []string{"fixed", "adaptive"} {
			cell, err := runAdaptive(opts, profile, mode == "adaptive")
			if err != nil {
				return nil, err
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

func runAdaptive(opts AdaptiveOptions, profile string, adaptive bool) (AdaptiveCell, error) {
	spec := cluster.IkSun()
	ds := simDataset(opts.N, opts.MeanLen, opts.Seed)
	cfg := &allvsall.Config{Dataset: ds, Simulate: true}
	var rtp *core.SimRuntime
	rt, err := buildRuntime(opts.Seed, spec, cfg, core.SimConfig{
		Options: core.Options{OnInstanceDone: func(*core.Instance) {
			if rtp != nil {
				rtp.Sim.Stop()
			}
		}},
	})
	if err != nil {
		return AdaptiveCell{}, err
	}
	rtp = rt

	// Competing load. "idle": nothing. "volatile": a square wave on two of
	// the five nodes — 0 ↔ 0.8 flipping every minute, the bursty outside
	// user of §5.2 — which keeps running for the whole computation. The
	// period is short against the per-CPU batch duration, so big batches
	// pinned to the bursty nodes straggle while small ones rebalance.
	// Activities run nice so the external load actually slows them
	// (shared-cluster mode).
	nice := false
	if profile == "volatile" {
		nice = true
		burst := []string{spec.Nodes[0].Name, spec.Nodes[1].Name}
		var cycle func(on bool) sim.Handler
		cycle = func(on bool) sim.Handler {
			return func(sim.Time) {
				lvl := 0.0
				if on {
					lvl = 0.8
				}
				for _, n := range burst {
					rt.Cluster.SetExternalLoad(n, lvl)
				}
				rt.Sim.After(time.Minute, cycle(!on))
			}
		}
		rt.Sim.At(0, cycle(true))
	}

	// The batcher samples cluster load through the warmup window, then
	// fixes the granularity for the run — the decision the dispatcher
	// would otherwise ask the user to make via the TEUs input.
	batcher := sched.NewBatcher(sched.DefaultBatchConfig())
	rt.Sim.Every(opts.SampleEvery, func(sim.Time) {
		batcher.ObserveLoad(rt.Cluster.Nodes())
	})
	rt.RunUntil(sim.Time(opts.Warmup))

	teus := spec.TotalCPUs() // naive baseline: one TEU per CPU
	stress := 0.0
	if adaptive {
		teus = batcher.TEUs(rt.Cluster.Nodes())
		stress = batcher.Stress()
	}
	id, err := startAllVsAll(rt, cfg, teus, nice)
	if err != nil {
		return AdaptiveCell{}, err
	}
	rt.Run()
	in, _ := rt.Engine.Instance(id)
	if in.Status != core.InstanceDone {
		return AdaptiveCell{}, fmt.Errorf("adaptive %s: %s (%s)", profile, in.Status, in.FailureReason)
	}
	mode := "fixed"
	if adaptive {
		mode = "adaptive"
	}
	return AdaptiveCell{
		Profile: profile,
		Mode:    mode,
		TEUs:    teus,
		Stress:  stress,
		WALL:    in.WALL(rt.Sim.Now()),
	}, nil
}

// Cell returns the measurement for a profile/mode pair.
//
//bioopera:allow deadcode BenchmarkAdaptiveBatching and its BENCH_6.json CI gate read it; no program does
func (r *AdaptiveResult) Cell(profile, mode string) *AdaptiveCell {
	for i := range r.Cells {
		if r.Cells[i].Profile == profile && r.Cells[i].Mode == mode {
			return &r.Cells[i]
		}
	}
	return nil
}
