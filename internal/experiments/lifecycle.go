package experiments

import (
	_ "embed"
	"fmt"
	"io"
	"strings"
	"time"

	"bioopera/internal/allvsall"
	"bioopera/internal/cluster"
	"bioopera/internal/core"
	"bioopera/internal/darwin"
	"bioopera/internal/sim"
)

// LifecycleOptions configure the full all-vs-all runs of §5.4 and §5.5.
type LifecycleOptions struct {
	// N is the dataset size. The paper runs SP38's 80,000 entries;
	// the default here is 80000 (tests use less).
	N int
	// MeanLen is the mean sequence length.
	MeanLen int
	// TEUs is the partition count (paper: "a multiple of the number of
	// processors available"). 0 means 560 = 14×40 for the shared run and
	// 480 = 30×16 for the non-shared one.
	TEUs int
	// Seed drives everything.
	Seed int64
	// SampleEvery is the tracker's sampling period.
	SampleEvery time.Duration
}

func (o *LifecycleOptions) fill() {
	if o.N == 0 {
		o.N = 80000
	}
	if o.MeanLen == 0 {
		o.MeanLen = 360
	}
	if o.TEUs == 0 {
		o.TEUs = 560
	}
	if o.Seed == 0 {
		o.Seed = 17
	}
	if o.SampleEvery == 0 {
		o.SampleEvery = 2 * time.Hour
	}
}

// table1CostModel stretches the default model so a full SP38 all-vs-all
// costs ≈ 630 reference-CPU-days, which lands the shared run at the
// paper's ≈ 37-day WALL and the non-shared run at ≈ 50 days.
func table1CostModel() darwin.CostModel {
	m := darwin.DefaultCostModel()
	m.CellTime = 100 * time.Nanosecond
	return m
}

// Table1Row is one column of the paper's Table 1.
type Table1Row struct {
	Label          string
	MaxCPUs        int // "Max. # of CPUs" — peak processors in use
	CPU            time.Duration
	WALL           time.Duration
	CPUPerActivity time.Duration
	Activities     int
	Failures       int
	Retries        int
}

// LifecycleEvent is one annotated event of the run.
type LifecycleEvent struct {
	Day   float64
	Label string
}

// LifecycleResult is one full run: the Table 1 row plus the Fig. 5/6
// availability/utilization trace.
type LifecycleResult struct {
	Row     Table1Row
	Samples []core.Sample
	Events  []LifecycleEvent
}

// The lifecycles' scripts of disturbances (scenario.go).
var (
	//go:embed scenarios/fig5.scn
	fig5 string
	//go:embed scenarios/fig6.scn
	fig6 string
)

// lifecycleRun drives one all-vs-all to completion under a scenario.
func lifecycleRun(opts LifecycleOptions, label, scenario, src string, spec cluster.Spec,
	simCfg core.SimConfig, nice bool) (*LifecycleResult, error) {

	opts.fill()
	ds := simDataset(opts.N, opts.MeanLen, opts.Seed)
	cfg := &allvsall.Config{Dataset: ds, Simulate: true, Cost: table1CostModel()}
	simCfg.TrackEvery = opts.SampleEvery
	// Background processes (load generators, trackers) run forever; end
	// the simulation when the computation completes.
	var rtp *core.SimRuntime
	simCfg.Options.OnInstanceDone = func(*core.Instance) {
		if rtp != nil {
			rtp.Sim.Stop()
		}
	}
	rt, err := buildRuntime(opts.Seed, spec, cfg, simCfg)
	if err != nil {
		return nil, err
	}
	rtp = rt
	in, events, err := RunScenario(rt, scenario, src, nil, func() (string, error) {
		return startAllVsAll(rt, cfg, opts.TEUs, nice)
	})
	if err != nil {
		return nil, fmt.Errorf("lifecycle %s: %w", label, err)
	}
	res := &LifecycleResult{
		Row: Table1Row{
			Label:          label,
			MaxCPUs:        rt.Tracker.PeakBusy(),
			CPU:            in.CPU,
			WALL:           in.WALL(rt.Sim.Now()),
			CPUPerActivity: in.CPUPerActivity(),
			Activities:     in.Activities,
			Failures:       in.Failures,
			Retries:        in.Retries,
		},
		Samples: rt.Tracker.Samples(),
		Events:  events,
	}
	return res, nil
}

// day converts days to virtual time.
func day(d float64) sim.Time { return sim.Time(time.Duration(d * 24 * float64(time.Hour))) }

// SharedLifecycle reproduces the first run (§5.4, Fig. 5): the shared
// linneus+ik-sun cluster, nice mode, competing users, and the paper's ten
// numbered events of scenarios/fig5.scn — manual suspensions, heavy
// competing load, massive cluster failures, a disk-space shortage, server
// maintenance, a BioOpera server crash, and two TEUs failing to report.
func SharedLifecycle(opts LifecycleOptions) (*LifecycleResult, error) {
	return lifecycleRun(opts, "shared cluster", "fig5.scn", fig5, cluster.SharedRunSpec(), core.SimConfig{}, true)
}

// NonSharedLifecycle reproduces the second run (§5.5, Fig. 6): the
// dedicated ik-linux cluster, starting with one CPU per node, and the two
// planned network outages and mid-run hardware upgrade of
// scenarios/fig6.scn, which doubles the processors ("BioOpera took
// advantage of the available CPU power immediately").
func NonSharedLifecycle(opts LifecycleOptions) (*LifecycleResult, error) {
	if opts.TEUs == 0 {
		opts.TEUs = 480 // 30 × the 16 post-upgrade CPUs
	}
	return lifecycleRun(opts, "non-shared cluster", "fig6.scn", fig6, cluster.IkLinux(), core.SimConfig{InitialCPUs: 1}, false)
}

// Table1 runs both lifecycles and assembles the paper's Table 1.
type Table1Result struct {
	Shared    *LifecycleResult
	NonShared *LifecycleResult
}

// Table1 reproduces Table 1 (both all-vs-all runs).
func Table1(opts LifecycleOptions) (*Table1Result, error) {
	shared, err := SharedLifecycle(opts)
	if err != nil {
		return nil, err
	}
	nonShared, err := NonSharedLifecycle(opts)
	if err != nil {
		return nil, err
	}
	return &Table1Result{Shared: shared, NonShared: nonShared}, nil
}

// Fprint renders Table 1 in the paper's layout.
func (r *Table1Result) Fprint(w io.Writer) {
	fmt.Fprintln(w, "Table 1 — Performance of the all-vs-all for the two experiments")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-18s %20s %20s\n", "", "Shared cluster", "Non-shared cluster")
	hline(w, 60)
	fmt.Fprintf(w, "%-18s %20d %20d\n", "Max. # of CPUs", r.Shared.Row.MaxCPUs, r.NonShared.Row.MaxCPUs)
	fmt.Fprintf(w, "%-18s %20s %20s\n", "CPU(A)", days(r.Shared.Row.CPU), days(r.NonShared.Row.CPU))
	fmt.Fprintf(w, "%-18s %20s %20s\n", "WALL(A)", days(r.Shared.Row.WALL), days(r.NonShared.Row.WALL))
	fmt.Fprintf(w, "%-18s %20s %20s\n", "CPU(A)/|A|", r.Shared.Row.CPUPerActivity.Round(time.Minute).String(), r.NonShared.Row.CPUPerActivity.Round(time.Minute).String())
	hline(w, 60)
	fmt.Fprintf(w, "%-18s %20d %20d\n", "activities |A|", r.Shared.Row.Activities, r.NonShared.Row.Activities)
	fmt.Fprintf(w, "%-18s %20d %20d\n", "failures seen", r.Shared.Row.Failures, r.NonShared.Row.Failures)
}

// FprintLifecycle renders one lifecycle as the ASCII analogue of Fig. 5 /
// Fig. 6: per-day availability and utilization bars with event markers.
func FprintLifecycle(w io.Writer, title string, r *LifecycleResult) {
	fmt.Fprintln(w, title)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%6s %5s %5s  %-42s\n", "day", "avail", "util", "(#=availability, *=utilization, 1 char ≈ 1 CPU)")
	hline(w, 72)
	// Aggregate samples per day.
	type agg struct {
		avail, util float64
		n           int
	}
	byDay := map[int]*agg{}
	maxDay := 0
	for _, s := range r.Samples {
		d := int(s.At.Days())
		a, ok := byDay[d]
		if !ok {
			a = &agg{}
			byDay[d] = a
		}
		a.avail += float64(s.Available)
		a.util += s.Effective
		a.n++
		if d > maxDay {
			maxDay = d
		}
	}
	eventsByDay := map[int][]string{}
	for _, e := range r.Events {
		d := int(e.Day)
		eventsByDay[d] = append(eventsByDay[d], e.Label)
	}
	for d := 0; d <= maxDay; d++ {
		a := byDay[d]
		if a == nil || a.n == 0 {
			continue
		}
		avail := a.avail / float64(a.n)
		util := a.util / float64(a.n)
		bar := strings.Repeat("*", int(util+0.5)) + strings.Repeat("#", max(0, int(avail+0.5)-int(util+0.5)))
		marker := ""
		if evs := eventsByDay[d]; len(evs) > 0 {
			marker = "  <- " + strings.Join(evs, "; ")
		}
		fmt.Fprintf(w, "%6d %5.1f %5.1f  %s%s\n", d, avail, util, bar, marker)
	}
	hline(w, 72)
	fmt.Fprintf(w, "%s: WALL %s, CPU %s, peak %d CPUs, %d activities, %d failures survived\n",
		r.Row.Label, days(r.Row.WALL), days(r.Row.CPU), r.Row.MaxCPUs, r.Row.Activities, r.Row.Failures)
}
