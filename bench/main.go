// Command bench is the repository's benchmark: four workloads that drive
// the real layers (ocr, core, sched, codec, store, wal, remote, sim/cluster)
// through their public functions, eight end-to-end metrics per workload, and
// a traced mode that reports per-layer numbers from spans recorded around
// the calls into each layer. See README.md in this directory.
//
//	go run ./bench                              # all four workloads, summary table
//	go run ./bench --workload disk_chains --seed 7 --seconds 30 --trace 0
//	go run ./bench -selfcheck                   # every workload twice, medians compared
//
// The last line of standard output of a single-workload run is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"bioopera/internal/core"
	"bioopera/internal/obs"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef declares a metric of BENCHMARK.json: its unit, and for the
// end-to-end ones the direction and the share of the median by which it may
// worsen before a change counts as a regression.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEndDefs are the eight metrics every workload reports, untraced. The
// counts repeat to a fraction of a percent and keep tight bounds. The four
// timings are times at reference speed (hostspeed.go): as timed, ten runs of
// identical code on the 2-vCPU sandbox spread (IQR ÷ median) 5-13% in a quiet
// quarter of an hour and 20-28% in a noisy one; scaled by the host-speed
// probe, 1-8%. They keep the widest bound a benchmark may declare so that the
// spread stays under a third of it (README.md, "Bounds").
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"activities_per_s", "1/s", "higher", 0.25},
	{"start_to_done_p50_ms", "ms", "lower", 0.25},
	{"start_to_done_p95_ms", "ms", "lower", 0.25},
	{"store_bytes_per_activity", "B", "lower", 0.02},
	{"allocs_per_activity", "count", "lower", 0.02},
	{"alloc_kb_per_activity", "KiB", "lower", 0.03},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// workloadDef names a workload, says why it exists, and runs one repetition.
type workloadDef struct {
	name string
	why  string
	run  func(rc *runCtx, rec *recorder) (repResult, error)
	// prepare builds what every repetition shares (restart_recover's image).
	prepare func(rc *runCtx) error
	// observed, where set, is the same repetition with the engine's own
	// instrumentation (Options.Metrics and EventRing) switched on; a traced
	// run rotates it in to measure obs.enabled_slowdown_pct.
	observed func(rc *runCtx) (repResult, error)
}

var workloads = []workloadDef{
	{
		name: "sim_fanout",
		why:  "queue depth ~184 on one goroutine: core dispatcher and sched scans are most of the work; store I/O, wal and remote none",
		run:  func(rc *runCtx, rec *recorder) (repResult, error) { return runSimFanout(rc, rec, core.Options{}) },
		observed: func(rc *runCtx) (repResult, error) {
			return runSimFanout(rc, nil, core.Options{Metrics: obs.NewRegistry(), EventRing: obs.NewRing(1024)})
		},
	},
	{
		name: "disk_chains",
		why:  "queue depth <=1: navigate, persist, codec encode, store.Batch and wal append/commit carry the cost; the only workload where wal works",
		run:  runDiskChains,
	},
	{
		name: "remote_chains",
		why:  "same chains, memory store, every activity crosses the JSON-over-TCP worker protocol twice: wire versus disk",
		run:  runRemoteChains,
	},
	{
		name:    "restart_recover",
		why:     "crash and restart: store read for replay and List, core recover/decode, sched scanning 3800 inadmissible queued jobs",
		run:     runRestartRecover,
		prepare: (*runCtx).buildImage,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runOpts is one single-workload run.
type runOpts struct {
	workload string
	seed     int64
	seconds  float64 // time budget of the run; repetitions stop when it is spent
	reps     int     // >0 fixes the repetition count instead
	trace    bool
	sz       sizes
	workDir  string // "" = .bench_work under the working directory
	outDir   string // result and span files; "" = none written
}

// runResult is the full record of one run: what the last stdout line
// carries, plus the environment block and the per-repetition values.
type runResult struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Env       environment        `json:"environment"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"ops_attempted"`
	Failed    int                `json:"ops_failed"`
	Problems  []string           `json:"problems,omitempty"`
	EndToEnd  map[string]metric  `json:"end_to_end"`
	PerLayer  map[string]metric  `json:"per_layer,omitempty"`
	SelfTime  map[string]float64 `json:"self_time_ms_by_span,omitempty"`
	Reps      []repSummary       `json:"repetitions"`
	SpanFile  string             `json:"span_file,omitempty"`
}

// repSummary is the per-repetition value of each timing, as timed, and the
// host speed the end-to-end metrics scale it by.
type repSummary struct {
	Kind           string  `json:"kind"` // warmup, plain, traced or observed
	HostSpeed      float64 `json:"host_speed"`
	SetupS         float64 `json:"setup_s"`
	MeasuredS      float64 `json:"measured_s"`
	Activities     int64   `json:"activities"`
	ActivitiesPerS float64 `json:"activities_per_s"`
	P50MS          float64 `json:"start_to_done_p50_ms"`
	P95MS          float64 `json:"start_to_done_p95_ms"`
	Samples        int     `json:"latency_samples"`
	Failed         int     `json:"failed"`
	CPUMS          float64 `json:"cpu_ms"`
	SysMS          float64 `json:"sys_cpu_ms"`
	GCCycles       float64 `json:"gc_cycles"`
	MinorFaults    float64 `json:"minor_faults"`
}

// defaultSeconds is BENCHMARK.json's run_seconds: the budget of one run.
const defaultSeconds = 30

// runWorkload makes one run: repetitions of fixed work until the time budget
// is spent, then medians across repetitions.
func runWorkload(o runOpts) (*runResult, error) {
	start := time.Now()
	// One P. Every workload is one chain of hand-offs with one instance
	// outstanding, so a second P adds no useful parallelism — only cross-CPU
	// wake-ups whose cost depends on where the host put the two vCPUs.
	// Interleaved runs of identical code on the 2-vCPU sandbox: throughput
	// spread (IQR ÷ median, then range) 8.8% / 14% with one P against 17.7% /
	// 33% with two on disk_chains, 8.9% / 14% against 21% / 29% on
	// restart_recover. GC work also lands on the measured thread this way.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// ... and one CPU: see pinToOneCPU.
	cpu, unpin := pinToOneCPU()
	defer unpin()
	w, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	workDir, err := workRoot(o.workDir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)
	defer removeOnSignal(workDir)()
	rc := newRunCtx(o.seed, o.sz, workDir)
	if w.prepare != nil {
		if err := w.prepare(rc); err != nil {
			return nil, fmt.Errorf("%s: prepare: %w", w.name, err)
		}
	}

	kinds := []string{"plain"}
	if o.trace {
		kinds = append(kinds, "traced")
		if w.observed != nil {
			kinds = append(kinds, "observed")
		}
	}
	// A time-boxed run stops at the first complete rotation through the
	// kinds that one more rotation would carry past the budget, so it lasts
	// at most the budget plus one rotation however slow the machine is, and
	// makes at least one repetition of each kind.
	budget := time.Duration(o.seconds * float64(time.Second))
	var plain, traced, observed []repResult
	var summaries []repSummary
	// The first repetition of a process is always its slowest (binary and
	// heap arenas faulting in, cold caches), and so is the first probe: both
	// run, the repetition is checked like any other, and their measurements
	// are left out.
	hostProbe(o.sz.probeNodes)
	warm, err := w.run(rc, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up repetition: %w", w.name, err)
	}
	warm.speed = 1
	summaries = append(summaries, summarize(warm, "warmup"))
	// last is the repetition still waiting for the probe reading that follows
	// it; probeBefore the reading that preceded it.
	var last *repResult
	var probeBefore time.Duration
	closeRep := func(probeAfter time.Duration) {
		if last != nil {
			last.speed = hostSpeed(probeBefore, probeAfter)
			summaries = append(summaries, summarize(*last, last.kind))
		}
	}
	rotationStart := time.Now()
	for i := 0; ; i++ {
		kind := kinds[i%len(kinds)]
		if i%len(kinds) == 0 {
			rotationStart = time.Now()
		}
		// Every repetition starts from the same memory state: heap collected
		// and returned to the OS. With a bare runtime.GC() the first
		// repetitions of a process paid the page faults of growing the heap
		// and later ones did not, a drift of 10-20% across a run. The pause
		// lets the previous system's last goroutines exit: without it they
		// kept its heap alive through about half the collections, and a
		// repetition took 14k or 68k page faults (6-8% apart in throughput)
		// depending on which.
		runtime.GC()
		time.Sleep(20 * time.Millisecond)
		debug.FreeOSMemory()
		probe := hostProbe(o.sz.probeNodes)
		closeRep(probe)
		probeBefore = probe
		var rep repResult
		var err error
		switch kind {
		case "plain":
			rep, err = w.run(rc, nil)
			rep.kind = kind
			plain = append(plain, rep)
			last = &plain[len(plain)-1]
		case "traced":
			rep, err = w.run(rc, newRecorder())
			rep.kind = kind
			if len(traced) > 0 {
				traced[len(traced)-1].spans = nil // only the last repetition's spans are written out
			}
			traced = append(traced, rep)
			last = &traced[len(traced)-1]
		case "observed":
			rep, err = w.observed(rc)
			rep.kind = kind
			observed = append(observed, rep)
			last = &observed[len(observed)-1]
		}
		if err != nil {
			return nil, fmt.Errorf("%s: repetition %d: %w", w.name, i+1, err)
		}
		if o.reps > 0 {
			if i+1 >= o.reps {
				break
			}
			continue
		}
		if (i+1)%len(kinds) == 0 && time.Since(start)+time.Since(rotationStart) > budget {
			break
		}
	}
	runtime.GC()
	time.Sleep(20 * time.Millisecond)
	debug.FreeOSMemory()
	closeRep(hostProbe(o.sz.probeNodes))

	res := &runResult{
		Workload: w.name, Traced: o.trace, Env: readEnvironment(workDir),
		Correct: true, Reps: summaries,
	}
	res.Env.Seed = o.seed
	res.Env.PinnedCPU = cpu
	res.Env.Reps = len(summaries) - 1 // the warm-up is not one of the R
	res.Env.Sizes = o.sz.forWorkload(w.name)
	for _, rep := range append(append(append([]repResult{warm}, plain...), traced...), observed...) {
		res.Attempted += rep.attempted
		res.Failed += rep.failed
		if rep.wrong > 0 {
			res.Correct = false
			res.Problems = append(res.Problems, fmt.Sprintf("%d instances returned a wrong output", rep.wrong))
		}
		if rep.popErr != "" {
			res.Correct = false
			res.Problems = append(res.Problems, rep.popErr)
		}
	}
	res.EndToEnd = endToEnd(plain)
	if o.trace {
		res.PerLayer, res.SelfTime, err = perLayer(rc, w.name, plain, traced, observed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if o.outDir != "" && len(traced) > 0 {
			res.SpanFile = filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, o.seed))
			if err := os.MkdirAll(o.outDir, 0o755); err != nil {
				return nil, err
			}
			if err := writeSpans(res.SpanFile, traced[len(traced)-1].spans); err != nil {
				return nil, fmt.Errorf("write spans: %w", err)
			}
		}
	}
	res.Env.WallS = time.Since(start).Seconds()
	if o.outDir != "" {
		if err := writeResult(o.outDir, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func summarize(rep repResult, kind string) repSummary {
	return repSummary{
		Kind: kind, HostSpeed: rep.speed, SetupS: rep.setupS, MeasuredS: rep.measuredS,
		Activities: rep.activities, ActivitiesPerS: timedPerSecond(rep),
		P50MS: percentile(rep.latMS, 50), P95MS: percentile(rep.latMS, 95),
		Samples: len(rep.latMS), Failed: rep.failed,
		CPUMS: rep.proc.userMS + rep.proc.sysMS, SysMS: rep.proc.sysMS, GCCycles: rep.proc.gcCycles, MinorFaults: rep.proc.minorFaults,
	}
}

// timedPerSecond is a repetition's throughput as the clock read it.
func timedPerSecond(rep repResult) float64 { return ratio(float64(rep.activities), rep.measuredS) }

// perSecond is a repetition's throughput at reference speed.
func perSecond(rep repResult) float64 {
	return ratio(float64(rep.activities), rep.measuredS*rep.speed)
}

// scaledLatencies pools the start-to-done times of every repetition, each
// scaled to reference speed by its own repetition's host speed.
func scaledLatencies(reps []repResult) []float64 {
	var all []float64
	for _, r := range reps {
		for _, l := range r.latMS {
			all = append(all, l*r.speed)
		}
	}
	return all
}

// endToEnd reduces the untraced repetitions to the eight metrics. Set-up
// time, throughput and the per-activity counts are the median across
// repetitions of the per-repetition value; the two percentiles are taken over
// the start-to-done times of the whole run; every time is first scaled to
// reference speed (hostspeed.go); peak RSS is read once, at the end.
func endToEnd(reps []repResult) map[string]metric {
	perAct := func(f func(repResult) float64) float64 {
		return medianOver(reps, func(r repResult) float64 { return ratio(f(r), float64(r.activities)) })
	}
	lat := scaledLatencies(reps)
	values := map[string]float64{
		"setup_s":                  medianOver(reps, func(r repResult) float64 { return r.setupS * r.speed }),
		"activities_per_s":         medianOver(reps, perSecond),
		"start_to_done_p50_ms":     percentile(lat, 50),
		"start_to_done_p95_ms":     percentile(lat, 95),
		"store_bytes_per_activity": perAct(func(r repResult) float64 { return float64(r.store.bytes) }),
		"allocs_per_activity":      perAct(func(r repResult) float64 { return float64(r.mallocs) }),
		"alloc_kb_per_activity":    perAct(func(r repResult) float64 { return float64(r.allocBytes) / 1024 }),
		"peak_rss_mb":              peakRSSMB(),
	}
	out := make(map[string]metric, len(endToEndDefs))
	for _, d := range endToEndDefs {
		out[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return out
}

// forWorkload lists the per-repetition sizes that apply to one workload.
func (sz sizes) forWorkload(name string) map[string]int {
	switch name {
	case "sim_fanout":
		return map[string]int{"fan_width": sz.fanWidth, "warmup_instances": sz.fanWarm, "measured_instances": sz.fanMeasured}
	case "disk_chains":
		return map[string]int{"chain_steps": chainSteps, "warmup_instances": sz.diskWarm, "measured_instances": sz.diskMeasured}
	case "remote_chains":
		return map[string]int{"chain_steps": chainSteps, "warmup_instances": sz.remoteWarm, "measured_instances": sz.remoteMeasured}
	case "restart_recover":
		return map[string]int{"chain_steps": chainSteps, "image_instances": sz.restartTotal,
			"in_flight_instances": (sz.restartTotal + sz.restartEvery - 1) / sz.restartEvery, "min_steps_before_crash": sz.restartMinSteps}
	}
	return nil
}

func writeResult(dir string, res *runResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	mode := "e2e"
	if res.Traced {
		mode = "traced"
	}
	name := fmt.Sprintf("%s-seed%d-%s.json", res.Workload, res.Env.Seed, mode)
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

func main() {
	var (
		workload  = flag.String("workload", "all", "sim_fanout, disk_chains, remote_chains, restart_recover, or all")
		seed      = flag.Int64("seed", 1, "picks the payload bytes, the input values and the sim seed; work counts do not depend on it")
		seconds   = flag.Float64("seconds", defaultSeconds, "time budget of one workload run; fixed-work repetitions stop when it is spent")
		reps      = flag.Int("reps", 0, "fix the number of repetitions instead of the time budget")
		trace     = flag.String("trace", "0", "1 = traced run: per-layer metrics and a span file; 0 = end-to-end metrics")
		workDir   = flag.String("workdir", "", "where store directories go (default .bench_work in the working directory)")
		outDir    = flag.String("out", ".bench_out", "where result and span files go")
		smoke     = flag.Bool("smoke", false, "tiny repetitions of every workload, traced and untraced: the shape `go test ./bench` runs")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice in fresh processes and compare the medians with the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *trace != "0" && *trace != "1" {
		fmt.Fprintf(os.Stderr, "bench: --trace takes 0 or 1, not %q\n", *trace)
		os.Exit(2)
	}
	o := runOpts{
		workload: *workload, seed: *seed, seconds: *seconds, reps: *reps,
		trace: *trace == "1", sz: fullSizes, workDir: *workDir, outDir: *outDir,
	}
	var err error
	switch {
	case *smoke:
		err = runSmoke(os.Stdout, o)
	case *selfcheck:
		err = runSelfcheck(os.Stdout, o)
	case *workload == "all":
		err = runAll(os.Stdout, o)
	default:
		err = runOne(os.Stdout, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
