package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"bioopera/internal/cluster"
	"bioopera/internal/core"
	"bioopera/internal/ocr"
	"bioopera/internal/remote"
	"bioopera/internal/sim"
	"bioopera/internal/store"
)

// fanSrc is the parallel fan of bench_test.go's BenchmarkEngineThroughput:
// one activity per element of xs.
const fanSrc = `
PROCESS Fan {
  INPUT xs;
  OUTPUT done;
  BLOCK F PARALLEL OVER xs AS x {
    MAP results -> done;
    OUTPUT r;
    ACTIVITY A { CALL bench.id(x = x); OUT r; MAP r -> r; }
  }
}`

// chainSrc is the eight-step chain of BenchmarkEngineThroughputConcurrent:
// x is handed from step to step and comes out as r.
const chainSrc = `
PROCESS Chain8 {
  INPUT x;
  OUTPUT r;
  ACTIVITY S1 { CALL bench.id(x = x);  OUT r; MAP r -> w1; }
  ACTIVITY S2 { CALL bench.id(x = w1); OUT r; MAP r -> w2; }
  ACTIVITY S3 { CALL bench.id(x = w2); OUT r; MAP r -> w3; }
  ACTIVITY S4 { CALL bench.id(x = w3); OUT r; MAP r -> w4; }
  ACTIVITY S5 { CALL bench.id(x = w4); OUT r; MAP r -> w5; }
  ACTIVITY S6 { CALL bench.id(x = w5); OUT r; MAP r -> w6; }
  ACTIVITY S7 { CALL bench.id(x = w6); OUT r; MAP r -> w7; }
  ACTIVITY S8 { CALL bench.id(x = w7); OUT r; MAP r -> r; }
  S1 -> S2; S2 -> S3; S3 -> S4; S4 -> S5; S5 -> S6; S6 -> S7; S7 -> S8;
}`

const (
	chainSteps   = 8
	payloadBytes = 256
	// waitBound caps every client wait: a hung instance costs one failed
	// operation, not the run.
	waitBound = 10 * time.Second
)

// sizes fixes the work of one repetition. Work counts never depend on the
// seed or on time: a repetition is the same operations every time.
type sizes struct {
	fanWidth, fanWarm, fanMeasured int
	diskWarm, diskMeasured         int
	remoteWarm, remoteMeasured     int
	restartTotal, restartEvery     int // every restartEvery-th instance is left running
	restartMinSteps                int // in-flight instances are driven at least this far
	fedStatusCalls, fedChains      int
	probeIters                     int
	probeNodes                     int // the host-speed probe's allocations (hostspeed.go)
}

// A repetition is sized to about 0.4 s of measured work (restart_recover:
// 1.4 s, the smallest a 3800-deep queue allows): the host's speed moves in
// episodes of seconds, and the probe readings on either side of a repetition
// only speak for it if it is shorter than they are.
var fullSizes = sizes{
	fanWidth: 200, fanWarm: 3, fanMeasured: 25,
	diskWarm: 50, diskMeasured: 1000,
	remoteWarm: 50, remoteMeasured: 700,
	restartTotal: 4000, restartEvery: 20, restartMinSteps: 4,
	fedStatusCalls: 2000, fedChains: 500,
	probeIters: 20000,
	probeNodes: 80_000,
}

// smokeSizes is the shape `go test ./bench` runs: every code path of the
// full benchmark, 20 instances per workload.
var smokeSizes = sizes{
	fanWidth: 20, fanWarm: 2, fanMeasured: 20,
	diskWarm: 2, diskMeasured: 20,
	remoteWarm: 2, remoteMeasured: 20,
	restartTotal: 100, restartEvery: 5, restartMinSteps: 4,
	fedStatusCalls: 20, fedChains: 5,
	probeIters: 200,
	probeNodes: 2000,
}

// runCtx is what one process run shares across its repetitions: the
// seed-derived inputs, the work directory, and the restart image.
type runCtx struct {
	seed    int64
	sz      sizes
	workDir string // every store directory of this run lives under it

	payload string  // payloadBytes seed-derived characters
	fanVals []int64 // seed-derived fan inputs, windowed per instance

	bodyRuns atomic.Int64 // program body executions, all reps

	// restart_recover: the crashed store image and what it holds.
	imageDir    string
	imageInputs map[string]string // instance ID → its input x
	imageLive   map[string]bool   // instances left running at the crash
	buildImageS float64
}

func newRunCtx(seed int64, sz sizes, workDir string) *runCtx {
	rng := rand.New(rand.NewSource(seed))
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	buf := make([]byte, payloadBytes)
	for i := range buf {
		buf[i] = alphabet[rng.Intn(len(alphabet))]
	}
	vals := make([]int64, sz.fanWidth+sz.fanWarm+sz.fanMeasured)
	for i := range vals {
		vals[i] = rng.Int63n(1 << 40)
	}
	return &runCtx{seed: seed, sz: sz, workDir: workDir, payload: string(buf), fanVals: vals}
}

// chainInput is instance i's input: the payload rotated by i, so every
// instance carries its own 256 bytes and its output is checked against them.
func (rc *runCtx) chainInput(i int) string {
	k := i % payloadBytes
	return rc.payload[k:] + rc.payload[:k]
}

// fanInput is instance i's list: a window of the seed-derived values.
func (rc *runCtx) fanInput(i int) []ocr.Value {
	xs := make([]ocr.Value, rc.sz.fanWidth)
	for k := range xs {
		xs[k] = ocr.Num(float64(rc.fanVals[i+k]))
	}
	return xs
}

// library registers bench.id, the one program every process calls: it
// returns its input. The body counts its executions (the activity count of
// every workload) and, traced, records itself as a worker.run span.
func (rc *runCtx) library(rec *recorder) *core.Library {
	lib := core.NewLibrary()
	run := func(_ core.ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
		rc.bodyRuns.Add(1)
		return map[string]ocr.Value{"r": args["x"]}, nil
	}
	if rec != nil {
		run = func(ctx core.ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
			t0 := time.Now()
			rc.bodyRuns.Add(1)
			out := map[string]ocr.Value{"r": args["x"]}
			rec.taskSpan("worker.run", ctx.Instance, ctx.Task, t0, time.Now())
			return out, nil
		}
	}
	if err := lib.RegisterFunc("bench.id", run); err != nil {
		panic(err) // a non-empty name and a non-nil func cannot be refused
	}
	return lib
}

func (r *recorder) eventHook() func(core.Event) {
	if r == nil {
		return nil
	}
	return r.onEvent
}

// repResult is everything one repetition measured. End-to-end metrics are
// medians of these across repetitions.
type repResult struct {
	kind  string  // plain, traced or observed
	speed float64 // host speed over the repetition, from the probe readings around it

	setupS    float64
	measuredS float64
	latMS     []float64 // start-to-done of every instance that finished correctly

	attempted, failed, wrong int
	popErr                   string // restart_recover population check, "" when it held

	activities int64
	store      storeCounts
	mallocs    uint64
	allocBytes uint64
	proc       procUsage

	walSyncs     uint64
	walDiskBytes int64

	registerUS, agentJoinMS, openMS, recoverMS float64
	recovered                                  int

	phaseStart, phaseEnd time.Time // the measured phase, on the wall clock

	// Traced repetitions only. spans is dropped from all but the run's last
	// traced repetition once times has been derived from it.
	spans      []span
	times      spanTimes
	depths     []float64 // jobs queued at each dispatch decision
	goroutines int
	startUS    []float64 // client StartProcess call durations
}

// phase snapshots the counters a measured phase is the difference of.
type phase struct {
	rc   *runCtx
	cs   *countingStore
	t0   time.Time
	mem  runtime.MemStats
	st   storeCounts
	proc procUsage
	body int64
}

func beginPhase(rc *runCtx, cs *countingStore) *phase {
	p := &phase{rc: rc, cs: cs}
	runtime.ReadMemStats(&p.mem)
	p.st = cs.counts()
	p.proc = readProcUsage()
	p.body = rc.bodyRuns.Load()
	p.t0 = time.Now()
	return p
}

func (p *phase) end(res *repResult) {
	res.phaseStart, res.phaseEnd = p.t0, time.Now()
	res.measuredS = res.phaseEnd.Sub(p.t0).Seconds()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	res.activities = p.rc.bodyRuns.Load() - p.body
	res.store = p.cs.counts().sub(p.st)
	res.mallocs = mem.Mallocs - p.mem.Mallocs
	res.allocBytes = mem.TotalAlloc - p.mem.TotalAlloc
	res.proc = readProcUsage().sub(p.proc)
	res.proc.gcCycles = float64(mem.NumGC - p.mem.NumGC)
	res.proc.gcPauseMS = float64(mem.PauseTotalNs-p.mem.PauseTotalNs) / 1e6
}

func (r *recorder) collect(res *repResult) {
	if r == nil {
		return
	}
	res.spans = r.finish()
	res.times = newSpanTimes(res.spans, r.since(res.phaseStart), r.since(res.phaseEnd))
	res.depths = r.depths
	res.goroutines = r.goroutines
}

// registerTimed registers src and reports how long parsing, validating and
// storing the template took (ocr.register_template_us).
func registerTimed(register func(string) error, src string, res *repResult) error {
	t0 := time.Now()
	err := register(src)
	res.registerUS = float64(time.Since(t0)) / 1e3
	return err
}

// --- sim_fanout ---

// runSimFanout boots a simulated ik-linux cluster over a memory store and
// runs fans of fanWidth activities one after another.
func runSimFanout(rc *runCtx, rec *recorder, opts core.Options) (repResult, error) {
	var res repResult
	tSetup := time.Now()
	cs := &countingStore{inner: store.NewMem(), rec: rec}
	opts.OnEvent = rec.eventHook()
	rt, err := core.NewSimRuntime(core.SimConfig{
		Seed: rc.seed, Spec: cluster.IkLinux(), Store: cs, Library: rc.library(rec), Options: opts,
	})
	if err != nil {
		return res, err
	}
	defer cs.Close()
	rec.bindEngine(rt.Engine)
	if err := registerTimed(rt.Engine.RegisterTemplateSource, fanSrc, &res); err != nil {
		return res, err
	}
	fan := func(i int, measured bool) error {
		xs := rc.fanInput(i)
		t0 := time.Now()
		id, err := rt.Engine.StartProcess("Fan", map[string]ocr.Value{"xs": ocr.List(xs...)}, core.StartOptions{})
		t1 := time.Now()
		if err != nil {
			return err
		}
		rt.Run()
		t2 := time.Now()
		if !measured {
			return nil
		}
		res.attempted++
		status, outputs, err := rt.Engine.InstanceState(id)
		if err != nil || status != core.InstanceDone {
			res.failed++
			return nil
		}
		done := outputs["done"]
		ok := done.Len() == len(xs)
		for k := 0; ok && k < len(xs); k++ {
			ok = done.At(k).Equal(xs[k])
		}
		if !ok {
			res.wrong++
			res.failed++
			return nil
		}
		res.latMS = append(res.latMS, t2.Sub(t0).Seconds()*1e3)
		if rec != nil {
			res.startUS = append(res.startUS, float64(t1.Sub(t0))/1e3)
			rec.span("client.instance", id, t0, t2)
			rec.span("client.start", id, t0, t1)
			rec.span("client.wait", id, t1, t2)
		}
		return nil
	}
	for i := 0; i < rc.sz.fanWarm; i++ {
		if err := fan(i, false); err != nil {
			return res, err
		}
	}
	res.setupS = time.Since(tSetup).Seconds()
	ph := beginPhase(rc, cs)
	for i := 0; i < rc.sz.fanMeasured; i++ {
		if err := fan(rc.sz.fanWarm+i, true); err != nil {
			return res, err
		}
	}
	ph.end(&res)
	rec.collect(&res)
	return res, nil
}

// --- disk_chains and remote_chains ---

// driveChains is the closed-loop client of both chains workloads: one
// instance outstanding, StartProcess then Wait, n times.
func driveChains(rc *runCtx, rb *core.RuntimeBase, rec *recorder, first, n int, res *repResult) error {
	for i := first; i < first+n; i++ {
		x := rc.chainInput(i)
		t0 := time.Now()
		id, err := rb.StartProcess("Chain8", map[string]ocr.Value{"x": ocr.Str(x)}, core.StartOptions{})
		t1 := time.Now()
		if err != nil {
			return err
		}
		in, err := rb.Wait(id, waitBound)
		t2 := time.Now()
		if res == nil {
			if err != nil {
				return fmt.Errorf("warm-up instance %s: %w", id, err)
			}
			continue
		}
		res.attempted++
		if err != nil || in.Status != core.InstanceDone {
			res.failed++
			continue
		}
		if in.Outputs["r"].AsStr() != x {
			res.wrong++
			res.failed++
			continue
		}
		res.latMS = append(res.latMS, t2.Sub(t0).Seconds()*1e3)
		if rec != nil {
			res.startUS = append(res.startUS, float64(t1.Sub(t0))/1e3)
			rec.span("client.instance", id, t0, t2)
			rec.span("client.start", id, t0, t1)
			rec.span("client.wait", id, t1, t2)
		}
	}
	return nil
}

// runDiskChains runs chains on a two-worker local pool over a disk store
// with the engine's default flush policy (fsync on every commit).
func runDiskChains(rc *runCtx, rec *recorder) (res repResult, err error) {
	tSetup := time.Now()
	dir, err := os.MkdirTemp(rc.workDir, "disk-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	disk, err := store.OpenDisk(dir, store.DiskOptions{})
	if err != nil {
		return res, err
	}
	cs := &countingStore{inner: disk, rec: rec}
	defer func() {
		if cerr := cs.Close(); err == nil {
			err = cerr
		}
	}()
	rt, err := core.NewLocalRuntime(core.LocalConfig{
		Workers: 2, Store: cs, Library: rc.library(rec), OnEvent: rec.eventHook(),
	})
	if err != nil {
		return res, err
	}
	defer rt.Close()
	rec.bindEngine(rt.Engine())
	if err := registerTimed(rt.RegisterTemplateSource, chainSrc, &res); err != nil {
		return res, err
	}
	if err := driveChains(rc, &rt.RuntimeBase, nil, 0, rc.sz.diskWarm, nil); err != nil {
		return res, err
	}
	res.setupS = time.Since(tSetup).Seconds()
	syncs, onDisk := disk.WALSyncs(), dirBytes(dir)
	ph := beginPhase(rc, cs)
	if err := driveChains(rc, &rt.RuntimeBase, rec, rc.sz.diskWarm, rc.sz.diskMeasured, &res); err != nil {
		return res, err
	}
	ph.end(&res)
	res.walSyncs = disk.WALSyncs() - syncs
	res.walDiskBytes = dirBytes(dir) - onDisk
	rec.collect(&res)
	return res, nil
}

// runRemoteChains runs the same chains through the worker protocol: a
// remote.Runtime on loopback, a memory store, and two one-CPU agents dialled
// from this process.
func runRemoteChains(rc *runCtx, rec *recorder) (res repResult, err error) {
	tSetup := time.Now()
	cs := &countingStore{inner: store.NewMem(), rec: rec}
	defer cs.Close()
	rt, err := remote.NewRuntime(remote.Config{
		Addr: "127.0.0.1:0", Store: cs, Library: rc.library(rec), OnEvent: rec.eventHook(),
	})
	if err != nil {
		return res, err
	}
	defer func() {
		if cerr := rt.Close(); err == nil {
			err = cerr
		}
	}()
	rec.bindEngine(rt.Engine())
	tJoin := time.Now()
	for _, name := range []string{"agent-a", "agent-b"} {
		a, err := remote.Dial(rt.Addr(), remote.AgentConfig{Name: name, CPUs: 1, Library: rc.library(rec)})
		if err != nil {
			return res, err
		}
		defer a.Close()
	}
	res.agentJoinMS = time.Since(tJoin).Seconds() * 1e3
	if err := registerTimed(rt.RegisterTemplateSource, chainSrc, &res); err != nil {
		return res, err
	}
	if err := driveChains(rc, &rt.RuntimeBase, nil, 0, rc.sz.remoteWarm, nil); err != nil {
		return res, err
	}
	res.setupS = time.Since(tSetup).Seconds()
	ph := beginPhase(rc, cs)
	if err := driveChains(rc, &rt.RuntimeBase, rec, rc.sz.remoteWarm, rc.sz.remoteMeasured, &res); err != nil {
		return res, err
	}
	ph.end(&res)
	rec.collect(&res)
	return res, nil
}

// --- restart_recover ---

// buildImage runs the laboratory that then crashes: restartTotal chains on
// a simulated cluster over a disk store, every restartEvery-th left running
// and driven to at least restartMinSteps of its eight steps, all the others
// suspended right after start; then Engine.Crash and a store close. The
// image is built once per run; each repetition restarts from a copy.
func (rc *runCtx) buildImage() error {
	t0 := time.Now()
	dir := filepath.Join(rc.workDir, "image")
	disk, err := store.OpenDisk(dir, store.DiskOptions{})
	if err != nil {
		return err
	}
	err = rc.fillImage(disk)
	if cerr := disk.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	rc.imageDir = dir
	rc.buildImageS = time.Since(t0).Seconds()
	return nil
}

// fillImage runs the laboratory on st up to and including the crash.
func (rc *runCtx) fillImage(st store.Store) error {
	rt, err := core.NewSimRuntime(core.SimConfig{
		Seed: rc.seed, Spec: cluster.IkLinux(), Store: st, Library: rc.library(nil),
	})
	if err != nil {
		return err
	}
	if err := rt.Engine.RegisterTemplateSource(chainSrc); err != nil {
		return err
	}
	rc.imageInputs = make(map[string]string, rc.sz.restartTotal)
	rc.imageLive = make(map[string]bool)
	var live []string
	for i := 0; i < rc.sz.restartTotal; i++ {
		x := rc.chainInput(i)
		id, err := rt.Engine.StartProcess("Chain8", map[string]ocr.Value{"x": ocr.Str(x)}, core.StartOptions{})
		if err != nil {
			return err
		}
		rc.imageInputs[id] = x
		if i%rc.sz.restartEvery == 0 {
			rc.imageLive[id] = true
			live = append(live, id)
		} else if err := rt.Engine.Suspend(id, false); err != nil {
			return err
		}
	}
	// Advance virtual time a second at a time until the slowest in-flight
	// chain is restartMinSteps deep. The queue is FIFO, so they advance in
	// step and none finishes first.
	for deep := false; !deep; {
		rt.RunUntil(rt.Sim.Now().Add(sim.Duration(time.Second)))
		deep = true
		for _, id := range live {
			in, ok := rt.Engine.Instance(id)
			if !ok || in.Status != core.InstanceRunning {
				return fmt.Errorf("image: in-flight instance %s left the running state", id)
			}
			if in.Activities < rc.sz.restartMinSteps {
				deep = false
			}
		}
	}
	rt.Engine.Crash()
	return nil
}

// runRestartRecover restarts a server from a copy of the crashed image:
// open the store, boot, register, recover (set-up), then run to idle
// (measured). Start-to-done is restart instant → OnInstanceDone.
func runRestartRecover(rc *runCtx, rec *recorder) (res repResult, err error) {
	dir, err := os.MkdirTemp(rc.workDir, "restart-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	if err := os.CopyFS(dir, os.DirFS(rc.imageDir)); err != nil {
		return res, err
	}
	runtime.GC()

	tRestart := time.Now()
	disk, err := store.OpenDisk(dir, store.DiskOptions{})
	if err != nil {
		return res, err
	}
	res.openMS = time.Since(tRestart).Seconds() * 1e3
	cs := &countingStore{inner: disk, rec: rec}
	defer func() {
		if cerr := cs.Close(); err == nil {
			err = cerr
		}
	}()
	doneAt := make(map[string]time.Time, len(rc.imageLive))
	rt, err := core.NewSimRuntime(core.SimConfig{
		Seed: rc.seed, Spec: cluster.IkLinux(), Store: cs, Library: rc.library(rec),
		Options: core.Options{
			OnEvent:        rec.eventHook(),
			OnInstanceDone: func(in *core.Instance) { doneAt[in.ID] = time.Now() },
		},
	})
	if err != nil {
		return res, err
	}
	rec.bindEngine(rt.Engine)
	if err := registerTimed(rt.Engine.RegisterTemplateSource, chainSrc, &res); err != nil {
		return res, err
	}
	tRecover := time.Now()
	res.recovered, err = rt.Engine.Recover()
	if err != nil {
		return res, err
	}
	res.recoverMS = time.Since(tRecover).Seconds() * 1e3
	res.setupS = time.Since(tRestart).Seconds()

	ph := beginPhase(rc, cs)
	rt.Run()
	ph.end(&res)
	res.walSyncs = disk.WALSyncs()
	res.walDiskBytes = dirBytes(dir) - dirBytes(rc.imageDir)

	suspended := 0
	for id, x := range rc.imageInputs {
		status, outputs, err := rt.Engine.InstanceState(id)
		if !rc.imageLive[id] {
			if err == nil && status == core.InstanceSuspended {
				suspended++
			}
			continue
		}
		res.attempted++
		at, finished := doneAt[id]
		switch {
		case err != nil || status != core.InstanceDone || !finished:
			res.failed++
		case outputs["r"].AsStr() != x:
			res.wrong++
			res.failed++
		default:
			res.latMS = append(res.latMS, at.Sub(tRestart).Seconds()*1e3)
			rec.span("client.instance", id, tRestart, at)
		}
	}
	wantSuspended := len(rc.imageInputs) - len(rc.imageLive)
	if res.recovered != len(rc.imageInputs) || suspended != wantSuspended {
		res.popErr = fmt.Sprintf("recovered %d of %d, %d of %d still suspended",
			res.recovered, len(rc.imageInputs), suspended, wantSuspended)
	}
	rec.collect(&res)
	return res, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
