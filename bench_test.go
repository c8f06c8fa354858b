package bioopera

// The benchmark harness: one benchmark per table and figure of the paper's
// evaluation (scaled so a full -bench=. run finishes in minutes), plus
// micro-benchmarks of the substrates. Experiment benchmarks report their
// headline numbers as custom metrics so `go test -bench` output doubles as
// a results table.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bioopera/internal/cluster"
	"bioopera/internal/core"
	"bioopera/internal/darwin"
	"bioopera/internal/experiments"
	"bioopera/internal/fed"
	"bioopera/internal/ocr"
	"bioopera/internal/sched"
	"bioopera/internal/store"
	"bioopera/internal/wal"
)

// BenchmarkFig4GranularitySweep regenerates Fig. 4: CPU and WALL time vs.
// the number of TEUs for an all-vs-all on the 5-CPU ik-sun cluster.
func BenchmarkFig4GranularitySweep(b *testing.B) {
	var res *experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fig4(experiments.Fig4Options{
			N: 250, MeanLen: 300,
			TEUs: []int{1, 2, 5, 10, 20, 50, 125, 250},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.OptimalTEUs), "optimal-TEUs")
	b.ReportMetric(res.Points[0].WALL.Seconds(), "wall-1TEU-s")
	b.ReportMetric(res.Points[len(res.Points)-1].CPU.Seconds(), "cpu-max-TEUs-s")
}

// benchLifecycle is the scaled dataset used by the Table 1 / Fig. 5 /
// Fig. 6 benchmarks.
func benchLifecycle() experiments.LifecycleOptions {
	return experiments.LifecycleOptions{N: 16000, MeanLen: 250, TEUs: 160, SampleEvery: 2 * time.Hour}
}

// BenchmarkTable1AllVsAll regenerates Table 1: both all-vs-all runs.
func BenchmarkTable1AllVsAll(b *testing.B) {
	var res *experiments.Table1Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Table1(benchLifecycle())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Shared.Row.WALL.Hours()/24, "shared-wall-days")
	b.ReportMetric(res.NonShared.Row.WALL.Hours()/24, "nonshared-wall-days")
	b.ReportMetric(float64(res.Shared.Row.MaxCPUs), "shared-max-cpus")
}

// BenchmarkFig5SharedLifecycle regenerates the Fig. 5 trace.
func BenchmarkFig5SharedLifecycle(b *testing.B) {
	var res *experiments.LifecycleResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.SharedLifecycle(benchLifecycle())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Row.Failures), "failures-survived")
	b.ReportMetric(res.Row.WALL.Hours()/24, "wall-days")
}

// BenchmarkFig6NonSharedLifecycle regenerates the Fig. 6 trace.
func BenchmarkFig6NonSharedLifecycle(b *testing.B) {
	var res *experiments.LifecycleResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.NonSharedLifecycle(benchLifecycle())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Row.MaxCPUs), "peak-cpus")
	b.ReportMetric(res.Row.WALL.Hours()/24, "wall-days")
}

// BenchmarkAdaptiveMonitoring regenerates the §3.4 claim.
func BenchmarkAdaptiveMonitoring(b *testing.B) {
	var res *experiments.MonitoringResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Monitoring(experiments.MonitoringOptions{Horizon: 3 * 24 * time.Hour})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.OverallDiscard, "discard-%")
	b.ReportMetric(100*res.OverallErr, "err-%")
}

// BenchmarkMigrationStrategies regenerates the §5.4 migration ablation.
func BenchmarkMigrationStrategies(b *testing.B) {
	var res *experiments.MigrationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Migration(experiments.MigrationOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	sub := res.Cell("subset", "kill-and-restart").WALL
	subNone := res.Cell("subset", "leave-in-place").WALL
	b.ReportMetric(100*(float64(sub)/float64(subNone)-1), "subset-wall-delta-%")
}

// BenchmarkCheckpointGranularity regenerates the §3.3 ablation.
func BenchmarkCheckpointGranularity(b *testing.B) {
	var res *experiments.CheckpointResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Checkpoint(experiments.CheckpointOptions{
			N: 1200, MeanLen: 150, TEUs: []int{4, 32, 128},
			CrashEvery: 90 * time.Second, Repair: 2 * time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Points[0].WastedCPU.Seconds(), "wasted-coarse-s")
	b.ReportMetric(res.Points[len(res.Points)-1].WastedCPU.Seconds(), "wasted-fine-s")
}

// --- substrate micro-benchmarks ---

// BenchmarkSmithWaterman measures the core alignment kernel.
func BenchmarkSmithWaterman(b *testing.B) {
	ds := darwin.Generate(darwin.GenOptions{N: 2, MeanLen: 360, Seed: 1})
	sm := darwin.ScoreAt(120)
	sa, sb := ds.Entries[0], ds.Entries[1]
	cells := int64(sa.Len()) * int64(sb.Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		darwin.ScoreOnly(sa, sb, sm)
	}
	b.SetBytes(cells) // "bytes" = DP cells per op
}

// BenchmarkRefinePAM measures the golden-section distance search.
func BenchmarkRefinePAM(b *testing.B) {
	ds := darwin.Generate(darwin.GenOptions{N: 2, MeanLen: 200, Seed: 2, FamilyFraction: 1, FamilyPAM: 60})
	sa, sb := ds.Entries[0], ds.Entries[1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		darwin.RefinePAM(sa, sb, 5, 250)
	}
}

// BenchmarkWALAppend measures the write-ahead log (no fsync, as in the
// experiments).
func BenchmarkWALAppend(b *testing.B) {
	l, err := wal.Open(b.TempDir(), wal.Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	rec := make([]byte, 256)
	b.SetBytes(int64(len(rec)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.AppendBatch([][]byte{rec}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStorePut measures a whole store mutation (WAL + in-memory
// image).
func BenchmarkStorePut(b *testing.B) {
	d, err := store.OpenDisk(b.TempDir(), store.DiskOptions{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	val := make([]byte, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Put(store.Instance, "inst/p0001", val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOCRParse measures parsing the all-vs-all definition.
func BenchmarkOCRParse(b *testing.B) {
	b.SetBytes(int64(len(AllVsAllSource)))
	for i := 0; i < b.N; i++ {
		if _, err := ocr.ParseProcess(AllVsAllSource); err != nil {
			b.Fatal(err)
		}
	}
}

// engineThroughput runs the 200-element parallel fan-out b.N times,
// optionally with the full observability stack (metrics registry + event
// ring) attached — the configuration `serve -monitor` runs with.
func engineThroughput(b *testing.B, observed bool) {
	var xs []ocr.Value
	for i := 0; i < 200; i++ {
		xs = append(xs, ocr.Int(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := core.SimConfig{Seed: 1, Spec: cluster.IkLinux(), Library: benchFanLibrary()}
		if observed {
			cfg.Options.Metrics = NewMetricsRegistry()
			cfg.Options.EventRing = NewEventRing(1024)
		}
		rt, err := core.NewSimRuntime(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := rt.Engine.RegisterTemplateSource(benchFanSrc); err != nil {
			b.Fatal(err)
		}
		id, err := rt.Engine.StartProcess("Fan", map[string]ocr.Value{"xs": ocr.List(xs...)}, core.StartOptions{})
		if err != nil {
			b.Fatal(err)
		}
		rt.Run()
		in, _ := rt.Engine.Instance(id)
		if in.Status != core.InstanceDone {
			b.Fatalf("instance %s", in.Status)
		}
	}
	b.ReportMetric(float64(200*b.N)/b.Elapsed().Seconds(), "activities/s")
}

// BenchmarkEngineThroughput measures navigated activities per second on
// the simulated cluster (a 200-element parallel fan-out).
func BenchmarkEngineThroughput(b *testing.B) {
	engineThroughput(b, false)
}

// BenchmarkEngineThroughputObserved is the same workload with metrics and
// the event ring enabled; comparing against BenchmarkEngineThroughput
// measures the instrumentation's overhead (budget: within 3%).
func BenchmarkEngineThroughputObserved(b *testing.B) {
	engineThroughput(b, true)
}

// BenchmarkFanWidth measures what one activity of a PARALLEL fan costs as
// the fan widens — the TEU count Fig. 4 sweeps. Each width gets one
// simulated runtime that runs all the fans it times, one instance at a
// time, and reports ns/activity: a per-turn cost that grows with the fan's
// width shows as a row that rises with it. The runtime is not shared
// between widths because it keeps every finished instance, so the last
// width would pay for the heap the others left behind.
func BenchmarkFanWidth(b *testing.B) {
	for _, width := range []int{25, 200, 1600} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			rt, err := core.NewSimRuntime(core.SimConfig{Seed: 1, Spec: cluster.IkLinux(), Library: benchFanLibrary()})
			if err != nil {
				b.Fatal(err)
			}
			if err := rt.Engine.RegisterTemplateSource(benchFanSrc); err != nil {
				b.Fatal(err)
			}
			xs := make([]ocr.Value, width)
			for i := range xs {
				xs[i] = ocr.Int(i)
			}
			acts := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id, err := rt.Engine.StartProcess("Fan", map[string]ocr.Value{"xs": ocr.List(xs...)}, core.StartOptions{})
				if err != nil {
					b.Fatal(err)
				}
				rt.Run()
				in, _ := rt.Engine.Instance(id)
				if in.Status != core.InstanceDone {
					b.Fatalf("instance %s", in.Status)
				}
				acts += in.Activities
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(acts), "ns/activity")
		})
	}
}

// BenchmarkWALAppendBatch contrasts one fsync per record (batch size 1)
// with group commit (N records, one fsync). Syncs are real here — this is
// the durability cost a checkpoint actually pays.
func BenchmarkWALAppendBatch(b *testing.B) {
	for _, size := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("records=%d", size), func(b *testing.B) {
			l, err := wal.Open(b.TempDir(), wal.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			batch := make([][]byte, size)
			for i := range batch {
				batch[i] = make([]byte, 256)
			}
			b.SetBytes(int64(256 * size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.AppendBatch(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(l.Syncs())/float64(b.N*size), "fsyncs/record")
		})
	}
}

// BenchmarkStorePutBatch contrasts a checkpoint written as individual Puts
// with the same checkpoint written as one atomic Batch (one group-committed
// WAL append). Syncs are real.
func BenchmarkStorePutBatch(b *testing.B) {
	const ops = 8
	val := make([]byte, 512)
	b.Run("puts", func(b *testing.B) {
		d, err := store.OpenDisk(b.TempDir(), store.DiskOptions{})
		if err != nil {
			b.Fatal(err)
		}
		defer d.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < ops; j++ {
				if err := d.Put(store.Instance, fmt.Sprintf("scope/p1/s%d", j), val); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(d.WALSyncs())/float64(b.N*ops), "fsyncs/record")
	})
	b.Run("batch", func(b *testing.B) {
		d, err := store.OpenDisk(b.TempDir(), store.DiskOptions{})
		if err != nil {
			b.Fatal(err)
		}
		defer d.Close()
		batch := make([]store.Op, ops)
		for j := range batch {
			batch[j] = store.Op{Space: store.Instance, Key: fmt.Sprintf("scope/p1/s%d", j), Value: val}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := d.Batch(batch); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(d.WALSyncs())/float64(b.N*ops), "fsyncs/record")
	})
}

// countingStore wraps a Store and counts two write volumes, measured below
// the engine so the numbers are comparable across checkpoint layouts: bytes,
// the values of every Instance-space put — what the checkpoint pipeline
// pushes through the log for live instances — and all, the key and value
// bytes of every op of every space, journal appends and the archive's
// history included, as the bench's own counting store sums them.
type countingStore struct {
	store.Store
	bytes, all atomic.Int64
}

func (c *countingStore) Put(space store.Space, key string, value []byte) error {
	if space == store.Instance {
		c.bytes.Add(int64(len(value)))
	}
	c.all.Add(int64(len(key) + len(value)))
	return c.Store.Put(space, key, value)
}

func (c *countingStore) Batch(ops []store.Op) error {
	for _, op := range ops {
		if op.Space == store.Instance && !op.Delete {
			c.bytes.Add(int64(len(op.Value)))
		}
		c.all.Add(int64(len(op.Key)))
		if !op.Delete {
			c.all.Add(int64(len(op.Value)))
		}
	}
	return c.Store.Batch(ops)
}

func (c *countingStore) AppendEvent(data []byte) (uint64, error) {
	c.all.Add(int64(len(data)))
	return c.Store.AppendEvent(data)
}

func (c *countingStore) Delete(space store.Space, key string) error {
	c.all.Add(int64(len(key)))
	return c.Store.Delete(space, key)
}

// BenchmarkCheckpointWidth sweeps the fan-out width of a parallel block and
// reports checkpoint bytes written per navigated activity. Under whole-scope
// checkpointing this grows linearly with width (O(n²) total serialization
// over a block's lifetime); under per-task delta records it stays flat.
// ckpt-B/act counts the instance space only (TestCheckpointBytesCeiling in
// internal/core bounds it at each width); store-B/act counts every space, so
// it also sees what the archive writes into history
// (TestStoreBytesFlatInWidth keeps that flat).
func BenchmarkCheckpointWidth(b *testing.B) {
	for _, width := range []int{25, 100, 400} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			var xs []ocr.Value
			for i := 0; i < width; i++ {
				xs = append(xs, ocr.Int(i))
			}
			var ckptBytes, allBytes, acts int64
			for i := 0; i < b.N; i++ {
				cs := &countingStore{Store: store.NewMem()}
				rt, err := core.NewSimRuntime(core.SimConfig{Seed: 1, Spec: cluster.IkLinux(), Library: benchFanLibrary(), Store: cs})
				if err != nil {
					b.Fatal(err)
				}
				if err := rt.Engine.RegisterTemplateSource(benchFanSrc); err != nil {
					b.Fatal(err)
				}
				id, err := rt.Engine.StartProcess("Fan", map[string]ocr.Value{"xs": ocr.List(xs...)}, core.StartOptions{})
				if err != nil {
					b.Fatal(err)
				}
				rt.Run()
				in, _ := rt.Engine.Instance(id)
				if in.Status != core.InstanceDone {
					b.Fatalf("instance %s", in.Status)
				}
				ckptBytes += cs.bytes.Load()
				allBytes += cs.all.Load()
				acts += int64(in.Activities)
			}
			b.ReportMetric(float64(ckptBytes)/float64(acts), "ckpt-B/act")
			b.ReportMetric(float64(allBytes)/float64(acts), "store-B/act")
		})
	}
}

// benchScheduleNodes is the cluster view the scheduling benchmark decides
// against: a mid-size pool with mixed occupancy.
func benchScheduleNodes() []cluster.NodeView {
	nodes := make([]cluster.NodeView, 16)
	for i := range nodes {
		nodes[i] = cluster.NodeView{
			Name: fmt.Sprintf("n%02d", i), OS: "linux", Up: true,
			CPUs: 4, Speed: 1, Running: i % 4, ExtLoad: float64(i%3) * 0.3,
		}
	}
	return nodes
}

// scheduleNsPerDecision measures the steady-state dispatch cycle (pop the
// best placeable job, requeue a replacement) at a fixed queue depth, beside
// held jobs of a suspended group that must not enter into it.
func scheduleNsPerDecision(b *testing.B, depth, held int) float64 {
	s := sched.New(sched.Config{Quotas: map[string]float64{"t0": 3, "t1": 1, "t2": 2}})
	for i := 0; i < held; i++ {
		s.Enqueue(sched.Job{
			ID:       fmt.Sprintf("h%06d", i),
			Group:    "suspended",
			Tenant:   fmt.Sprintf("t%d", i%3),
			Priority: i % 4,
		})
	}
	s.Hold("suspended")
	for i := 0; i < depth; i++ {
		s.Enqueue(sched.Job{
			ID:       fmt.Sprintf("j%06d", i),
			Tenant:   fmt.Sprintf("t%d", i%3),
			Priority: i % 4,
			Key:      fmt.Sprintf("prog%d", i%8),
			Cost:     time.Second,
		})
	}
	nodes := benchScheduleNodes()
	b.ResetTimer()
	b.StartTimer() // a no-op on the first measurement of a sub-benchmark
	for i := 0; i < b.N; i++ {
		j, _, ok := s.Next(nodes, nil)
		if !ok {
			b.Fatal("nothing dispatchable")
		}
		s.Enqueue(j) // keep the depth constant
	}
	b.StopTimer()
	return float64(b.Elapsed().Nanoseconds()) / float64(b.N)
}

// bench6Baseline loads the committed scheduler baseline.
func bench6Baseline(b *testing.B) map[string]float64 {
	data, err := os.ReadFile("BENCH_6.json")
	if err != nil {
		b.Fatalf("BENCH_GATE set but baseline unreadable: %v", err)
	}
	var doc struct {
		Schedule struct {
			LatencyRatio map[string]float64 `json:"latency_ratio_vs_depth100"`
		} `json:"schedule"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		b.Fatalf("BENCH_6.json: %v", err)
	}
	return doc.Schedule.LatencyRatio
}

// BenchmarkSchedule measures scheduler decision latency against queue
// depth. The gate compares each depth's latency as a RATIO to the in-run
// depth-100 measurement — machine-independent, so CI hardware differences
// don't trip it while algorithmic blowups (a linear scan turning
// quadratic) do: the ratio may not regress more than 10% over the
// committed BENCH_6.json baseline. The held=4000 case is gated the same
// way: depth 100 next to 4000 held jobs may cost at most 1.5× depth 100
// alone — a decision that walks the held set costs tens of times that.
func BenchmarkSchedule(b *testing.B) {
	depths := []int{100, 1000, 10000}
	ns := make(map[int]float64, len(depths))
	for _, depth := range depths {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			ns[depth] = scheduleNsPerDecision(b, depth, 0)
			b.ReportMetric(ns[depth], "ns/decision")
		})
	}
	var heldRatio float64
	b.Run("depth=100/held=4000", func(b *testing.B) {
		// Best of three alternating pairs: 2000 decisions last about
		// 2 ms, and one hiccup of the host must not decide a 1.5× gate.
		nsHeld, nsFree := math.Inf(1), math.Inf(1)
		for i := 0; i < 3; i++ {
			nsFree = min(nsFree, scheduleNsPerDecision(b, 100, 0))
			nsHeld = min(nsHeld, scheduleNsPerDecision(b, 100, 4000))
		}
		heldRatio = nsHeld / nsFree
		b.ReportMetric(nsHeld, "ns/decision")
		b.ReportMetric(heldRatio, "x-held/free")
	})
	if os.Getenv("BENCH_GATE") == "" || ns[100] <= 0 {
		return
	}
	if heldRatio > 1.5 {
		b.Fatalf("decision latency depends on the held backlog: %.2f× with 4000 held jobs, limit 1.5×", heldRatio)
	}
	base := bench6Baseline(b)
	for _, depth := range depths[1:] {
		ratio := ns[depth] / ns[100]
		want, ok := base[strconv.Itoa(depth)]
		if !ok || want <= 0 {
			b.Fatalf("BENCH_6.json has no latency-ratio baseline for depth %d", depth)
		}
		if ratio > want*1.10 {
			b.Fatalf("decision latency regressed >10%% at depth %d: ratio %.1f, baseline %.1f", depth, ratio, want)
		}
	}
}

// BenchmarkEngineThroughputConcurrent measures navigated activities per
// second on the worker-pool executor with many client goroutines starting
// instances at once, checkpointing to a real disk store (fsync on). Every
// activity pays for a dispatch checkpoint and a completion checkpoint;
// under the instance-sharded lock table independent instances overlap their
// turns, so concurrent checkpoints group-commit and share fsyncs.
func BenchmarkEngineThroughputConcurrent(b *testing.B) {
	const src = `
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
	lib := core.NewLibrary()
	lib.RegisterFunc("bench.id", func(_ core.ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
		return map[string]ocr.Value{"r": args["x"]}, nil
	})
	st, err := store.OpenDisk(b.TempDir(), store.DiskOptions{})
	if err != nil {
		b.Fatal(err)
	}
	rt, err := core.NewLocalRuntime(core.LocalConfig{
		Workers: 16,
		Store:   st,
		Library: lib,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	if err := rt.RegisterTemplateSource(src); err != nil {
		b.Fatal(err)
	}
	var activities atomic.Int64
	b.SetParallelism(8) // 8·GOMAXPROCS client goroutines
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			id, err := rt.StartProcess("Chain8", map[string]ocr.Value{"x": ocr.Num(1)}, core.StartOptions{})
			if err != nil {
				b.Fatal(err)
			}
			in, err := rt.Wait(id, time.Minute)
			if err != nil {
				b.Fatal(err)
			}
			if in.Status != core.InstanceDone {
				b.Fatalf("instance %s (%s)", in.Status, in.FailureReason)
			}
			activities.Add(int64(in.Activities))
		}
	})
	b.ReportMetric(float64(activities.Load())/b.Elapsed().Seconds(), "activities/s")
}

// --- PR 7: recovery at scale ---

// benchFanSrc is one PARALLEL block of identity activities over xs: the
// engine benchmarks' fan, and the template cloned across the recovery
// stores — there 4 wide, so each instance carries a root scope, a block
// scope skeleton, four task records, and one interned process text.
const benchFanSrc = `
PROCESS Fan {
  INPUT xs;
  OUTPUT done;
  BLOCK F PARALLEL OVER xs AS x {
    MAP results -> done;
    OUTPUT r;
    ACTIVITY A { CALL bench.id(x = x); OUT r; MAP r -> r; }
  }
}`

// benchFanLibrary registers the fan's identity program.
func benchFanLibrary() *core.Library {
	lib := core.NewLibrary()
	if err := lib.RegisterFunc("bench.id", func(_ core.ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
		return map[string]ocr.Value{"r": args["x"]}, nil
	}); err != nil {
		panic(err)
	}
	return lib
}

// recoverSeeds drives one suspended and one running instance through a
// real engine and captures their delta records: the clone templates the
// synthetic recovery stores below are stamped from. Synthesizing by clone
// (key/ID rewrite) rather than re-running the engine N times makes a
// 100k-instance store buildable in seconds while keeping every record
// byte-exactly the shape recovery sees in production.
type recoverSeedSet struct {
	susp, act     []store.KV
	suspID, actID string
}

func recoverSeeds(b *testing.B) recoverSeedSet {
	b.Helper()
	st := store.NewMem()
	rt, err := core.NewSimRuntime(core.SimConfig{Seed: 1, Spec: cluster.IkLinux(), Store: st, Library: benchFanLibrary()})
	if err != nil {
		b.Fatal(err)
	}
	if err := rt.Engine.RegisterTemplateSource(benchFanSrc); err != nil {
		b.Fatal(err)
	}
	xs := ocr.List(ocr.Num(1), ocr.Num(2), ocr.Num(3), ocr.Num(4))
	suspID, err := rt.Engine.StartProcess("Fan", map[string]ocr.Value{"xs": xs}, core.StartOptions{})
	if err != nil {
		b.Fatal(err)
	}
	actID, err := rt.Engine.StartProcess("Fan", map[string]ocr.Value{"xs": xs}, core.StartOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if err := rt.Engine.Suspend(suspID, false); err != nil {
		b.Fatal(err)
	}
	kvs, err := st.List(store.Instance)
	if err != nil {
		b.Fatal(err)
	}
	var set recoverSeedSet
	set.suspID, set.actID = suspID, actID
	for _, kv := range kvs {
		switch {
		case strings.Contains(kv.Key, suspID):
			set.susp = append(set.susp, kv)
		case strings.Contains(kv.Key, actID):
			set.act = append(set.act, kv)
		}
	}
	if len(set.susp) == 0 || len(set.act) == 0 {
		b.Fatalf("seed capture: %d suspended / %d active records", len(set.susp), len(set.act))
	}
	return set
}

// buildRecoveryStore stamps n instances into a fresh store, activePct of
// them running and the rest suspended — the "huge dormant population, tiny
// active set" profile a long-lived virtual laboratory accumulates. The
// clone IDs must be exactly as long as the seed IDs: binary codec records
// length-prefix their strings, so only a same-length substitution leaves
// the record framing intact (JSON records never cared).
func buildRecoveryStore(b *testing.B, dst store.Store, n int, seeds recoverSeedSet) {
	b.Helper()
	nActive := n / 100 // 1% active
	if nActive < 1 {
		nActive = 1
	}
	for i := 0; i < n; i++ {
		seed, oldID := seeds.susp, seeds.suspID
		if i < nActive {
			seed, oldID = seeds.act, seeds.actID
		}
		suffix := strconv.FormatInt(int64(i), 36)
		newID := oldID[:len(oldID)-len(suffix)] + suffix
		if len(newID) != len(oldID) {
			b.Fatalf("clone ID %q length differs from seed %q", newID, oldID)
		}
		for _, kv := range seed {
			key := strings.ReplaceAll(kv.Key, oldID, newID)
			val := bytes.ReplaceAll(kv.Value, []byte(oldID), []byte(newID))
			if err := dst.Put(store.Instance, key, val); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// recoverOnce builds a fresh engine over st and times one Recover call.
// The heap is collected first: a prior recovery leaves its dead engine state
// behind, and without the collection its GC debt lands inside the next
// timed region.
func recoverOnce(b *testing.B, st store.Store, n int) time.Duration {
	b.Helper()
	runtime.GC()
	rt, err := core.NewSimRuntime(core.SimConfig{
		Seed: 1, Spec: cluster.IkLinux(), Store: st,
		Library: benchFanLibrary(),
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := rt.Engine.RegisterTemplateSource(benchFanSrc); err != nil {
		b.Fatal(err)
	}
	start := time.Now()
	got, err := rt.Engine.Recover()
	elapsed := time.Since(start)
	if err != nil {
		b.Fatal(err)
	}
	if got != n {
		b.Fatalf("recovered %d of %d", got, n)
	}
	return elapsed
}

// BenchmarkRecover measures cold-start recovery (Engine.Recover) over
// synthetic stores of 1k/10k/100k instances at 1% active. The dormant 99%
// come back as stubs, of which only the metadata is decoded.
func BenchmarkRecover(b *testing.B) {
	seeds := recoverSeeds(b)
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			st := store.NewMem()
			buildRecoveryStore(b, st, n, seeds)
			var total time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				total += recoverOnce(b, st, n)
			}
			b.StopTimer()
			perRecover := total / time.Duration(b.N)
			b.ReportMetric(float64(n)/perRecover.Seconds(), "instances/s")
			b.ReportMetric(perRecover.Seconds()*1000, "ms/recover")
		})
	}
}

// BenchmarkFailover times the full promotion path: a hot standby that has
// converged with a 1000-instance primary is cut over — primary dies,
// standby promotes its store, and a fresh engine recovers every instance.
// The measured section is death → ready-to-serve.
func BenchmarkFailover(b *testing.B) {
	seeds := recoverSeeds(b)
	const n = 1000
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p, err := store.OpenDisk(b.TempDir(), store.DiskOptions{NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		buildRecoveryStore(b, p, n, seeds)
		shipper, err := p.StartShipping("127.0.0.1:0", nil)
		if err != nil {
			b.Fatal(err)
		}
		sb, err := store.OpenStandby(b.TempDir(), store.DiskOptions{NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		followErr := make(chan error, 1)
		go func() { followErr <- sb.Follow(shipper.Addr()) }()
		want, err := p.Digest()
		if err != nil {
			b.Fatal(err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			got, err := sb.Store().Digest()
			if err != nil {
				b.Fatal(err)
			}
			if got == want {
				break
			}
			if time.Now().After(deadline) {
				b.Fatal("standby never converged")
			}
			time.Sleep(2 * time.Millisecond)
		}
		b.StartTimer()
		// Primary dies; the standby takes over.
		if err := shipper.Close(); err != nil {
			b.Fatal(err)
		}
		if err := p.Close(); err != nil {
			b.Fatal(err)
		}
		<-followErr
		promoted, err := sb.Promote()
		if err != nil {
			b.Fatal(err)
		}
		rt, err := core.NewSimRuntime(core.SimConfig{
			Seed: 1, Spec: cluster.IkLinux(), Store: promoted,
			Library: benchFanLibrary(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := rt.Engine.RegisterTemplateSource(benchFanSrc); err != nil {
			b.Fatal(err)
		}
		got, err := rt.Engine.Recover()
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if got != n {
			b.Fatalf("recovered %d of %d", got, n)
		}
		if err := promoted.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/failover")
}

// fedBenchSrc chains three activities so federated instances exercise the
// whole dispatch/checkpoint path rather than completing in one turn.
const fedBenchSrc = `
PROCESS FedChain {
  INPUT x;
  OUTPUT r;
  ACTIVITY A { CALL fedbench.step(x = x); OUT out; MAP out -> a; }
  ACTIVITY B { CALL fedbench.step(x = a); OUT out; MAP out -> b; }
  ACTIVITY C { CALL fedbench.step(x = b); OUT out; MAP out -> r; }
  A -> B;
  B -> C;
}`

func fedBenchLibrary(stepTime time.Duration) *core.Library {
	lib := core.NewLibrary()
	lib.Register(core.Program{
		Name: "fedbench.step",
		Run: func(_ core.ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
			if stepTime > 0 {
				time.Sleep(stepTime)
			}
			return map[string]ocr.Value{"out": ocr.Num(args["x"].AsNum()*2 + 1)}, nil
		},
	})
	return lib
}

// bootFedBench boots a federation for benchmarking: n members (each over
// its own store when shared is nil — the shared-nothing deployment — or all
// over shared) plus a library-only gateway routing to them. It blocks until
// every partition has exactly one owner.
func bootFedBench(b *testing.B, n, partitions int, shared store.Store, stepTime time.Duration) ([]*fed.Member, *fed.Gateway) {
	b.Helper()
	members := make([]*fed.Member, 0, n)
	var joins []string
	for i := 0; i < n; i++ {
		st := shared
		if st == nil {
			st = store.NewMem()
			mem := st
			b.Cleanup(func() { mem.Close() })
		}
		m, err := fed.NewMember(fed.Config{
			Name:             fmt.Sprintf("bench%d", i+1),
			ListenAddr:       "127.0.0.1:0",
			Join:             append([]string(nil), joins...),
			Store:            st,
			Library:          fedBenchLibrary(stepTime),
			Workers:          4,
			Partitions:       partitions,
			HeartbeatEvery:   25 * time.Millisecond,
			HeartbeatTimeout: 100 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(m.Close)
		if err := m.Runtime().RegisterTemplateSource(fedBenchSrc); err != nil {
			b.Fatal(err)
		}
		members = append(members, m)
		joins = append(joins, m.Addr())
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		owners := make(map[int]int)
		short := false
		for _, m := range members {
			owned := m.OwnedPartitions()
			if len(owned) == 0 {
				short = true
			}
			for _, p := range owned {
				owners[p]++
			}
		}
		balanced := !short && len(owners) == partitions
		for _, c := range owners {
			if c != 1 {
				balanced = false
			}
		}
		if balanced {
			break
		}
		if time.Now().After(deadline) {
			b.Fatal("federation ownership never settled")
		}
		time.Sleep(10 * time.Millisecond)
	}
	g, err := fed.NewGateway(fed.GatewayConfig{Members: joins})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(g.Close)
	return members, g
}

// BenchmarkFederatedThroughput measures end-to-end instance throughput
// through the gateway for 1/2/4 shared-nothing members: start K three-step
// chains, wait for all of them, report instances/s. Activities are pure
// compute (no sleep), so the measured cost is navigation, checkpointing,
// and the routed-RPC layer; the shared-nothing stores mean members scale
// without write contention.
func BenchmarkFederatedThroughput(b *testing.B) {
	const instances = 48
	for _, servers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("servers=%d", servers), func(b *testing.B) {
			_, g := bootFedBench(b, servers, 8, nil, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ids := make([]string, instances)
				for j := range ids {
					id, err := g.Start(fed.StartReq{
						Template: "FedChain",
						Inputs:   map[string]ocr.Value{"x": ocr.Num(float64(j))},
					})
					if err != nil {
						b.Fatal(err)
					}
					ids[j] = id
				}
				for j, id := range ids {
					res, err := g.Wait(id, 30*time.Second)
					if err != nil {
						b.Fatal(err)
					}
					if res.Status != core.InstanceDone.String() {
						b.Fatalf("%s: %s (%s)", id, res.Status, res.Failure)
					}
					if got, want := res.Outputs["r"].AsNum(), float64(8*j+7); got != want {
						b.Fatalf("%s: r = %v, want %v", id, got, want)
					}
				}
			}
			b.StopTimer()
			perRun := b.Elapsed() / time.Duration(b.N)
			b.ReportMetric(float64(instances)/perRun.Seconds(), "instances/s")
		})
	}
}

// BenchmarkServerFailover measures whole-server failover in a shared-store
// federation: 3 members run 12 in-flight instances, one member is killed,
// and the measured section is kill → every instance (including the dead
// member's) completed through the gateway. That covers failure detection
// (100ms heartbeat timeout), lease reclamation under a new incarnation,
// partition-scoped recovery, and re-execution from the last checkpoint.
func BenchmarkServerFailover(b *testing.B) {
	const instances = 12
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := store.NewMem()
		// Registered before bootFedBench's member cleanups so the LIFO
		// cleanup order closes every member before the store they share.
		b.Cleanup(func() { st.Close() })
		members, g := bootFedBench(b, 3, 8, st, 10*time.Millisecond)
		ids := make([]string, instances)
		for j := range ids {
			id, err := g.Start(fed.StartReq{
				Template: "FedChain",
				Inputs:   map[string]ocr.Value{"x": ocr.Num(float64(j))},
			})
			if err != nil {
				b.Fatal(err)
			}
			ids[j] = id
		}
		victim := members[0]
		if name := fed.MemberOf(ids[0]); name != "" {
			for _, m := range members {
				if m.Name() == name {
					victim = m
				}
			}
		}
		b.StartTimer()
		victim.Close()
		for j, id := range ids {
			res, err := g.Wait(id, 30*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			if res.Status != core.InstanceDone.String() {
				b.Fatalf("%s: %s (%s)", id, res.Status, res.Failure)
			}
			if got, want := res.Outputs["r"].AsNum(), float64(8*j+7); got != want {
				b.Fatalf("%s: r = %v, want %v", id, got, want)
			}
		}
		b.StopTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/failover-to-complete")
}
