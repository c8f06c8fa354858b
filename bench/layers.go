package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bioopera/internal/cluster"
	"bioopera/internal/codec"
	"bioopera/internal/core"
	"bioopera/internal/fed"
	"bioopera/internal/ocr"
	"bioopera/internal/sched"
	"bioopera/internal/store"
	"bioopera/internal/wal"
)

// perLayerDefs are the per-layer metrics of BENCHMARK.json, in the order
// they print. The layer is the part of the name before the first dot: the
// engine's module names, plus client (this package's closed-loop client),
// proc (the process) and bench (the harness itself). A metric that does not
// apply to a workload reads 0 there: remote.* off remote_chains, wal.* off
// the disk workloads, fed.* (probed on remote_chains only), obs.* (probed on
// sim_fanout only), core.recover_* and store.open_ms/list_ms off
// restart_recover.
var perLayerDefs = []metricDef{
	{name: "client.start_call_us_p50", unit: "us", better: "lower"},
	{name: "client.start_to_done_p99_ms", unit: "ms", better: "lower"},
	{name: "ocr.register_template_us", unit: "us", better: "lower"},
	{name: "core.ready_to_dispatch_us_p50", unit: "us", better: "lower"},
	{name: "core.dispatch_to_run_us_p50", unit: "us", better: "lower"},
	{name: "core.run_to_ended_us_p50", unit: "us", better: "lower"},
	{name: "core.ended_to_ready_us_p50", unit: "us", better: "lower"},
	{name: "core.turn_self_us_p50", unit: "us", better: "lower"},
	{name: "core.events_per_activity", unit: "count", better: "lower"},
	{name: "core.recover_ms", unit: "ms", better: "lower"},
	{name: "core.recover_us_per_instance", unit: "us", better: "lower"},
	{name: "sched.queue_depth_p50", unit: "count", better: "lower"},
	{name: "sched.queue_depth_max", unit: "count", better: "lower"},
	{name: "sched.next_probe_ns_d200", unit: "ns", better: "lower"},
	{name: "sched.next_probe_ns_d4000_inadmissible", unit: "ns", better: "lower"},
	{name: "codec.bytes_per_record", unit: "B", better: "lower"},
	{name: "codec.records_per_activity", unit: "count", better: "lower"},
	{name: "codec.encode_probe_ns_per_record", unit: "ns", better: "lower"},
	{name: "store.batch_us_p50", unit: "us", better: "lower"},
	{name: "store.batch_us_p95", unit: "us", better: "lower"},
	{name: "store.batches_per_activity", unit: "count", better: "lower"},
	{name: "store.ops_per_batch", unit: "count", better: "higher"},
	{name: "store.busy_share", unit: "%", better: "lower"},
	{name: "store.open_ms", unit: "ms", better: "lower"},
	{name: "store.list_ms", unit: "ms", better: "lower"},
	{name: "wal.fsyncs_per_activity", unit: "count", better: "lower"},
	{name: "wal.bytes_on_disk_per_activity", unit: "B", better: "lower"},
	{name: "wal.append_probe_us", unit: "us", better: "lower"},
	{name: "remote.roundtrip_us_p50", unit: "us", better: "lower"},
	{name: "remote.agent_join_ms", unit: "ms", better: "lower"},
	{name: "fed.rpc_status_us_p50", unit: "us", better: "lower"},
	{name: "fed.start_to_done_ms_p50", unit: "ms", better: "lower"},
	{name: "obs.enabled_slowdown_pct", unit: "%", better: "lower"},
	{name: "proc.cpu_ms_per_kact", unit: "ms", better: "lower"},
	{name: "proc.sys_cpu_share", unit: "%", better: "lower"},
	{name: "proc.gc_cycles_per_kact", unit: "count", better: "lower"},
	{name: "proc.gc_pause_ms_total", unit: "ms", better: "lower"},
	{name: "proc.minor_faults_per_kact", unit: "count", better: "lower"},
	{name: "proc.goroutines_peak", unit: "count", better: "lower"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "bench.build_image_s", unit: "s", better: "lower"},
	{name: "bench.rep_spread_pct", unit: "%", better: "lower"},
	{name: "bench.host_speed_pct", unit: "%", better: "higher"},
	{name: "bench.timed_activities_per_s", unit: "1/s", better: "higher"},
}

// medianOver is the median across repetitions of a per-repetition value.
func medianOver(reps []repResult, f func(repResult) float64) float64 {
	vals := make([]float64, len(reps))
	for i, rep := range reps {
		vals[i] = f(rep)
	}
	return median(vals)
}

func perKact(v float64, rep repResult) float64 { return 1e3 * ratio(v, float64(rep.activities)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer computes every per-layer metric of a traced run. plain are the
// run's untraced repetitions, traced the ones recorded with spans, observed
// (sim_fanout only) the ones run with the engine's own metrics on; the kinds
// take turns, so their throughput differences are the tracing overhead and
// the instrumentation's slowdown. It also
// returns self time summed by span name for the last traced repetition.
func perLayer(rc *runCtx, workload string, plain, traced, observed []repResult) (map[string]metric, map[string]float64, error) {
	v := make(map[string]float64, len(perLayerDefs))
	all := append(append([]repResult(nil), plain...), traced...)

	spanTime := func(f func(spanTimes) float64) float64 {
		return medianOver(traced, func(r repResult) float64 { return f(r.times) })
	}
	v["client.start_call_us_p50"] = medianOver(traced, func(r repResult) float64 { return percentile(r.startUS, 50) })
	v["client.start_to_done_p99_ms"] = percentile(scaledLatencies(traced), 99)
	v["ocr.register_template_us"] = medianOver(all, func(r repResult) float64 { return r.registerUS })

	v["core.ready_to_dispatch_us_p50"] = spanTime(func(t spanTimes) float64 { return t.readyToDispatchUS })
	v["core.dispatch_to_run_us_p50"] = spanTime(func(t spanTimes) float64 { return t.dispatchToRunUS })
	v["core.run_to_ended_us_p50"] = spanTime(func(t spanTimes) float64 { return t.runToEndedUS })
	v["core.ended_to_ready_us_p50"] = spanTime(func(t spanTimes) float64 { return t.endedToReadyUS })
	v["core.turn_self_us_p50"] = spanTime(func(t spanTimes) float64 { return t.turnSelfUS })
	v["core.events_per_activity"] = medianOver(all, func(r repResult) float64 {
		return ratio(float64(r.store.events), float64(r.activities))
	})
	if workload == "restart_recover" {
		v["core.recover_ms"] = medianOver(all, func(r repResult) float64 { return r.recoverMS })
		v["core.recover_us_per_instance"] = medianOver(all, func(r repResult) float64 {
			return ratio(r.recoverMS*1e3, float64(r.recovered))
		})
		v["store.open_ms"] = medianOver(all, func(r repResult) float64 { return r.openMS })
		v["store.list_ms"] = spanTime(func(t spanTimes) float64 { return t.listMS })
		v["bench.build_image_s"] = rc.buildImageS
	}

	v["sched.queue_depth_p50"] = medianOver(traced, func(r repResult) float64 { return percentile(r.depths, 50) })
	v["sched.queue_depth_max"] = medianOver(traced, func(r repResult) float64 { return percentile(r.depths, 100) })
	v["sched.next_probe_ns_d200"] = schedProbe(200, 1, rc.sz.probeIters)
	v["sched.next_probe_ns_d4000_inadmissible"] = schedProbe(4000, 20, rc.sz.probeIters/10)

	v["codec.bytes_per_record"] = medianOver(all, func(r repResult) float64 {
		return ratio(float64(r.store.recBytes), float64(r.store.records))
	})
	v["codec.records_per_activity"] = medianOver(all, func(r repResult) float64 {
		return ratio(float64(r.store.records), float64(r.activities))
	})
	v["codec.encode_probe_ns_per_record"] = codecProbe(rc, workload, rc.sz.probeIters)

	v["store.batch_us_p50"] = spanTime(func(t spanTimes) float64 { return t.batchP50US })
	v["store.batch_us_p95"] = spanTime(func(t spanTimes) float64 { return t.batchP95US })
	v["store.batches_per_activity"] = medianOver(all, func(r repResult) float64 {
		return ratio(float64(r.store.batches), float64(r.activities))
	})
	v["store.ops_per_batch"] = medianOver(all, func(r repResult) float64 {
		return ratio(float64(r.store.ops), float64(r.store.batches))
	})
	v["store.busy_share"] = spanTime(func(t spanTimes) float64 { return t.storeBusyPct })

	if workload == "disk_chains" || workload == "restart_recover" {
		v["wal.fsyncs_per_activity"] = medianOver(all, func(r repResult) float64 {
			return ratio(float64(r.walSyncs), float64(r.activities))
		})
		v["wal.bytes_on_disk_per_activity"] = medianOver(all, func(r repResult) float64 {
			return ratio(float64(r.walDiskBytes), float64(r.activities))
		})
	}
	probe, err := walProbe(rc.workDir, rc.sz.probeIters/10)
	if err != nil {
		return nil, nil, fmt.Errorf("wal probe: %w", err)
	}
	v["wal.append_probe_us"] = probe

	if workload == "remote_chains" {
		v["remote.roundtrip_us_p50"] = spanTime(func(t spanTimes) float64 { return t.dispatchToEndedUS })
		v["remote.agent_join_ms"] = medianOver(all, func(r repResult) float64 { return r.agentJoinMS })
		statusUS, chainMS, err := fedProbe(rc)
		if err != nil {
			return nil, nil, fmt.Errorf("fed probe: %w", err)
		}
		v["fed.rpc_status_us_p50"] = statusUS
		v["fed.start_to_done_ms_p50"] = chainMS
	}

	plainRate := medianOver(plain, perSecond)
	if len(observed) > 0 {
		v["obs.enabled_slowdown_pct"] = 100 * ratio(plainRate-medianOver(observed, perSecond), plainRate)
	}

	v["proc.cpu_ms_per_kact"] = medianOver(plain, func(r repResult) float64 { return perKact(r.proc.userMS+r.proc.sysMS, r) })
	v["proc.sys_cpu_share"] = medianOver(plain, func(r repResult) float64 {
		return 100 * ratio(r.proc.sysMS, r.proc.userMS+r.proc.sysMS)
	})
	v["proc.gc_cycles_per_kact"] = medianOver(plain, func(r repResult) float64 { return perKact(r.proc.gcCycles, r) })
	v["proc.gc_pause_ms_total"] = medianOver(plain, func(r repResult) float64 { return r.proc.gcPauseMS })
	v["proc.minor_faults_per_kact"] = medianOver(plain, func(r repResult) float64 { return perKact(r.proc.minorFaults, r) })
	for _, r := range traced {
		if g := float64(r.goroutines); g > v["proc.goroutines_peak"] {
			v["proc.goroutines_peak"] = g
		}
	}

	v["bench.trace_overhead_pct"] = 100 * ratio(plainRate-medianOver(traced, perSecond), plainRate)
	rates := make([]float64, len(plain))
	for i, r := range plain {
		rates[i] = timedPerSecond(r)
	}
	v["bench.rep_spread_pct"] = 100 * iqrShare(rates)
	v["bench.host_speed_pct"] = 100 * medianOver(plain, func(r repResult) float64 { return r.speed })
	v["bench.timed_activities_per_s"] = medianOver(plain, timedPerSecond)

	out := make(map[string]metric, len(perLayerDefs))
	for _, d := range perLayerDefs {
		out[d.name] = metric{Value: v[d.name], Unit: d.unit}
	}
	self := make(map[string]float64)
	if len(traced) > 0 {
		for _, s := range traced[len(traced)-1].spans {
			self[s.Name] += float64(s.Self) / 1e6
		}
	}
	return out, self, nil
}

// spanTimes is what a traced repetition's spans reduce to: the per-layer
// timings, each the repetition's own median (or the named percentile).
type spanTimes struct {
	readyToDispatchUS, dispatchToRunUS, runToEndedUS, endedToReadyUS float64
	turnSelfUS                                                       float64 // run_to_ended minus the store spans inside it
	dispatchToEndedUS                                                float64
	batchP50US                                                       float64
	batchP95US                                                       float64
	listMS                                                           float64 // summed store.List time
	storeBusyPct                                                     float64
}

// newSpanTimes reduces linked spans. storeBusyPct is the share of the
// measured phase [phaseStart, phaseEnd) during which a store mutation was in
// progress: the summed durations of the store.* spans that started inside it
// over its length. Two workers can overlap, so it is a load figure.
func newSpanTimes(spans []span, phaseStart, phaseEnd int64) spanTimes {
	p50 := func(name string) float64 { return percentile(spanUS(spans, name, false), 50) }
	t := spanTimes{
		readyToDispatchUS: p50(stageReadyToDispatch),
		dispatchToRunUS:   p50(stageDispatchToRun),
		runToEndedUS:      p50(stageRunToEnded),
		endedToReadyUS:    p50(stageEndedToReady),
		turnSelfUS:        percentile(spanUS(spans, stageRunToEnded, true), 50),
		dispatchToEndedUS: p50(spanDispatchToEnded),
		batchP50US:        p50("store.batch"),
		batchP95US:        percentile(spanUS(spans, "store.batch", false), 95),
	}
	var busy int64
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, "store.") {
			continue
		}
		if s.Name == "store.list" {
			t.listMS += float64(s.dur()) / 1e6
		} else if s.Start >= phaseStart && s.Start < phaseEnd {
			busy += s.dur()
		}
	}
	if phaseEnd > phaseStart {
		t.storeBusyPct = 100 * float64(busy) / float64(phaseEnd-phaseStart)
	}
	return t
}

// --- standalone probes: one layer at a time, through its public functions ---

// schedProbe times sched.Scheduler.Next (plus the Enqueue that restores the
// depth) on a queue of depth jobs of which only every admitEvery-th passes
// admit — the shape of restart_recover's queue of suspended instances when
// admitEvery is 20, and of sim_fanout's when it is 1. Returns ns per call.
func schedProbe(depth, admitEvery, iters int) float64 {
	s := sched.New(sched.Config{})
	admissible := make(map[string]bool, depth)
	for i := 0; i < depth; i++ {
		id := fmt.Sprintf("j%06d", i)
		admissible[id] = i%admitEvery == admitEvery-1
		s.Enqueue(sched.Job{ID: id, Key: "bench.id", Cost: time.Second})
	}
	var nodes []cluster.NodeView
	for _, n := range cluster.IkLinux().Nodes {
		nodes = append(nodes, cluster.NodeView{Name: n.Name, OS: n.OS, Up: true, CPUs: n.CPUs, Speed: n.Speed})
	}
	admit := func(j sched.Job) bool { return admissible[j.ID] }
	if iters < 1 {
		iters = 1
	}
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		j, _, ok := s.Next(nodes, admit)
		if !ok {
			return 0
		}
		s.Enqueue(j)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(iters)
}

// probeRecordKind tags the probe's records; any kind byte exercises the same
// encoder path.
const probeRecordKind = 1

// codecProbe times codec.Encoder over the value map an instance of the
// workload carries on its whiteboard. Returns ns per record.
func codecProbe(rc *runCtx, workload string, iters int) float64 {
	var values map[string]ocr.Value
	if workload == "sim_fanout" {
		values = map[string]ocr.Value{"xs": ocr.List(rc.fanInput(0)...)}
	} else {
		x := ocr.Str(rc.chainInput(0))
		values = map[string]ocr.Value{"x": x, "w1": x, "w2": x, "w3": x}
	}
	enc := codec.Get()
	defer codec.Put(enc)
	if iters < 1 {
		iters = 1
	}
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		enc.Reset()
		enc.Begin(probeRecordKind)
		enc.ValueMap(values)
		enc.End()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(iters)
}

// walProbe times wal.Log.AppendBatch, default flush policy, on a batch the
// size of a chain checkpoint: three records of 320 bytes. Returns µs per
// batch.
func walProbe(workDir string, iters int) (us float64, err error) {
	dir, err := os.MkdirTemp(workDir, "walprobe-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	l, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{})
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := l.Close(); err == nil {
			err = cerr
		}
	}()
	batch := [][]byte{make([]byte, 320), make([]byte, 320), make([]byte, 320)}
	if iters < 1 {
		iters = 1
	}
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := l.AppendBatch(batch); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Microseconds()) / float64(iters), nil
}

// fedProbe measures the federation path that is not a workload yet: one
// member, a listening gateway in front of it, and a client dialled to the
// gateway. It returns the p50 of fedStatusCalls Status calls (µs) and of
// fedChains Chain8 start-to-done times (ms).
func fedProbe(rc *runCtx) (statusUS, chainMS float64, err error) {
	const partitions = 4
	st := store.NewMem()
	defer st.Close()
	m, err := fed.NewMember(fed.Config{
		Name: "bench1", ListenAddr: "127.0.0.1:0", Store: st, Library: rc.library(nil),
		Workers: 2, Partitions: partitions,
		HeartbeatEvery: 25 * time.Millisecond, HeartbeatTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		return 0, 0, err
	}
	defer m.Close()
	if err := m.Runtime().RegisterTemplateSource(chainSrc); err != nil {
		return 0, 0, err
	}
	for deadline := time.Now().Add(waitBound); len(m.OwnedPartitions()) < partitions; {
		if time.Now().After(deadline) {
			return 0, 0, fmt.Errorf("member never claimed its %d partitions", partitions)
		}
		time.Sleep(5 * time.Millisecond)
	}
	g, err := fed.NewGateway(fed.GatewayConfig{ListenAddr: "127.0.0.1:0", Members: []string{m.Addr()}})
	if err != nil {
		return 0, 0, err
	}
	defer g.Close()
	c, err := fed.DialClient(g.Addr(), waitBound)
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()

	var chains, statuses []float64
	var last string
	for i := 0; i < rc.sz.fedChains; i++ {
		x := rc.chainInput(i)
		t0 := time.Now()
		id, err := c.Start(fed.StartReq{Template: "Chain8", Inputs: map[string]ocr.Value{"x": ocr.Str(x)}})
		if err != nil {
			return 0, 0, err
		}
		res, err := c.Wait(id, waitBound)
		if err != nil {
			return 0, 0, err
		}
		if res.Status != core.InstanceDone.String() || res.Outputs["r"].AsStr() != x {
			return 0, 0, fmt.Errorf("instance %s: status %s, output check failed", id, res.Status)
		}
		chains = append(chains, time.Since(t0).Seconds()*1e3)
		last = id
	}
	for i := 0; i < rc.sz.fedStatusCalls; i++ {
		t0 := time.Now()
		if _, err := c.Status(last); err != nil {
			return 0, 0, err
		}
		statuses = append(statuses, float64(time.Since(t0))/1e3)
	}
	return percentile(statuses, 50), percentile(chains, 50), nil
}
