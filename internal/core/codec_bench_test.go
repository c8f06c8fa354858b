package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bioopera/internal/codec"
	"bioopera/internal/ocr"
	"bioopera/internal/sim"
)

// The codec micro-benchmarks measure the PR 10 tentpole directly: binary
// encode/decode of one activity completion's checkpoint records (the
// instance meta + the touched task) against the encoding/json path they
// replaced. The gate is the in-run speedup RATIO — machine-independent,
// like the scheduler's latency-ratio gate — plus the hard 0-alloc budget.

func benchMeta() InstanceMeta {
	return InstanceMeta{
		ID: "p0042", Template: "AllVsAll", Status: InstanceRunning,
		Priority: 1, Tenant: "lab-a",
		Started: sim.Time(90 * time.Second), Activities: 412,
		CPU: 18 * time.Minute, Failures: 2, Retries: 2,
		Outputs: map[string]ocr.Value{
			"master_file": ocr.List(ocr.Num(1.5), ocr.Num(2.5), ocr.Num(3.5)),
			"summary":     ocr.Str("412 alignments"),
		},
	}
}

func benchTask() taskState {
	return taskState{
		Name: "Align[17]", Status: TaskEnded, Attempts: 1,
		Inputs: map[string]ocr.Value{
			"a": ocr.Str("seq-000017"), "b": ocr.Str("seq-000031"),
			"pam": ocr.Num(120),
		},
		Outputs: map[string]ocr.Value{
			"score": ocr.Num(1234.5), "pam": ocr.Num(87.25),
		},
		Node: "ik-sun-03", Job: "j001742",
		ReadyAt: sim.Time(91 * time.Second), StartedAt: sim.Time(92 * time.Second),
		EndedAt: sim.Time(97 * time.Second), CPUTime: 5 * time.Second,
		// A list payload in a slot the record carries (Results is derived
		// state and is written empty).
		OverElems: []ocr.Value{ocr.List(ocr.Str("seq-000017"), ocr.Str("seq-000031"), ocr.Num(1234.5))},
	}
}

// codecSpeedupVsJSON times dedicated loops of the binary and JSON encoders
// over the same records and returns json-ns / binary-ns. Dedicated loops (not
// b.N) keep the ratio stable under -benchtime=1x smoke runs.
func codecSpeedupVsJSON(b *testing.B, reps int) float64 {
	meta, task := benchMeta(), benchTask()
	e := codec.Get()
	defer codec.Put(e)
	encode := func() {
		e.Reset()
		encodeMeta(e, &meta)
		encodeTask(e, &task)
	}
	encode() // warm
	start := time.Now()
	for i := 0; i < reps; i++ {
		encode()
	}
	binNs := float64(time.Since(start).Nanoseconds()) / float64(reps)
	start = time.Now()
	for i := 0; i < reps; i++ {
		if _, err := json.Marshal(&meta); err != nil {
			b.Fatal(err)
		}
		if _, err := json.Marshal(&task); err != nil {
			b.Fatal(err)
		}
	}
	jsonNs := float64(time.Since(start).Nanoseconds()) / float64(reps)
	return jsonNs / binNs
}

// gateCodecEncode fails the benchmark when BENCH_GATE is set and either
// the steady-state encode allocates at all, or the measured speedup over
// encoding/json drops more than 10% under the committed BENCH_10.json
// baseline (never below the 2x acceptance floor).
func gateCodecEncode(b *testing.B, speedup, allocs float64) {
	if os.Getenv("BENCH_GATE") == "" {
		return
	}
	if allocs != 0 {
		b.Fatalf("steady-state encode = %v allocs/op; the 0-alloc budget regressed", allocs)
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_10.json"))
	if err != nil {
		b.Fatalf("BENCH_GATE set but baseline unreadable: %v", err)
	}
	var doc struct {
		Codec struct {
			EncodeSpeedupVsJSON float64 `json:"encode_speedup_vs_json"`
		} `json:"codec"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		b.Fatalf("BENCH_10.json: %v", err)
	}
	if doc.Codec.EncodeSpeedupVsJSON <= 0 {
		b.Fatal("BENCH_10.json has no encode_speedup_vs_json baseline")
	}
	floor := doc.Codec.EncodeSpeedupVsJSON / 1.10
	if floor < 2.0 {
		floor = 2.0
	}
	if speedup < floor {
		b.Fatalf("codec encode speedup %.2fx below gate %.2fx (baseline %.2fx, acceptance floor 2x)",
			speedup, floor, doc.Codec.EncodeSpeedupVsJSON)
	}
}

// BenchmarkCodecEncode measures binary encoding of one activity's
// checkpoint records (meta + task) on a warm pooled encoder.
func BenchmarkCodecEncode(b *testing.B) {
	meta, task := benchMeta(), benchTask()
	e := codec.Get()
	defer codec.Put(e)
	encode := func() {
		e.Reset()
		encodeMeta(e, &meta)
		encodeTask(e, &task)
	}
	encode()
	b.SetBytes(int64(len(e.Buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encode()
	}
	b.StopTimer()
	speedup := codecSpeedupVsJSON(b, 20000)
	allocs := testing.AllocsPerRun(200, encode)
	b.ReportMetric(speedup, "x-vs-json")
	b.ReportMetric(allocs, "allocs/op")
	gateCodecEncode(b, speedup, allocs)
}

// BenchmarkCodecDecode measures binary decoding of the same records, with
// the equivalent json.Unmarshal ratio as a reference metric (decode runs
// on recovery and standby replay — off the steady-state hot path, so it
// reports but does not gate).
func BenchmarkCodecDecode(b *testing.B) {
	meta, task := benchMeta(), benchTask()
	e := codec.Get()
	defer codec.Put(e)
	encodeMeta(e, &meta)
	encodeTask(e, &task)
	metaBin := append([]byte(nil), e.Span(0)...)
	taskBin := append([]byte(nil), e.Span(1)...)
	metaJSON, err := json.Marshal(&meta)
	if err != nil {
		b.Fatal(err)
	}
	taskJSON, err := json.Marshal(&task)
	if err != nil {
		b.Fatal(err)
	}
	var ts taskState
	b.SetBytes(int64(len(metaBin) + len(taskBin)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeInstanceMeta(metaBin); err != nil {
			b.Fatal(err)
		}
		if err := decodeTaskRecord(taskBin, &ts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()

	const reps = 20000
	start := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := DecodeInstanceMeta(metaBin); err != nil {
			b.Fatal(err)
		}
		if err := decodeTaskRecord(taskBin, &ts); err != nil {
			b.Fatal(err)
		}
	}
	binNs := float64(time.Since(start).Nanoseconds()) / float64(reps)
	start = time.Now()
	for i := 0; i < reps; i++ {
		var m InstanceMeta
		var ts taskState
		if err := json.Unmarshal(metaJSON, &m); err != nil {
			b.Fatal(err)
		}
		if err := json.Unmarshal(taskJSON, &ts); err != nil {
			b.Fatal(err)
		}
	}
	jsonNs := float64(time.Since(start).Nanoseconds()) / float64(reps)
	b.ReportMetric(jsonNs/binNs, "x-vs-json")
}
