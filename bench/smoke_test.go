package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkSpec is BENCHMARK.json as far as this package defines it.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkJSON(path string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err = dec.Decode(&spec)
	return spec, err
}

// TestSmoke runs every workload, traced and untraced with every probe, at
// smokeSizes. It is what ties the benchmark to tier-1: a change to the
// core, remote, store, sched, codec, wal or fed APIs the benchmark drives
// breaks here, not at the next benchmark run.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	o := runOpts{seed: 7, seconds: 1, workDir: filepath.Join(dir, "work"), outDir: filepath.Join(dir, "out")}
	if err := runSmoke(&out, o); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	for _, w := range workloads {
		for _, name := range []string{w.name + "-seed7-traced.json", w.name + "-seed7.spans.jsonl"} {
			if info, err := os.Stat(filepath.Join(dir, "out", name)); err != nil || info.Size() == 0 {
				t.Errorf("result file %s: %v", name, err)
			}
		}
	}
	// Every store directory is gone once the runs are over.
	left, err := os.ReadDir(filepath.Join(dir, "work"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("work directory still holds %d entries", len(left))
	}
}

// TestDefinitionsAgree keeps the three places a metric or workload is named
// in step: the definitions here and BENCHMARK.json at the repository root.
func TestDefinitionsAgree(t *testing.T) {
	spec, err := readBenchmarkJSON(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds = %v, the --seconds default is %v", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("BENCHMARK.json paths = %v, want [bench]", spec.Paths)
	}
	if got, want := len(spec.Workloads), len(workloads); got != want {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", got, want)
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q / %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json names %d %s metrics, the benchmark has %d", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || (bounded && (g.Bound == nil || *g.Bound != d.bound)) {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, g, d)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s metric %s has a bound", kind, g.Name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndDefs, true)
	check("per_layer", spec.PerLayer, perLayerDefs, false)
}
