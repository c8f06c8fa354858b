package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runChild runs one workload in a fresh process of this same binary — every
// workload run starts from the same process state, whatever ran before it —
// copies the child's report to w, and returns the contract line it ended
// with.
func runChild(w io.Writer, o runOpts, workload string, trace bool) (contractLine, error) {
	var line contractLine
	exe, err := os.Executable()
	if err != nil {
		return line, err
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	args := []string{
		"--workload", workload, "--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'f', -1, 64), "--trace", traceArg,
		"--reps", strconv.Itoa(o.reps), "--workdir", o.workDir, "--out", o.outDir,
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	out := bytes.TrimRight(stdout.Bytes(), "\n")
	last := out
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		last = out[i+1:]
		w.Write(out[:i+1])
	}
	if err := json.Unmarshal(last, &line); err != nil {
		if runErr != nil {
			return line, fmt.Errorf("%s: %w", workload, runErr)
		}
		return line, fmt.Errorf("%s: no result line: %w", workload, err)
	}
	if runErr != nil {
		return line, fmt.Errorf("%s: %w", workload, runErr)
	}
	return line, nil
}

// summary is what `go run ./bench` ends with. The benchmark measures; it
// claims nothing, so claim is always null.
type summary struct {
	Seed      int64                        `json:"seed"`
	Seconds   float64                      `json:"seconds_per_run"`
	Workloads map[string]map[string]metric `json:"workloads"`
	Attempted int                          `json:"ops_attempted"`
	Failed    int                          `json:"ops_failed"`
	Correct   bool                         `json:"correct"`
	Claim     *string                      `json:"claim"`
}

// runAll is the one command: every workload untraced (the end-to-end
// metrics), then every workload traced on a third of the budget (the
// per-layer metrics and span files), each in its own process.
func runAll(w io.Writer, o runOpts) error {
	sum := summary{Seed: o.seed, Seconds: o.seconds, Workloads: make(map[string]map[string]metric), Correct: true}
	for _, wl := range workloads {
		line, err := runChild(w, o, wl.name, false)
		if err != nil {
			return err
		}
		sum.Workloads[wl.name] = line.Metrics
		sum.Attempted += line.Attempted
		sum.Failed += line.Failed
		sum.Correct = sum.Correct && line.Correct
		fmt.Fprintln(w)
	}
	traced := o
	traced.seconds = o.seconds / 3
	for _, wl := range workloads {
		line, err := runChild(w, traced, wl.name, true)
		if err != nil {
			return err
		}
		sum.Attempted += line.Attempted
		sum.Failed += line.Failed
		sum.Correct = sum.Correct && line.Correct
		fmt.Fprintln(w)
	}
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", data)
	if !sum.Correct {
		return errIncorrect
	}
	return nil
}

// runSelfcheck runs every workload's full shape twice, in fresh processes,
// and prints per end-to-end metric both values, their relative difference
// and the bound — the table in README.md. It fails when a difference
// exceeds its bound.
func runSelfcheck(w io.Writer, o runOpts) error {
	var discard bytes.Buffer
	fmt.Fprintln(w, "| workload | metric | run A | run B | difference | bound | |")
	fmt.Fprintln(w, "|---|---|---:|---:|---:|---:|---|")
	over := 0
	for _, wl := range workloads {
		a, err := runChild(&discard, o, wl.name, false)
		if err != nil {
			return err
		}
		b, err := runChild(&discard, o, wl.name, false)
		if err != nil {
			return err
		}
		if a.Failed+b.Failed > 0 {
			fmt.Fprintf(w, "| %s | ops_failed | %d | %d | | 0 | FAILED |\n", wl.name, a.Failed, b.Failed)
			over++
		}
		for _, d := range endToEndDefs {
			va, vb := a.Metrics[d.name].Value, b.Metrics[d.name].Value
			diff := 0.0
			if va != 0 {
				diff = (vb - va) / math.Abs(va)
			}
			verdict := "ok"
			if math.Abs(diff) > d.bound {
				verdict = "OVER"
				over++
			}
			fmt.Fprintf(w, "| %s | %s (%s) | %.4f | %.4f | %+.2f%% | %.0f%% | %s |\n",
				wl.name, d.name, d.unit, va, vb, 100*diff, 100*d.bound, verdict)
		}
	}
	if over > 0 {
		return fmt.Errorf("selfcheck: %d metric(s) differ by more than their bound between two runs of the same code", over)
	}
	return nil
}

// runSmoke runs every workload in-process at smokeSizes, one repetition of
// each kind with every probe, and checks that nothing
// failed and every declared metric was produced. `go test ./bench` runs it,
// so drift in the core/remote/store APIs breaks the tests instead of the
// next benchmark run.
func runSmoke(w io.Writer, o runOpts) error {
	o.sz = smokeSizes
	o.reps = 3 // plain, traced, and sim_fanout's observed kind
	o.trace = true
	for _, wl := range workloads {
		o.workload = wl.name
		res, err := runWorkload(o)
		if err != nil {
			return err
		}
		printResult(w, res)
		if !res.Correct || res.Failed > 0 || res.Attempted == 0 {
			return fmt.Errorf("smoke %s: attempted %d, failed %d, correct %v %v",
				wl.name, res.Attempted, res.Failed, res.Correct, res.Problems)
		}
		for _, d := range endToEndDefs {
			if m, ok := res.EndToEnd[d.name]; !ok || m.Value <= 0 {
				return fmt.Errorf("smoke %s: end-to-end metric %s is %v", wl.name, d.name, m.Value)
			}
		}
		for _, d := range perLayerDefs {
			if _, ok := res.PerLayer[d.name]; !ok {
				return fmt.Errorf("smoke %s: per-layer metric %s missing", wl.name, d.name)
			}
		}
	}
	return nil
}
