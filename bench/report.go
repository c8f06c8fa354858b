package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
)

// errIncorrect makes the command exit non-zero after it has printed its
// result: an instance returned a wrong output, or a population check failed.
var errIncorrect = errors.New("outputs were not correct")

// contractLine is the one JSON object the pipeline reads from the last line
// of standard output.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOne runs a single workload, prints its metrics by name with units, and
// ends with the contract line: end-to-end metrics untraced, per-layer
// metrics traced.
func runOne(w io.Writer, o runOpts) error {
	res, err := runWorkload(o)
	if err != nil {
		return err
	}
	printResult(w, res)
	line := contractLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.EndToEnd}
	if o.trace {
		line.Metrics = res.PerLayer
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", data)
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

func printResult(w io.Writer, res *runResult) {
	env := res.Env
	fmt.Fprintf(w, "workload %s  seed %d  reps %d  wall %.1fs  traced %v\n",
		res.Workload, env.Seed, env.Reps, env.WallS, res.Traced)
	fmt.Fprintf(w, "  commit %s  nproc %d  GOMAXPROCS %d  pinned to cpu %d  %s  kernel %s  store %s (%s)\n",
		env.Commit, env.NumCPU, env.GOMAXPROCS, env.PinnedCPU, env.GoVersion, env.Kernel, env.StoreDir, env.StoreFS)
	fmt.Fprintf(w, "  sizes %v\n", env.Sizes)
	fmt.Fprintf(w, "  ops_attempted %d  ops_failed %d  correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
	var speeds, timed []float64
	for _, r := range res.Reps {
		if r.Kind == "plain" {
			speeds = append(speeds, r.HostSpeed)
			timed = append(timed, r.ActivitiesPerS)
		}
	}
	fmt.Fprintf(w, "  host speed %.3f, %.1f activities/s as timed (medians over repetitions); times below are at reference speed\n",
		median(speeds), median(timed))
	for _, d := range endToEndDefs {
		m := res.EndToEnd[d.name]
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", d.name, m.Value, m.Unit)
	}
	if res.Traced {
		fmt.Fprintln(w, "  per-layer:")
		for _, d := range perLayerDefs {
			m := res.PerLayer[d.name]
			fmt.Fprintf(w, "  %-42s %14.4f %s\n", d.name, m.Value, m.Unit)
		}
		names := make([]string, 0, len(res.SelfTime))
		for n := range res.SelfTime {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintln(w, "  self time by span, last traced repetition:")
		for _, n := range names {
			fmt.Fprintf(w, "  %-42s %14.3f ms\n", n, res.SelfTime[n])
		}
		if res.SpanFile != "" {
			fmt.Fprintf(w, "  spans written to %s\n", res.SpanFile)
		}
	}
}
