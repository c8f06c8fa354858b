// Dependable computing demonstrated: an all-vs-all on the simulated
// ik-linux cluster survives a what-if-analyzed maintenance outage, a
// full-cluster failure, and a BioOpera server crash — and still produces
// exactly the same matches as an undisturbed run.
//
//	go run ./examples/outages
package main

import (
	_ "embed"
	"fmt"
	"log"
	"os"
	"time"

	"bioopera"
	"bioopera/internal/darwin"
	"bioopera/internal/experiments"
)

// outages is the disturbed run's scenario.
//
//go:embed outages.scn
var outages string

func main() {
	ds := bioopera.GenerateDataset(bioopera.GenOptions{
		N: 150, MeanLen: 150, Seed: 9, FamilyFraction: 0.5,
	})

	// Reference run: no disturbances.
	reference := run(ds, "")
	fmt.Printf("reference run: %d matches, WALL %v, %d failures\n\n",
		len(reference.matches), reference.wall.Round(time.Second), reference.failures)

	// Disturbed run: outage + crash + server restart.
	disturbed := run(ds, outages)
	fmt.Printf("\ndisturbed run: %d matches, WALL %v, %d failures survived\n",
		len(disturbed.matches), disturbed.wall.Round(time.Second), disturbed.failures)

	// The dependability claim: identical results.
	if len(reference.matches) != len(disturbed.matches) {
		log.Fatalf("DIVERGED: %d vs %d matches", len(reference.matches), len(disturbed.matches))
	}
	for i := range reference.matches {
		a, b := reference.matches[i], disturbed.matches[i]
		if a.A != b.A || a.B != b.B || a.Score != b.Score {
			log.Fatalf("DIVERGED at match %d: %+v vs %+v", i, a, b)
		}
	}
	fmt.Println("results are identical — no work was lost, no result corrupted")
}

type outcome struct {
	matches  []bioopera.Match
	wall     time.Duration
	failures int
}

// run runs the all-vs-all on the simulated cluster under a scenario
// (internal/experiments/scenario.go); the reference run's is empty.
func run(ds *bioopera.Dataset, script string) outcome {
	// Alignments really run (fast); the *virtual* cost model is inflated
	// so the simulated timeline is long enough for the disturbances.
	cost := darwin.DefaultCostModel()
	cost.CellTime = 10 * time.Microsecond
	cfg := &bioopera.AllVsAllConfig{Dataset: ds, Cost: cost}
	lib := bioopera.NewLibrary()
	must(bioopera.RegisterAllVsAll(lib, cfg))
	rt, err := bioopera.NewSimRuntime(bioopera.SimConfig{
		Seed: 1, Spec: bioopera.IkLinux(), Library: lib,
	})
	must(err)
	must(rt.Engine.RegisterTemplateSource(bioopera.AllVsAllSource))
	in, _, err := experiments.RunScenario(rt, "outages.scn", script, os.Stdout, func() (string, error) {
		return rt.Engine.StartProcess(bioopera.AllVsAllTemplate, cfg.Inputs(12), bioopera.StartOptions{})
	})
	must(err)
	ms, err := bioopera.DecodeMatches(in.Outputs["master_file"])
	must(err)
	return outcome{matches: ms, wall: in.WALL(rt.Sim.Now()), failures: in.Failures}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
