package allvsall

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"bioopera/internal/cluster"
	"bioopera/internal/core"
	"bioopera/internal/darwin"
	"bioopera/internal/ocr"
	"bioopera/internal/sim"
	"bioopera/internal/store"
)

// TestChurnNeverChangesResults is the repository's strongest dependability
// property test: under randomized node crashes, restores, forced and
// graceful suspensions, external load spikes and server crashes — all
// drawn from a seeded RNG — the all-vs-all must always terminate and must
// always produce exactly the serial reference results.
func TestChurnNeverChangesResults(t *testing.T) {
	ds := darwin.Generate(darwin.GenOptions{N: 14, MeanLen: 45, Seed: 33, FamilyFraction: 0.5, FamilyPAM: 35})
	baseCfg := &Config{Dataset: ds}
	want := darwin.AllVsAllSerial(ds, baseCfg.Fixed, darwin.RefineOptions{})
	if len(want) == 0 {
		t.Fatal("reference run found no matches; test would be vacuous")
	}

	for trial := 0; trial < 12; trial++ {
		trial := trial
		t.Run("", func(t *testing.T) {
			chaos := rand.New(rand.NewSource(int64(1000 + trial)))
			cfg := &Config{Dataset: ds}
			rt := runtime(t, cfg, cluster.IkSun())
			id, err := rt.Engine.StartProcess(TemplateName, cfg.Inputs(2+chaos.Intn(7)), core.StartOptions{})
			if err != nil {
				t.Fatal(err)
			}

			// Random chaos schedule over the first (virtual) minute.
			names := make([]string, 0, 5)
			for _, v := range rt.Cluster.Nodes() {
				names = append(names, v.Name)
			}
			events := 3 + chaos.Intn(6)
			for i := 0; i < events; i++ {
				at := sim.Time(time.Duration(chaos.Intn(60_000)) * time.Millisecond)
				switch chaos.Intn(5) {
				case 0: // crash + later restore
					n := names[chaos.Intn(len(names))]
					down := time.Duration(1+chaos.Intn(20)) * time.Second
					rt.Sim.At(at, func(sim.Time) { rt.Cluster.CrashNode(n) })
					rt.Sim.At(at.Add(down), func(sim.Time) { rt.Cluster.RestoreNode(n) })
				case 1: // load spike
					n := names[chaos.Intn(len(names))]
					lvl := 0.5 + 0.5*chaos.Float64()
					rt.Sim.At(at, func(sim.Time) { rt.Cluster.SetExternalLoad(n, lvl) })
					rt.Sim.At(at.Add(15*time.Second), func(sim.Time) { rt.Cluster.SetExternalLoad(n, 0) })
				case 2: // graceful suspend + resume
					rt.Sim.At(at, func(sim.Time) { rt.Engine.Suspend(id, true) })
					rt.Sim.At(at.Add(5*time.Second), func(sim.Time) { rt.Engine.Resume(id) })
				case 3: // forced suspend + resume
					rt.Sim.At(at, func(sim.Time) { rt.Engine.Suspend(id, false) })
					rt.Sim.At(at.Add(3*time.Second), func(sim.Time) { rt.Engine.Resume(id) })
				case 4: // server crash + recovery
					rt.Sim.At(at, func(sim.Time) {
						rt.Engine.Crash()
						if _, err := rt.Engine.Recover(); err != nil {
							t.Errorf("recover: %v", err)
						}
					})
				}
			}

			rt.Sim.SetStepLimit(5_000_000) // runaway backstop
			rt.Run()
			var master ocr.Value
			if in, ok := rt.Engine.Instance(id); ok {
				if in.Status != core.InstanceDone {
					t.Fatalf("trial %d: instance %s (%s)", trial, in.Status, in.FailureReason)
				}
				master = in.Outputs["master_file"]
			} else {
				// A server crash after completion drops the
				// in-memory instance; the durable record lives in
				// the history space.
				master = historyOutput(t, rt.Store, id, "master_file")
			}
			got, err := DecodeMatches(master)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d: %d matches, want %d", trial, len(got), len(want))
			}
			for i := range got {
				if got[i].A != want[i].A || got[i].B != want[i].B ||
					math.Abs(got[i].Score-want[i].Score) > 1e-9 {
					t.Fatalf("trial %d: match %d = %+v, want %+v", trial, i, got[i], want[i])
				}
			}
		})
	}
}

// historyOutput reads one output of an archived instance from the history
// space.
func historyOutput(t *testing.T, s store.Store, id, name string) ocr.Value {
	t.Helper()
	raw, ok, err := s.Get(store.History, "inst/"+id)
	if err != nil || !ok {
		t.Fatalf("instance %s absent from history too (%v)", id, err)
	}
	rec, err := core.DecodeInstanceMeta(raw)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != core.InstanceDone {
		t.Fatalf("archived instance %s status = %v", id, rec.Status)
	}
	return rec.Outputs[name]
}
