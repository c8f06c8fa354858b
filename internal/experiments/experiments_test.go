package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// Scaled-down options keep the suite fast while preserving every shape the
// full-size experiments demonstrate.

func TestFig4Shape(t *testing.T) {
	res, err := Fig4(Fig4Options{
		N:       250,
		MeanLen: 300,
		TEUs:    []int{1, 2, 5, 10, 20, 50, 125, 250},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 8 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// CPU rises monotonically with granularity (per-TEU init overhead).
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].CPU <= res.Points[i-1].CPU {
			t.Fatalf("CPU not increasing at %d TEUs: %v then %v",
				res.Points[i].TEUs, res.Points[i-1].CPU, res.Points[i].CPU)
		}
	}
	// WALL is U-shaped: the optimum is strictly inside the sweep.
	first := res.Points[0]
	last := res.Points[len(res.Points)-1]
	var min Fig4Point
	min = first
	for _, p := range res.Points {
		if p.WALL < min.WALL {
			min = p
		}
	}
	if min.TEUs == first.TEUs || min.TEUs == last.TEUs {
		t.Fatalf("WALL optimum at the boundary (%d TEUs)", min.TEUs)
	}
	// The paper's counter-intuitive point: the optimum exceeds the
	// number of CPUs.
	if res.OptimalTEUs <= res.CPUs {
		t.Fatalf("optimal %d TEUs ≤ %d CPUs; straggler effect missing", res.OptimalTEUs, res.CPUs)
	}
	// Rendering works and mentions the optimum.
	var sb strings.Builder
	res.Fprint(&sb)
	if !strings.Contains(sb.String(), "optimal granularity") {
		t.Fatal("Fprint missing summary")
	}
}

func TestFig4Deterministic(t *testing.T) {
	opts := Fig4Options{N: 60, MeanLen: 80, TEUs: []int{1, 5, 20}}
	a, err := Fig4(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig4(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("non-deterministic at %d: %+v vs %+v", i, a.Points[i], b.Points[i])
		}
	}
}

// TestSharedLifecycleSurvives runs Fig. 5 at full size, long enough for all
// ten of the paper's events: each fires, the run survives failures, and the
// engine's invariants hold after every event (the scenario's Check).
func TestSharedLifecycleSurvives(t *testing.T) {
	res, err := SharedLifecycle(LifecycleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 10 {
		t.Fatalf("%d events fired, want the paper's 10: %v", len(res.Events), res.Events)
	}
	for i, ev := range res.Events {
		if !strings.HasPrefix(ev.Label, fmt.Sprintf("%d: ", i+1)) {
			t.Errorf("event %d is %q", i+1, ev.Label)
		}
	}
	if res.Row.Failures == 0 {
		t.Fatal("no failure survived")
	}
	if res.Row.MaxCPUs <= 0 || res.Row.MaxCPUs > 40 {
		t.Fatalf("peak CPUs = %d", res.Row.MaxCPUs)
	}
	if res.Row.CPU <= res.Row.WALL {
		t.Fatalf("no parallelism: CPU %v vs WALL %v", res.Row.CPU, res.Row.WALL)
	}
	if len(res.Samples) == 0 {
		t.Fatal("no lifecycle samples")
	}
	// Utilization never exceeds availability.
	for _, s := range res.Samples {
		if s.Busy > s.Available && s.Available > 0 {
			t.Fatalf("busy %d > available %d", s.Busy, s.Available)
		}
		if s.Effective > float64(s.Busy)+1e-9 {
			t.Fatalf("effective %v > busy %d", s.Effective, s.Busy)
		}
	}
}

// TestNonSharedLifecycleKeepsExplicitTEUs: only a zero TEUs means the
// non-shared run's 480; an explicit 560 is kept.
func TestNonSharedLifecycleKeepsExplicitTEUs(t *testing.T) {
	activities := func(teus int) int {
		res, err := NonSharedLifecycle(LifecycleOptions{N: 600, MeanLen: 100, TEUs: teus})
		if err != nil {
			t.Fatal(err)
		}
		return res.Row.Activities
	}
	// Each TEU runs two activities.
	if def, explicit := activities(0), activities(560); explicit-def != 2*(560-480) {
		t.Fatalf("%d activities with TEUs 560, %d by default: want 160 more", explicit, def)
	}
}

func TestNonSharedLifecycleUpgrade(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-week lifecycle simulation")
	}
	// Big enough to still be running at the day-25 upgrade.
	opts := LifecycleOptions{N: 60000, MeanLen: 320, TEUs: 320, SampleEvery: 2 * time.Hour}
	res, err := NonSharedLifecycle(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Row.WALL < 25*24*time.Hour {
		t.Fatalf("run too short (%v) to exercise the upgrade", res.Row.WALL)
	}
	// Availability doubles after day 25 and BioOpera uses it: find
	// samples before/after.
	var before, after float64
	var nb, na int
	for _, s := range res.Samples {
		switch {
		case s.At.Days() > 20 && s.At.Days() < 24:
			before += s.Effective
			nb++
		case s.At.Days() > 26 && s.At.Days() < 30:
			after += s.Effective
			na++
		}
	}
	if nb == 0 || na == 0 {
		t.Fatal("missing samples around the upgrade")
	}
	if after/float64(na) < 1.5*before/float64(nb) {
		t.Fatalf("upgrade not exploited: %.1f before vs %.1f after", before/float64(nb), after/float64(na))
	}
	if res.Row.MaxCPUs != 16 {
		t.Fatalf("peak CPUs = %d, want 16 after upgrade", res.Row.MaxCPUs)
	}
}

func TestMonitoringClaim(t *testing.T) {
	res, err := Monitoring(MonitoringOptions{Horizon: 3 * 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The paper's claim: ≥90% discarded at ≤3% error.
	if res.OverallDiscard < 0.9 {
		t.Fatalf("discard = %v, want ≥ 0.9", res.OverallDiscard)
	}
	if res.OverallErr > 0.03 {
		t.Fatalf("error = %v, want ≤ 0.03", res.OverallErr)
	}
	var sb strings.Builder
	res.Fprint(&sb)
	if !strings.Contains(sb.String(), "discarded") {
		t.Fatal("Fprint missing")
	}
}

func TestMonitoringSweepTradeoff(t *testing.T) {
	rows, err := MonitoringSweep(MonitoringOptions{Horizon: 3 * 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 {
		t.Fatalf("sweep rows = %d", len(rows))
	}
	// Longer back-off → fewer samples (less overhead), more error.
	first, last := rows[0], rows[len(rows)-1]
	if last.Samples >= first.Samples {
		t.Fatalf("samples not decreasing with back-off: %d -> %d", first.Samples, last.Samples)
	}
	if last.MeanAbsErr <= first.MeanAbsErr {
		t.Fatalf("error not increasing with back-off: %v -> %v", first.MeanAbsErr, last.MeanAbsErr)
	}
}

func TestMigrationCrossover(t *testing.T) {
	res, err := Migration(MigrationOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	subNone := res.Cell("subset", "leave-in-place")
	subMig := res.Cell("subset", "kill-and-restart")
	fillNone := res.Cell("fill", "leave-in-place")
	fillMig := res.Cell("fill", "kill-and-restart")
	// Subset pattern: migration must help substantially.
	if float64(subMig.WALL) > 0.8*float64(subNone.WALL) {
		t.Fatalf("subset: migration %v vs none %v — no benefit", subMig.WALL, subNone.WALL)
	}
	if subMig.Migrated == 0 {
		t.Fatal("subset: nothing migrated")
	}
	// Fill pattern: naive migration must NOT help.
	if float64(fillMig.WALL) < 0.98*float64(fillNone.WALL) {
		t.Fatalf("fill: migration %v vs none %v — unexpectedly helped", fillMig.WALL, fillNone.WALL)
	}
	var sb strings.Builder
	res.Fprint(&sb)
	if !strings.Contains(sb.String(), "migration") {
		t.Fatal("Fprint missing")
	}
}

func TestCheckpointGranularity(t *testing.T) {
	res, err := Checkpoint(CheckpointOptions{
		N:          1200,
		MeanLen:    150,
		TEUs:       []int{4, 32, 128},
		CrashEvery: 90 * time.Second,
		Repair:     2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	coarse := res.Points[0]
	fine := res.Points[len(res.Points)-1]
	if coarse.Failures == 0 {
		t.Fatal("no failures injected at coarse granularity")
	}
	// The §3.3 claim: finer granularity loses less work.
	if fine.WastedCPU >= coarse.WastedCPU {
		t.Fatalf("wasted CPU not decreasing: coarse %v, fine %v", coarse.WastedCPU, fine.WastedCPU)
	}
	var sb strings.Builder
	res.Fprint(&sb)
	if !strings.Contains(sb.String(), "wasted") {
		t.Fatal("Fprint missing")
	}
}
