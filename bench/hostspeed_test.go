package main

import (
	"math"
	"testing"
)

func TestHostSpeed(t *testing.T) {
	if got := hostSpeed(probeNominal, probeNominal); got != 1 {
		t.Errorf("probe at nominal: speed %v, want 1", got)
	}
	if got := hostSpeed(probeNominal, 3*probeNominal); got != 0.5 {
		t.Errorf("probe at twice nominal on average: speed %v, want 0.5", got)
	}
	if got := hostSpeed(0, 0); got != 1 {
		t.Errorf("no readings: speed %v, want 1", got)
	}
}

// TestEndToEndScalesTimes: a repetition timed on a host at half speed reads
// the same, scaled, as one timed at full speed.
func TestEndToEndScalesTimes(t *testing.T) {
	full := repResult{speed: 1, setupS: 0.1, measuredS: 1, activities: 1000, latMS: []float64{1, 2, 3}}
	half := repResult{speed: 0.5, setupS: 0.2, measuredS: 2, activities: 1000, latMS: []float64{2, 4, 6}}
	a, b := endToEnd([]repResult{full}), endToEnd([]repResult{half})
	for _, name := range []string{"setup_s", "activities_per_s", "start_to_done_p50_ms", "start_to_done_p95_ms"} {
		if math.Abs(a[name].Value-b[name].Value) > 1e-9 {
			t.Errorf("%s: %v at full speed, %v at half", name, a[name].Value, b[name].Value)
		}
	}
	if got := a["activities_per_s"].Value; got != 1000 {
		t.Errorf("activities_per_s = %v, want 1000", got)
	}
	pooled := endToEnd([]repResult{full, half})
	if got := pooled["start_to_done_p50_ms"].Value; got != 2 {
		t.Errorf("p50 over both repetitions' scaled samples = %v, want 2", got)
	}
}
