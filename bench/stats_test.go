package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndPercentile(t *testing.T) {
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 95, 7},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0, 1},
		{[]float64{1, 2, 3, 4, 5}, 100, 5},
		{[]float64{1, 2, 3, 4, 5}, 25, 2},
		{[]float64{10, 20}, 95, 19.5},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4):
// the values below are that function's output for the same lists.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 12, 11, 15, 9}, 9.5, 13.5},
		{[]float64{5, 7}, 4.5, 7.5},
		{[]float64{4}, 4, 4},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestIQRShare(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := iqrShare(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
	if got := iqrShare([]float64{0, 0, 0}); got != 0 {
		t.Errorf("iqrShare of zeros = %v, want 0", got)
	}
}
