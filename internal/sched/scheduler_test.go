package sched

import (
	"testing"
	"time"

	"bioopera/internal/cluster"
)

func TestPolicyByName(t *testing.T) {
	for name, want := range map[string]string{
		"":             "least-loaded",
		"least-loaded": "least-loaded",
		"first-fit":    "first-fit",
		"fastest":      "fastest",
		"round-robin":  "round-robin",
	} {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatalf("PolicyByName(%q): %v", name, err)
		}
		if p.Name() != want {
			t.Fatalf("PolicyByName(%q) = %s, want %s", name, p.Name(), want)
		}
	}
	if _, err := PolicyByName("bogus"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestFairShareInterleaving(t *testing.T) {
	// Tenant a has 3× tenant b's quota. With equal unit charges, the merged
	// dispatch order should give a roughly three jobs for each of b's, and
	// b must never starve outright.
	var q Queue
	q.SetQuota("a", 3)
	q.SetQuota("b", 1)
	for i := 0; i < 12; i++ {
		q.Push(Job{ID: "a" + string(rune('0'+i)), Tenant: "a"})
		q.Push(Job{ID: "b" + string(rune('0'+i)), Tenant: "b"})
	}
	counts := map[string]int{}
	var firstB int = -1
	for i := 0; i < 8; i++ {
		j, ok := pop(&q)
		if !ok {
			t.Fatal("queue drained early")
		}
		counts[j.Tenant]++
		if j.Tenant == "b" && firstB < 0 {
			firstB = i
		}
		// Unit charge per dispatch: usage/weight drives the interleave.
		q.Charge(j.Tenant, 1)
	}
	if counts["a"] != 6 || counts["b"] != 2 {
		t.Fatalf("dispatches in 8 pops: a=%d b=%d, want 3:1", counts["a"], counts["b"])
	}
	if firstB < 0 || firstB > 4 {
		t.Fatalf("tenant b starved: first dispatch at pop %d", firstB)
	}
}

func TestFairShareReducesToFIFOWithoutCharges(t *testing.T) {
	// Without usage charges (or with a single tenant) the fair-share queue
	// must reproduce the legacy (priority desc, FIFO) order exactly — the
	// property that keeps pre-tenancy simulation traces bit-identical.
	var q Queue
	q.SetQuota("a", 3)
	q.Push(Job{ID: "1", Tenant: "a"})
	q.Push(Job{ID: "2", Tenant: "b"})
	q.Push(Job{ID: "3", Tenant: "a"})
	q.Push(Job{ID: "4", Priority: 1, Tenant: "b"})
	want := []string{"4", "1", "2", "3"}
	for _, w := range want {
		j, ok := pop(&q)
		if !ok || j.ID != w {
			t.Fatalf("got %q, want %q", j.ID, w)
		}
	}
}

func TestSchedulerChargesEstimatedCost(t *testing.T) {
	s := New(Config{Quotas: map[string]float64{"a": 1}})
	nodes := []cluster.NodeView{{Name: "n", Up: true, CPUs: 1, Speed: 1}}
	s.Enqueue(Job{ID: "j1", Tenant: "a", Key: "align", Cost: 10 * time.Second})
	if _, _, ok := s.Next(nodes, nil); !ok {
		t.Fatal("dispatch failed")
	}
	if got := s.Usage("a"); got != 10 {
		t.Fatalf("usage = %v, want 10 (model seconds)", got)
	}
	// After observing that the model underestimates 2×, the charge doubles.
	s.Observe("align", 10*time.Second, 20*time.Second)
	s.Enqueue(Job{ID: "j2", Tenant: "a", Key: "align", Cost: 10 * time.Second})
	if _, _, ok := s.Next(nodes, nil); !ok {
		t.Fatal("dispatch failed")
	}
	if got := s.Usage("a"); got <= 15 {
		t.Fatalf("usage = %v, want calibrated charge > 15", got)
	}
}

func TestPredictorCalibration(t *testing.T) {
	p := NewPredictor(0.5)
	if got := p.Estimate("k", 10*time.Second); got != 10*time.Second {
		t.Fatalf("unseen key estimate = %v, want the model", got)
	}
	// Actuals run 2× the model; the EWMA ratio converges toward 2.
	for i := 0; i < 10; i++ {
		p.Observe("k", 10*time.Second, 20*time.Second)
	}
	got := p.Estimate("k", 10*time.Second)
	if got < 19*time.Second || got > 21*time.Second {
		t.Fatalf("calibrated estimate = %v, want ≈ 20s", got)
	}
	// Ignores nonsense observations.
	p.Observe("", 10*time.Second, 20*time.Second)
	p.Observe("k2", 0, 20*time.Second)
	p.Observe("k3", 10*time.Second, 0)
	if _, ok := p.ratio["k"]; !ok || len(p.ratio) != 1 {
		t.Fatalf("learned ratios = %v, want only k", p.ratio)
	}
}

func TestUnplaceable(t *testing.T) {
	nodes := []cluster.NodeView{
		{Name: "up", OS: "linux", Up: true, CPUs: 1, Speed: 1},
		{Name: "down", OS: "linux", Up: false, CPUs: 1, Speed: 1},
		{Name: "full", OS: "linux", Up: true, CPUs: 1, Speed: 1, Running: 1},
	}
	cases := []struct {
		name string
		job  Job
		want bool
	}{
		{"no affinity", Job{ID: "j"}, false},
		{"pinned to down node", Job{ID: "j", Nodes: []string{"down"}}, true},
		{"pinned to unknown node", Job{ID: "j", Nodes: []string{"ghost"}}, true},
		{"pinned to down and unknown", Job{ID: "j", Nodes: []string{"down", "ghost"}}, true},
		{"one pinned node up", Job{ID: "j", Nodes: []string{"down", "up"}}, false},
		// A full-but-up node frees slots eventually: keep waiting.
		{"pinned to full node", Job{ID: "j", Nodes: []string{"full"}}, false},
		// OS mismatch is not node death: the job waits for matching capacity.
		{"os mismatch only", Job{ID: "j", OS: "solaris"}, false},
	}
	for _, c := range cases {
		if got := c.job.Unplaceable(nodes); got != c.want {
			t.Errorf("%s: Unplaceable = %v, want %v", c.name, got, c.want)
		}
	}

	s := New(Config{})
	s.Enqueue(Job{ID: "dead", Nodes: []string{"ghost"}})
	s.Enqueue(Job{ID: "ok"})
	dead := s.TakeUnplaceable(nodes)
	if len(dead) != 1 || dead[0].ID != "dead" {
		t.Fatalf("TakeUnplaceable = %v", dead)
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d after reap", s.Len())
	}
}

func TestSchedulerReset(t *testing.T) {
	s := New(Config{Quotas: map[string]float64{"a": 2}})
	nodes := []cluster.NodeView{{Name: "n", Up: true, CPUs: 4, Speed: 1}}
	s.Enqueue(Job{ID: "a1", Tenant: "a", Key: "k", Cost: time.Second})
	s.Observe("k", time.Second, 2*time.Second)
	if _, _, ok := s.Next(nodes, nil); !ok {
		t.Fatal("dispatch failed")
	}
	s.Enqueue(Job{ID: "a2", Tenant: "a"})
	s.Reset()
	if s.Len() != 0 {
		t.Fatalf("len = %d after reset", s.Len())
	}
	if s.Usage("a") != 0 {
		t.Fatalf("usage = %v after reset, want 0", s.Usage("a"))
	}
	// Quotas and learned calibration survive the reset.
	if r, ok := s.pred.ratio["k"]; !ok || r != 2 {
		t.Fatalf("ratio = %v,%v after reset, want 2", r, ok)
	}
	s.Enqueue(Job{ID: "b1", Tenant: "b"})
	s.Enqueue(Job{ID: "a3", Tenant: "a"})
	s.queue.Charge("a", 1)
	s.queue.Charge("b", 1)
	// With quota a=2 vs b=1 and equal usage, a dispatches first.
	j, _, ok := s.Next(nodes, nil)
	if !ok || j.ID != "a3" {
		t.Fatalf("post-reset dispatch = %+v, want a3 (quota survived)", j)
	}
}
