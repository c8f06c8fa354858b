package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestNilSafety: every update method is a no-op on nil receivers and a nil
// registry hands out nil handles, so instrumented code never branches on
// "metrics enabled".
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("c", "")
	if c != nil {
		t.Fatalf("nil registry returned a counter")
	}
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatalf("nil counter value = %d", c.Value())
	}
	g := r.Gauge("g", "")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 0 {
		t.Fatalf("nil gauge value = %d", g.Value())
	}
	h := r.Histogram("h", "", nil)
	h.Observe(0.5)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("nil histogram observed something")
	}
	r.GaugeFunc("f", "", func() float64 { return 1 })
	v := r.CounterVec("v", "", "kind")
	v.With("x").Inc()
	if err := r.WriteProm(&strings.Builder{}); err != nil {
		t.Fatalf("nil registry WriteProm: %v", err)
	}
	var ring *Ring
	ring.Publish("x")
	if ring.Last() != 0 {
		t.Fatalf("nil ring last seq = %d", ring.Last())
	}
}

// TestRegistryConcurrent hammers every metric type from many goroutines
// while a scraper renders exposition; run under -race this is the
// registry's data-race test. Final values must be exact: updates are
// atomic, never lossy.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_counter", "c")
	g := r.Gauge("test_gauge", "g")
	h := r.Histogram("test_hist", "h", []float64{1, 10})
	vec := r.CounterVec("test_vec", "v", "kind")

	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Half the workers resolve their labeled handle up front (the
			// hot-path idiom); half go through With every time.
			pre := vec.With("pre")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 20))
				if w%2 == 0 {
					pre.Inc()
				} else {
					vec.With("late").Inc()
				}
			}
		}(w)
	}
	// Concurrent scrapes must see internally consistent state (no panics,
	// no races); values are free to be mid-flight.
	var scr sync.WaitGroup
	scr.Add(1)
	go func() {
		defer scr.Done()
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if err := r.WriteProm(&sb); err != nil {
				t.Errorf("WriteProm: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	scr.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != workers*perWorker {
		t.Errorf("gauge = %d, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if got := vec.With("pre").Value() + vec.With("late").Value(); got != workers*perWorker {
		t.Errorf("vec total = %d, want %d", got, workers*perWorker)
	}
}

// TestPromExposition pins the text format: sorted families, HELP/TYPE
// headers, label quoting, cumulative le buckets with +Inf, _sum/_count.
func TestPromExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("bravo_total", "a counter").Add(3)
	r.Gauge("delta", "a gauge").Set(-2)
	r.GaugeFunc("echo", "a computed gauge", func() float64 { return 1.5 })
	v := r.CounterVec("alpha_total", "labeled", "kind")
	v.With("x\"y").Inc()
	v.With("plain").Add(2)
	h := r.Histogram("hist_seconds", "latencies", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP alpha_total labeled
# TYPE alpha_total counter
alpha_total{kind="plain"} 2
alpha_total{kind="x\"y"} 1
# HELP bravo_total a counter
# TYPE bravo_total counter
bravo_total 3
# HELP delta a gauge
# TYPE delta gauge
delta -2
# HELP echo a computed gauge
# TYPE echo gauge
echo 1.5
# HELP hist_seconds latencies
# TYPE hist_seconds histogram
hist_seconds_bucket{le="0.1"} 1
hist_seconds_bucket{le="1"} 2
hist_seconds_bucket{le="+Inf"} 3
hist_seconds_sum 5.55
hist_seconds_count 3
`
	if sb.String() != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// TestRegistryReuse: registering the same name returns the same handle;
// a kind mismatch is a programming error and panics.
func TestRegistryReuse(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same", "x")
	b := r.Counter("same", "x")
	if a != b {
		t.Fatalf("re-registration returned a different counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("kind mismatch did not panic")
		}
	}()
	r.Gauge("same", "x")
}
