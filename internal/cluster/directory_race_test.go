package cluster

import (
	"fmt"
	"sync"
	"testing"
)

// TestDirectoryChurnRace hammers every Directory entry point from
// concurrent goroutines — membership churn (Join/Leave/SetUp), slot
// traffic, and iterating readers — and then checks the invariants the
// scheduler depends on: join order matches the registry exactly and
// running counts stay within [0, CPUs]. Run with -race.
func TestDirectoryChurnRace(t *testing.T) {
	d := NewDirectory()
	const nodes = 8
	const rounds = 400
	name := func(i int) string { return fmt.Sprintf("n-%02d", i) }
	for i := 0; i < nodes; i++ {
		d.Join(NodeView{Name: name(i), Up: true, CPUs: 2, Speed: 1})
	}

	var wg sync.WaitGroup
	// Churners: leave and rejoin their node repeatedly.
	for i := 0; i < nodes/2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				d.Leave(name(i))
				d.Join(NodeView{Name: name(i), Up: true, CPUs: 2, Speed: 1})
				d.SetUp(name(i), r%2 == 0)
			}
		}(i)
	}
	// Slot traffic on the stable half of the fleet.
	for i := nodes / 2; i < nodes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := d.Reserve(name(i)); err == nil {
					d.Release(name(i))
				}
			}
		}(i)
	}
	// Readers: iterate and spot-check while everything above runs.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, v := range d.Nodes() {
					if v.Running < 0 || v.Running > v.CPUs {
						t.Errorf("node %s Running=%d CPUs=%d", v.Name, v.Running, v.CPUs)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	// Post-storm invariants: the order slice and the registry agree
	// exactly (no duplicate or dangling order entries).
	views := d.Nodes()
	if len(views) != len(d.nodes) {
		t.Fatalf("Nodes() returned %d views, the registry holds %d", len(views), len(d.nodes))
	}
	seen := make(map[string]bool, len(views))
	for _, v := range views {
		if seen[v.Name] {
			t.Fatalf("duplicate node %s in join order", v.Name)
		}
		seen[v.Name] = true
		got, ok := view(d, v.Name)
		if !ok {
			t.Fatalf("order entry %s missing from registry", v.Name)
		}
		if got.Running < 0 || got.Running > got.CPUs {
			t.Fatalf("node %s Running=%d CPUs=%d", v.Name, got.Running, got.CPUs)
		}
	}
	// The stable half never left, so every one of those must be present.
	for i := nodes / 2; i < nodes; i++ {
		if _, ok := view(d, name(i)); !ok {
			t.Fatalf("stable node %s lost", name(i))
		}
	}
}
