package sched

import (
	"fmt"
	"testing"
	"testing/quick"

	"bioopera/internal/cluster"
)

func views() []cluster.NodeView {
	return []cluster.NodeView{
		{Name: "a", OS: "linux", Up: true, CPUs: 2, Speed: 1.0, Running: 2, ExtLoad: 0},   // full
		{Name: "b", OS: "linux", Up: true, CPUs: 2, Speed: 1.0, Running: 1, ExtLoad: 0.5}, // 1 free, loaded
		{Name: "c", OS: "solaris", Up: true, CPUs: 4, Speed: 0.5, Running: 1, ExtLoad: 0}, // 3 free, slow
		{Name: "d", OS: "linux", Up: false, CPUs: 8, Speed: 2.0, Running: 0, ExtLoad: 0},  // down
	}
}

func TestFirstFit(t *testing.T) {
	node, ok := FirstFit{}.Pick(Job{ID: "j"}, views())
	if !ok || node != "b" {
		t.Fatalf("FirstFit = %q,%v (a is full, so b)", node, ok)
	}
}

func TestLeastLoaded(t *testing.T) {
	node, ok := LeastLoaded{}.Pick(Job{ID: "j"}, views())
	if !ok || node != "c" {
		t.Fatalf("LeastLoaded = %q,%v want c (3 free slots)", node, ok)
	}
}

func TestFastest(t *testing.T) {
	// b effective = 1.0×0.5 = 0.5; c = 0.5×1 = 0.5 → tie broken by name → b.
	node, ok := Fastest{}.Pick(Job{ID: "j"}, views())
	if !ok || node != "b" {
		t.Fatalf("Fastest = %q,%v want b", node, ok)
	}
}

func TestOSAffinity(t *testing.T) {
	node, ok := LeastLoaded{}.Pick(Job{ID: "j", OS: "solaris"}, views())
	if !ok || node != "c" {
		t.Fatalf("solaris job = %q,%v", node, ok)
	}
	_, ok = LeastLoaded{}.Pick(Job{ID: "j", OS: "irix"}, views())
	if ok {
		t.Fatal("job for missing OS placed")
	}
}

func TestNodeAffinity(t *testing.T) {
	node, ok := LeastLoaded{}.Pick(Job{ID: "j", Nodes: []string{"b"}}, views())
	if !ok || node != "b" {
		t.Fatalf("pinned job = %q,%v", node, ok)
	}
	_, ok = LeastLoaded{}.Pick(Job{ID: "j", Nodes: []string{"a", "d"}}, views())
	if ok {
		t.Fatal("job placed on full/down nodes")
	}
}

func TestDownNodesNeverPicked(t *testing.T) {
	policies := []Policy{FirstFit{}, LeastLoaded{}, Fastest{}, &RoundRobin{}}
	only := []cluster.NodeView{{Name: "d", Up: false, CPUs: 8, Speed: 2}}
	for _, p := range policies {
		if _, ok := p.Pick(Job{ID: "j"}, only); ok {
			t.Errorf("%s picked a down node", p.Name())
		}
	}
}

func TestRoundRobinCycles(t *testing.T) {
	vs := []cluster.NodeView{
		{Name: "a", Up: true, CPUs: 2, Speed: 1},
		{Name: "b", Up: true, CPUs: 2, Speed: 1},
		{Name: "c", Up: true, CPUs: 2, Speed: 1},
	}
	rr := &RoundRobin{}
	var picked []string
	for i := 0; i < 6; i++ {
		n, ok := rr.Pick(Job{}, vs)
		if !ok {
			t.Fatal("pick failed")
		}
		picked = append(picked, n)
	}
	want := []string{"a", "b", "c", "a", "b", "c"}
	for i := range want {
		if picked[i] != want[i] {
			t.Fatalf("round robin = %v", picked)
		}
	}
}

// pop takes the head job the way Next does, through PopWhere.
func pop(q *Queue) (Job, bool) {
	j, _, ok := q.PopWhere(func(*Job) (string, bool) { return "", true })
	return j, ok
}

// readyJobs lists the ready jobs in dispatch order; held jobs are left out.
func readyJobs(q *Queue) []Job {
	out := make([]Job, 0, q.size-q.held)
	q.scan(func(nd *node) bool {
		out = append(out, nd.job)
		return false
	})
	return out
}

func TestQueueOrdering(t *testing.T) {
	var q Queue
	q.Push(Job{ID: "low1", Priority: 0})
	q.Push(Job{ID: "hi", Priority: 5})
	q.Push(Job{ID: "low2", Priority: 0})
	q.Push(Job{ID: "mid", Priority: 2})
	var order []string
	for {
		j, ok := pop(&q)
		if !ok {
			break
		}
		order = append(order, j.ID)
	}
	want := []string{"hi", "mid", "low1", "low2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("queue order = %v, want %v", order, want)
		}
	}
}

func TestQueuePeekRemove(t *testing.T) {
	var q Queue
	if jobs := readyJobs(&q); len(jobs) != 0 {
		t.Fatalf("jobs on empty = %+v", jobs)
	}
	if _, ok := pop(&q); ok {
		t.Fatal("pop on empty")
	}
	q.Push(Job{ID: "x"})
	q.Push(Job{ID: "y"})
	if jobs := readyJobs(&q); len(jobs) != 2 || jobs[0].ID != "x" {
		t.Fatalf("jobs = %+v, want x first", jobs)
	}
	isX := func(id string) bool { return id == "x" }
	if ids := q.RemoveWhere("", isX); len(ids) != 1 || ids[0] != "x" {
		t.Fatalf("remove x = %v", ids)
	}
	if ids := q.RemoveWhere("", isX); len(ids) != 0 {
		t.Fatalf("double remove = %v", ids)
	}
	if q.Len() != 1 {
		t.Fatalf("len = %d", q.Len())
	}
	jobs := readyJobs(&q)
	if len(jobs) != 1 || jobs[0].ID != "y" {
		t.Fatalf("jobs = %v", jobs)
	}
}

func TestQueuePopWhere(t *testing.T) {
	var q Queue
	q.Push(Job{ID: "solaris-only", OS: "solaris"})
	q.Push(Job{ID: "any"})
	// Only linux capacity: the solaris job must be skipped, not block
	// the queue (head-of-line blocking avoidance).
	vs := []cluster.NodeView{{Name: "n", OS: "linux", Up: true, CPUs: 1, Speed: 1}}
	j, node, ok := q.PopWhere(func(j *Job) (string, bool) {
		return LeastLoaded{}.Pick(*j, vs)
	})
	if !ok || j.ID != "any" || node != "n" {
		t.Fatalf("PopWhere = %+v %q %v", j, node, ok)
	}
	if q.Len() != 1 {
		t.Fatalf("queue len = %d", q.Len())
	}
	// Nothing placeable now.
	if _, _, ok := q.PopWhere(func(j *Job) (string, bool) {
		return LeastLoaded{}.Pick(*j, vs)
	}); ok {
		t.Fatal("placed unplaceable job")
	}
}

func TestQueueFIFOWithinPriorityProperty(t *testing.T) {
	f := func(prios []uint8) bool {
		var q Queue
		for i, p := range prios {
			q.Push(Job{ID: fmt.Sprint(i), Priority: int(p % 4)})
		}
		lastSeq := map[int]int{}
		prevPrio := 1 << 30
		for {
			j, ok := pop(&q)
			if !ok {
				break
			}
			if j.Priority > prevPrio {
				return false // priority must be non-increasing
			}
			prevPrio = j.Priority
			var idx int
			fmt.Sscan(j.ID, &idx)
			if last, seen := lastSeq[j.Priority]; seen && idx < last {
				return false // FIFO within a priority
			}
			lastSeq[j.Priority] = idx
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMigrationPolicy(t *testing.T) {
	p := MigrationPolicy{LoadThreshold: 0.6, TargetMaxLoad: 0.2}
	nodes := []cluster.NodeView{
		{Name: "hot", Up: true, CPUs: 2, Speed: 1, Running: 2, ExtLoad: 0.9},
		{Name: "cool", Up: true, CPUs: 2, Speed: 1, Running: 0, ExtLoad: 0},
	}
	running := []Candidate{{Job: "j1", Node: "hot"}, {Job: "j2", Node: "hot"}}
	kills := p.Decide(running, nodes)
	if len(kills) != 2 {
		t.Fatalf("kills = %v, want both hot jobs", kills)
	}

	// No destination capacity → no migration (the "fill all machines"
	// pattern of §5.4).
	allHot := []cluster.NodeView{
		{Name: "hot", Up: true, CPUs: 2, Speed: 1, Running: 2, ExtLoad: 0.9},
		{Name: "hot2", Up: true, CPUs: 2, Speed: 1, Running: 0, ExtLoad: 0.9},
	}
	if kills := p.Decide(running, allHot); kills != nil {
		t.Fatalf("migrated with no good destination: %v", kills)
	}

	// Kills bounded by destination slots.
	oneSlot := []cluster.NodeView{
		{Name: "hot", Up: true, CPUs: 2, Speed: 1, Running: 2, ExtLoad: 0.9},
		{Name: "cool", Up: true, CPUs: 2, Speed: 1, Running: 1, ExtLoad: 0},
	}
	if kills := p.Decide(running, oneSlot); len(kills) != 1 {
		t.Fatalf("kills = %v, want exactly 1", kills)
	}

	// Cool nodes' jobs stay put.
	calm := []Candidate{{Job: "j3", Node: "cool"}}
	if kills := p.Decide(calm, nodes); len(kills) != 0 {
		t.Fatalf("migrated from a cool node: %v", kills)
	}
}
