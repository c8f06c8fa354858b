package sched

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"bioopera/internal/cluster"
)

// countingPolicy counts Pick calls on their way to LeastLoaded.
type countingPolicy struct{ picks int }

func (*countingPolicy) Name() string { return "counting" }

func (p *countingPolicy) Pick(j Job, nodes []cluster.NodeView) (string, bool) {
	p.picks++
	return LeastLoaded{}.Pick(j, nodes)
}

func drainIDs(s *Scheduler, nodes []cluster.NodeView, admit func(Job) bool, max int) []string {
	var ids []string
	for len(ids) < max {
		j, _, ok := s.Next(nodes, admit)
		if !ok {
			break
		}
		ids = append(ids, j.ID)
	}
	return ids
}

// TestReleasePreservesPosition is the equivalence the engine relies on:
// holding a group and releasing it later dispatches in exactly the order
// that vetoing the group's jobs during the scan (the engine's previous
// skip-while-suspended behaviour) would have — across tenants with quotas
// and priorities, with fair-share charges accruing in between.
func TestReleasePreservesPosition(t *testing.T) {
	nodes := []cluster.NodeView{{Name: "n", Up: true, CPUs: 1 << 20, Speed: 1}}
	build := func() *Scheduler {
		s := New(Config{Quotas: map[string]float64{"t0": 3, "t1": 1}})
		for i := 0; i < 60; i++ {
			s.Enqueue(Job{
				ID:       fmt.Sprintf("j%02d", i),
				Group:    fmt.Sprintf("g%d", i%5),
				Tenant:   fmt.Sprintf("t%d", i%3),
				Priority: i % 4,
				Key:      "k",
				Cost:     time.Duration(1+i%7) * time.Second,
			})
		}
		return s
	}
	late := Job{ID: "late", Group: "g2", Tenant: "t1", Priority: 3, Key: "k", Cost: time.Second}

	ref := build()
	notG2 := func(j Job) bool { return j.Group != "g2" }
	want := drainIDs(ref, nodes, notG2, 20)
	ref.Enqueue(late)
	want = append(want, drainIDs(ref, nodes, notG2, 5)...)
	want = append(want, drainIDs(ref, nodes, nil, 100)...)

	s := build()
	s.Hold("g2")
	if !s.queue.groups["g2"].held || s.Held() != 12 || s.Len() != 60 || len(readyJobs(&s.queue)) != 48 {
		t.Fatalf("after Hold: held=%v %d jobs, len=%d, ready=%d; want true 12 60 48",
			s.queue.groups["g2"].held, s.Held(), s.Len(), len(readyJobs(&s.queue)))
	}
	got := drainIDs(s, nodes, nil, 20)
	s.Enqueue(late) // into a held group: straight to the held set
	if s.Held() != 13 {
		t.Fatalf("held = %d after enqueue into a held group, want 13", s.Held())
	}
	got = append(got, drainIDs(s, nodes, nil, 5)...)
	s.Release("g2")
	if s.queue.groups["g2"].held || s.Held() != 0 {
		t.Fatalf("after Release: held=%v %d jobs", s.queue.groups["g2"].held, s.Held())
	}
	got = append(got, drainIDs(s, nodes, nil, 100)...)

	if len(got) != 61 || !reflect.DeepEqual(got, want) {
		t.Fatalf("hold/release order diverged from veto-while-scanning:\n got %v\nwant %v", got, want)
	}
	for _, tenant := range []string{"t0", "t1", "t2"} {
		if s.Usage(tenant) != ref.Usage(tenant) {
			t.Fatalf("usage[%s] = %v, want %v", tenant, s.Usage(tenant), ref.Usage(tenant))
		}
	}
}

func TestHeldJobsCountButDoNotDispatch(t *testing.T) {
	nodes := []cluster.NodeView{{Name: "n", Up: true, CPUs: 4, Speed: 1}}
	s := New(Config{})
	s.Hold("a") // before the group has any job
	s.Enqueue(Job{ID: "a1", Group: "a", Tenant: "x", Priority: 2})
	s.Enqueue(Job{ID: "b1", Group: "b", Tenant: "x"})
	if s.Len() != 2 || s.Held() != 1 {
		t.Fatalf("len=%d held=%d, want 2 1", s.Len(), s.Held())
	}
	if d := s.DepthByTenant(); d["x"] != 2 {
		t.Fatalf("DepthByTenant = %v, want held jobs counted", d)
	}
	if d := s.DepthByPriority(); d[2] != 1 || d[0] != 1 {
		t.Fatalf("DepthByPriority = %v, want held jobs counted", d)
	}
	if got := drainIDs(s, nodes, nil, 10); !reflect.DeepEqual(got, []string{"b1"}) {
		t.Fatalf("dispatched %v with group a held, want [b1]", got)
	}
	s.Release("a")
	s.Release("a") // releasing a free group is a no-op
	if got := drainIDs(s, nodes, nil, 10); !reflect.DeepEqual(got, []string{"a1"}) {
		t.Fatalf("dispatched %v after release, want [a1]", got)
	}
}

func TestRemoveGroupAndRemoveWhere(t *testing.T) {
	s := New(Config{})
	for i := 0; i < 6; i++ {
		s.Enqueue(Job{ID: fmt.Sprintf("a%d", i), Group: "a", Priority: i % 2})
		s.Enqueue(Job{ID: fmt.Sprintf("b%d", i), Group: "b"})
	}
	s.Hold("b")
	s.Enqueue(Job{ID: "b6", Group: "b"})

	odd := func(id string) bool { return (id[1]-'0')%2 == 1 }
	if got := s.RemoveWhere("b", odd); !reflect.DeepEqual(got, []string{"b1", "b3", "b5"}) {
		t.Fatalf("RemoveWhere(held b, odd) = %v", got)
	}
	if !s.queue.groups["b"].held || s.Held() != 4 || s.Len() != 10 {
		t.Fatalf("after RemoveWhere: held=%v %d jobs, len=%d; want true 4 10", s.queue.groups["b"].held, s.Held(), s.Len())
	}
	if got := s.RemoveWhere("a", odd); !reflect.DeepEqual(got, []string{"a1", "a3", "a5"}) {
		t.Fatalf("RemoveWhere(ready a, odd) = %v", got)
	}
	if got := s.RemoveGroup("b"); !reflect.DeepEqual(got, []string{"b0", "b2", "b4", "b6"}) {
		t.Fatalf("RemoveGroup(b) = %v", got)
	}
	if s.queue.groups["b"].held || s.Held() != 0 || s.Len() != 3 {
		t.Fatalf("after RemoveGroup: held=%v %d jobs, len=%d; want false 0 3", s.queue.groups["b"].held, s.Held(), s.Len())
	}
	if got := s.RemoveGroup("nobody"); got != nil {
		t.Fatalf("RemoveGroup of an unknown group = %v", got)
	}
	var ready []string
	for _, j := range readyJobs(&s.queue) {
		ready = append(ready, j.ID)
	}
	if !reflect.DeepEqual(ready, []string{"a0", "a2", "a4"}) {
		t.Fatalf("ready = %v, want [a0 a2 a4]", ready)
	}
}

func TestResetClearsHolds(t *testing.T) {
	nodes := []cluster.NodeView{{Name: "n", Up: true, CPUs: 4, Speed: 1}}
	s := New(Config{})
	s.Enqueue(Job{ID: "old", Group: "g"})
	s.Hold("g")
	s.Reset()
	if s.queue.groups["g"].held || s.Held() != 0 || s.Len() != 0 {
		t.Fatalf("after Reset: held=%v %d jobs, len=%d", s.queue.groups["g"].held, s.Held(), s.Len())
	}
	s.Enqueue(Job{ID: "new", Group: "g"})
	if got := drainIDs(s, nodes, nil, 10); !reflect.DeepEqual(got, []string{"new"}) {
		t.Fatalf("dispatched %v after Reset, want [new]", got)
	}
}

// TestTakeUnplaceableSkipsHeld: a held job pinned to dead nodes keeps its
// place until its group is released, and is judged then.
func TestTakeUnplaceableSkipsHeld(t *testing.T) {
	nodes := []cluster.NodeView{{Name: "up", Up: true, CPUs: 1, Speed: 1}}
	s := New(Config{})
	s.Enqueue(Job{ID: "ghost-b", Group: "b", Tenant: "t1", Nodes: []string{"ghost"}})
	s.Enqueue(Job{ID: "ghost-a", Group: "a", Nodes: []string{"ghost"}})
	s.Enqueue(Job{ID: "pinned-ok", Group: "a", Nodes: []string{"up"}})
	s.Enqueue(Job{ID: "ghost-hi", Group: "c", Priority: 1, Nodes: []string{"ghost"}})
	s.Enqueue(Job{ID: "free", Group: "c"})
	if n := s.Pinned(); n != 4 {
		t.Fatalf("Pinned = %d, want 4 (every ready job that names nodes, none that does not)", n)
	}
	s.Hold("a")
	if n := s.Pinned(); n != 2 {
		t.Fatalf("Pinned = %d with group a held, want 2", n)
	}
	var got []string
	for _, j := range s.TakeUnplaceable(nodes) {
		got = append(got, j.ID)
	}
	if !reflect.DeepEqual(got, []string{"ghost-hi", "ghost-b"}) {
		t.Fatalf("TakeUnplaceable = %v, want [ghost-hi ghost-b] (dispatch order, held left alone)", got)
	}
	if s.Len() != 3 || s.Held() != 2 || s.Pinned() != 0 {
		t.Fatalf("len=%d held=%d pinned=%d, want 3 2 0", s.Len(), s.Held(), s.Pinned())
	}
	s.Release("a")
	if dead := s.TakeUnplaceable(nodes); len(dead) != 1 || dead[0].ID != "ghost-a" {
		t.Fatalf("TakeUnplaceable after release = %v, want [ghost-a]", dead)
	}
	if got := drainIDs(s, nodes, nil, 10); !reflect.DeepEqual(got, []string{"pinned-ok", "free"}) {
		t.Fatalf("dispatched %v, want [pinned-ok free]", got)
	}
	if n := s.Pinned(); n != 0 {
		t.Fatalf("Pinned = %d once the pinned jobs are gone, want 0 (%d queued)", n, s.Len())
	}
}

// TestNextStopsAtFullCluster: with no free slot anywhere Next answers from
// the cluster view alone; with only held jobs queued it has nothing to try.
func TestNextStopsAtFullCluster(t *testing.T) {
	pol := &countingPolicy{}
	s := New(Config{Policy: pol})
	for i := 0; i < 200; i++ {
		s.Enqueue(Job{ID: fmt.Sprintf("r%03d", i), Group: "ready"})
	}
	full := []cluster.NodeView{
		{Name: "busy", Up: true, CPUs: 2, Speed: 1, Running: 2},
		{Name: "down", Up: false, CPUs: 2, Speed: 1},
	}
	if _, _, ok := s.Next(full, nil); ok || pol.picks != 0 {
		t.Fatalf("full cluster: ok=%v after %d Pick calls, want false after 0", ok, pol.picks)
	}
	s.Hold("ready")
	free := []cluster.NodeView{{Name: "idle", Up: true, CPUs: 2, Speed: 1}}
	if _, _, ok := s.Next(free, nil); ok || pol.picks != 0 {
		t.Fatalf("only held jobs: ok=%v after %d Pick calls, want false after 0", ok, pol.picks)
	}
}

// TestDispatchCycleAllocatesNothing: the group index and the held set ride
// on recycled nodes, so neither the short-queue path (one job in, one out)
// nor a cycle next to a large held backlog allocates.
func TestDispatchCycleAllocatesNothing(t *testing.T) {
	nodes := []cluster.NodeView{{Name: "n", Up: true, CPUs: 4, Speed: 1}}
	for _, held := range []int{0, 4000} {
		s := New(Config{})
		for i := 0; i < held; i++ {
			s.Enqueue(Job{ID: "h", Group: "suspended"})
		}
		s.Hold("suspended")
		job := Job{ID: "p0001||S1|0", Group: "p0001", Key: "k", Cost: time.Second}
		allocs := testing.AllocsPerRun(100, func() {
			s.Enqueue(job)
			if _, _, ok := s.Next(nodes, nil); !ok {
				t.Fatal("nothing dispatched")
			}
		})
		if allocs != 0 {
			t.Errorf("%d held: %v allocs per enqueue+dispatch, want 0", held, allocs)
		}
	}
}
