package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"bioopera/internal/cluster"
)

// refQueue is the model Queue is checked against: a plain list of the
// queued jobs whose ready set is sorted by the definition of dispatch order
// (priority desc, weighted usage asc, arrival asc) each time it is read.
type refQueue struct {
	jobs   []refJob
	held   map[string]bool
	usage  map[string]float64
	quotas map[string]float64
	n      int
}

type refJob struct {
	job Job
	seq int
}

func (r *refQueue) push(j Job) {
	r.n++
	r.jobs = append(r.jobs, refJob{j, r.n})
}

func (r *refQueue) weight(tenant string) float64 {
	if w, ok := r.quotas[tenant]; ok {
		return w
	}
	return 1
}

// ready returns the jobs of unheld groups in dispatch order.
func (r *refQueue) ready() []refJob {
	var out []refJob
	for _, rj := range r.jobs {
		if !r.held[rj.job.Group] {
			out = append(out, rj)
		}
	}
	sort.Slice(out, func(i, k int) bool {
		a, b := out[i], out[k]
		if a.job.Priority != b.job.Priority {
			return a.job.Priority > b.job.Priority
		}
		ua := r.usage[a.job.Tenant] / r.weight(a.job.Tenant)
		ub := r.usage[b.job.Tenant] / r.weight(b.job.Tenant)
		if ua != ub {
			return ua < ub
		}
		return a.seq < b.seq
	})
	return out
}

func (r *refQueue) remove(id string) {
	for i, rj := range r.jobs {
		if rj.job.ID == id {
			r.jobs = append(r.jobs[:i], r.jobs[i+1:]...)
			return
		}
	}
}

func (r *refQueue) heldCount() int {
	n := 0
	for _, rj := range r.jobs {
		if r.held[rj.job.Group] {
			n++
		}
	}
	return n
}

func (r *refQueue) pinned() int {
	n := 0
	for _, rj := range r.ready() {
		if len(rj.job.Nodes) > 0 {
			n++
		}
	}
	return n
}

func ids(jobs []Job) []string {
	out := make([]string, len(jobs))
	for i, j := range jobs {
		out[i] = j.ID
	}
	return out
}

// TestQueueMatchesModel runs random sequences of every Queue operation —
// pushes of mixed priorities, tenants, groups and pinned nodes, pops whose
// pick refuses some jobs, holds, releases, removals, unplaceable sweeps and
// fair-share charges — against refQueue, and compares dispatch order, Len,
// Held, Pinned, Ready and every group's Group after every step.
func TestQueueMatchesModel(t *testing.T) {
	tenants := []string{"", "t1", "t2"}
	groups := []string{"g0", "g1", "g2", "g3"}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		ref := &refQueue{held: map[string]bool{}, usage: map[string]float64{}, quotas: map[string]float64{}}
		refuse := func(id string) bool { return len(id)%3 == 0 } // a pick that turns some jobs down
		nextID := 0
		for step := 0; step < 1500; step++ {
			var op string
			switch r := rng.Intn(100); {
			case r < 45:
				nextID++
				j := Job{
					ID:       fmt.Sprintf("j%d", nextID),
					Group:    groups[rng.Intn(len(groups))],
					Tenant:   tenants[rng.Intn(len(tenants))],
					Priority: rng.Intn(3),
				}
				if rng.Intn(5) == 0 {
					j.Nodes = []string{fmt.Sprintf("n%d", rng.Intn(2))}
				}
				op = "push " + j.ID
				q.Push(j)
				ref.push(j)
			case r < 80:
				got, target, ok := q.PopWhere(func(j *Job) (string, bool) { return "node-" + j.ID, !refuse(j.ID) })
				var want *refJob
				for _, rj := range ref.ready() {
					if !refuse(rj.job.ID) {
						want = &rj
						break
					}
				}
				op = "pop"
				switch {
				case want == nil && ok:
					t.Fatalf("seed %d step %d: popped %s, model has nothing to pop", seed, step, got.ID)
				case want != nil && (!ok || got.ID != want.job.ID || target != "node-"+want.job.ID):
					t.Fatalf("seed %d step %d: popped %s on %q (ok=%v), model pops %s", seed, step, got.ID, target, ok, want.job.ID)
				case want != nil:
					ref.remove(want.job.ID)
				}
			case r < 86:
				g := groups[rng.Intn(len(groups))]
				op = "hold " + g
				q.Hold(g)
				ref.held[g] = true
			case r < 92:
				g := groups[rng.Intn(len(groups))]
				op = "release " + g
				q.Release(g)
				delete(ref.held, g)
			case r < 95:
				g := groups[rng.Intn(len(groups))]
				op = "remove " + g
				match := func(id string) bool { return !refuse(id) }
				got := q.RemoveWhere(g, match)
				var want []string
				for _, rj := range ref.jobs {
					if rj.job.Group == g && match(rj.job.ID) {
						want = append(want, rj.job.ID)
					}
				}
				sort.Strings(want)
				if len(got) != 0 || len(want) != 0 {
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d step %d: RemoveWhere(%s) = %v, model %v", seed, step, g, got, want)
					}
				}
				for _, id := range want {
					ref.remove(id)
				}
			case r < 97:
				view := []cluster.NodeView{{Name: "n0", Up: rng.Intn(2) == 0}, {Name: "n1", Up: true}}
				op = "take-unplaceable"
				got := ids(q.TakeUnplaceable(view))
				var want []string
				for _, rj := range ref.ready() {
					if rj.job.Unplaceable(view) {
						want = append(want, rj.job.ID)
					}
				}
				if len(got) != 0 || len(want) != 0 {
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d step %d: TakeUnplaceable = %v, model %v", seed, step, got, want)
					}
				}
				for _, id := range want {
					ref.remove(id)
				}
			case r < 99:
				tn := tenants[rng.Intn(len(tenants))]
				amount := float64(1 + rng.Intn(4))
				op = "charge " + tn
				q.Charge(tn, amount)
				ref.usage[tn] += amount
			default:
				tn := tenants[rng.Intn(len(tenants))]
				w := float64(1 + rng.Intn(3))
				op = "quota " + tn
				q.SetQuota(tn, w)
				ref.quotas[tn] = w
			}
			var want []string
			for _, rj := range ref.ready() {
				want = append(want, rj.job.ID)
			}
			if got := ids(readyJobs(&q)); len(got) != 0 || len(want) != 0 {
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d (%s): dispatch order\n got %v\nwant %v", seed, step, op, got, want)
				}
			}
			if q.Len() != len(ref.jobs) || q.Held() != ref.heldCount() || q.Pinned() != ref.pinned() || q.Ready() != len(want) {
				t.Fatalf("seed %d step %d (%s): Len/Held/Pinned/Ready = %d/%d/%d/%d, model %d/%d/%d/%d", seed, step, op,
					q.Len(), q.Held(), q.Pinned(), q.Ready(), len(ref.jobs), ref.heldCount(), ref.pinned(), len(want))
			}
			for _, g := range groups {
				queued := false
				for _, rj := range ref.jobs {
					queued = queued || rj.job.Group == g
				}
				if gotQueued, gotHeld := q.Group(g); gotQueued != queued || gotHeld != ref.held[g] {
					t.Fatalf("seed %d step %d (%s): Group(%s) = %v %v, model %v %v", seed, step, op, g, gotQueued, gotHeld, queued, ref.held[g])
				}
			}
		}
	}
}

// TestDeepQueueCycleBoundsItsArray: a steady push/pop cycle at depth 10,000
// pops the head in place, so the tenant list's backing array stays within
// twice its live length plus a constant, and the cycle allocates nothing.
func TestDeepQueueCycleBoundsItsArray(t *testing.T) {
	const depth = 10000
	var q Queue
	job := Job{ID: "j", Group: "g"}
	for i := 0; i < depth; i++ {
		q.Push(job)
	}
	tq := q.tenants[""]
	cycle := func() {
		q.Push(job)
		if _, ok := pop(&q); !ok {
			t.Fatal("nothing popped")
		}
	}
	for i := 0; i < 5*depth; i++ {
		cycle()
		if live := len(tq.ready()); live != depth || cap(tq.items) > 2*live+4 {
			t.Fatalf("cycle %d: %d live jobs in an array of %d", i, live, cap(tq.items))
		}
	}
	if allocs := testing.AllocsPerRun(depth, cycle); allocs != 0 {
		t.Errorf("%v allocs per push+pop at depth %d, want 0", allocs, depth)
	}
}
