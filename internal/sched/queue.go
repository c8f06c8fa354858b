package sched

import (
	"slices"
	"sort"

	"bioopera/internal/cluster"
)

// Queue is the activity queue: pending jobs ordered by priority (higher
// first), by tenant fair share among equal priorities, and FIFO within a
// (priority, tenant) pair.
//
// Fair share follows the classic weighted scheme: each tenant accumulates
// usage (charged by the Scheduler as work dispatches), and among heads of
// equal priority the tenant with the smallest usage/quota ratio goes
// first. With a single tenant — or before any usage is charged — the order
// reduces exactly to the legacy queue's (priority desc, arrival FIFO), so
// deterministic simulation traces are unchanged by the tenancy machinery.
//
// Jobs belong to groups (Job.Group). A held group's jobs stay queued — they
// count in Len and the depth reports — but leave the dispatch-order lists,
// so nothing that looks for work to run (scan, Jobs, TakeUnplaceable)
// visits them. They keep their arrival numbers: Release puts each back
// exactly where it would have stood had it been skipped, not removed.
//
// The zero value is an empty queue with no quotas (every tenant weight 1).
// Queue is not safe for concurrent use; the engine serializes access
// under its dispatch lock.
type Queue struct {
	tenants map[string]*tenantQueue
	order   []*tenantQueue // tenant first-seen order, for deterministic scans
	quotas  map[string]float64
	usage   map[string]float64
	n       int // global arrival counter (FIFO tie-break)
	size    int // ready + held
	held    int // jobs of held groups
	groups  map[string]group
	// pinned lists the ready jobs that name specific nodes — the only ones
	// that can ever be Unplaceable — in arrival order.
	pinned []*node
	free   *node // recycled nodes, linked through next
}

// node is one queued job. Nodes are recycled through Queue.free, so a
// steady enqueue/dispatch cycle allocates nothing.
type node struct {
	job Job
	seq int // arrival number; survives hold and release
	// prev and next chain the jobs of one group, ready or held, so holding,
	// releasing or removing a group costs its own jobs, not the queue's.
	prev, next *node
}

// group is the per-group index entry: the chain of its queued jobs and
// whether they are held. Entries exist only while a group has jobs or is
// held, and live in the map by value.
type group struct {
	head *node
	held bool
}

// tenantQueue holds one tenant's ready jobs in (priority desc, arrival asc)
// order: items[head:]. Dispatch almost always takes the head, and taking it
// advances head instead of shifting the list; add reclaims the dead prefix.
type tenantQueue struct {
	items []*node
	head  int
}

// ready returns the tenant's ready jobs in dispatch order.
func (tq *tenantQueue) ready() []*node { return tq.items[tq.head:] }

// add inserts a ready job at its position. A full backing array first
// moves the live jobs to its front — or, when they fill more than half of
// it, to a new array twice their length plus 4 — so each copy is paid for
// by at least as many pops or pushes as it moves, the insert never grows
// the array, and the array stays within twice the live length it last grew
// at, plus 4.
func (tq *tenantQueue) add(nd *node) {
	if len(tq.items) == cap(tq.items) {
		live := tq.ready()
		n := len(live)
		if c := 2*n + 4; c > cap(tq.items) {
			tq.items = make([]*node, n, c)
			copy(tq.items, live)
		} else {
			copy(tq.items, live)
			clear(tq.items[n:])
			tq.items = tq.items[:n]
		}
		tq.head = 0
	}
	tq.items = slices.Insert(tq.items, tq.head+tq.search(nd), nd)
}

// remove takes the ready job at ready()[i] out of the list, shifting
// whichever side of it is shorter: the head costs nothing.
func (tq *tenantQueue) remove(i int) {
	i += tq.head
	if i-tq.head < len(tq.items)-i {
		copy(tq.items[tq.head+1:i+1], tq.items[tq.head:i])
		tq.items[tq.head] = nil
		tq.head++
	} else {
		tq.items = slices.Delete(tq.items, i, i+1)
	}
	if tq.head == len(tq.items) {
		tq.items, tq.head = tq.items[:0], 0
	}
}

// Len returns the number of queued jobs, held ones included.
func (q *Queue) Len() int { return q.size }

// Held returns the number of queued jobs whose group is held.
func (q *Queue) Held() int { return q.held }

// Ready returns the number of jobs in dispatch order, counted in the
// dispatch-order lists themselves rather than derived from Len and Held.
func (q *Queue) Ready() int {
	n := 0
	for _, tq := range q.order {
		n += len(tq.ready())
	}
	return n
}

// Group reports whether a group has jobs queued, ready or held, and whether
// it is held. It only reads.
func (q *Queue) Group(name string) (queued, held bool) {
	g := q.groups[name]
	return g.head != nil, g.held
}

// SetQuota assigns a tenant's fair-share weight (default 1; larger means
// a larger share). Non-positive weights are ignored.
func (q *Queue) SetQuota(tenant string, weight float64) {
	if weight <= 0 {
		return
	}
	if q.quotas == nil {
		q.quotas = make(map[string]float64)
	}
	q.quotas[tenant] = weight
}

// Charge accrues usage against a tenant; the Scheduler calls it with each
// dispatched job's estimated cost.
func (q *Queue) Charge(tenant string, amount float64) {
	if amount <= 0 {
		return
	}
	if q.usage == nil {
		q.usage = make(map[string]float64)
	}
	q.usage[tenant] += amount
}

// Usage returns a tenant's accumulated charge.
func (q *Queue) Usage(tenant string) float64 { return q.usage[tenant] }

func (q *Queue) weight(tenant string) float64 {
	if w, ok := q.quotas[tenant]; ok {
		return w
	}
	return 1
}

// Push enqueues a job; into the held set when its group is held.
func (q *Queue) Push(j Job) {
	nd := q.free
	if nd == nil {
		nd = new(node)
	} else {
		q.free = nd.next
	}
	q.n++
	*nd = node{job: j, seq: q.n}
	if q.groups == nil {
		q.groups = make(map[string]group)
	}
	g := q.groups[j.Group]
	if nd.next = g.head; g.head != nil {
		g.head.prev = nd
	}
	g.head = nd
	q.groups[j.Group] = g
	q.size++
	if g.held {
		q.held++
		return
	}
	q.insert(nd)
}

// insert makes a job ready: it enters its tenant's dispatch-order list and,
// when it names nodes, the pinned set. Both positions are found by binary
// search, so equal-priority arrivals (the common case — and all of a
// recovery's requeued backlog) land at the tail in O(log n).
func (q *Queue) insert(nd *node) {
	if q.tenants == nil {
		q.tenants = make(map[string]*tenantQueue)
	}
	tq, ok := q.tenants[nd.job.Tenant]
	if !ok {
		tq = &tenantQueue{}
		q.tenants[nd.job.Tenant] = tq
		q.order = append(q.order, tq)
	}
	tq.add(nd)
	if len(nd.job.Nodes) > 0 {
		q.pinned = slices.Insert(q.pinned, searchSeq(q.pinned, nd.seq), nd)
	}
}

// search returns the index of nd in the tenant's ready jobs, or where it
// belongs.
func (tq *tenantQueue) search(nd *node) int {
	ready := tq.ready()
	return sort.Search(len(ready), func(i int) bool {
		at := ready[i]
		if at.job.Priority != nd.job.Priority {
			return at.job.Priority < nd.job.Priority
		}
		return at.seq >= nd.seq
	})
}

func searchSeq(list []*node, seq int) int {
	return sort.Search(len(list), func(i int) bool { return list[i].seq >= seq })
}

// unready takes a ready job out of the dispatch-order lists; it stays in
// its group's chain.
func (q *Queue) unready(nd *node) {
	tq := q.tenants[nd.job.Tenant]
	tq.remove(tq.search(nd))
	if len(nd.job.Nodes) > 0 {
		i := searchSeq(q.pinned, nd.seq)
		q.pinned = slices.Delete(q.pinned, i, i+1)
	}
}

// drop unlinks a job that is in no dispatch-order list from its group and
// recycles its node, returning the job.
func (q *Queue) drop(nd *node) Job {
	j := nd.job
	g := q.groups[j.Group]
	if nd.prev != nil {
		nd.prev.next = nd.next
	} else {
		g.head = nd.next
	}
	if nd.next != nil {
		nd.next.prev = nd.prev
	}
	if g.head == nil && !g.held {
		delete(q.groups, j.Group)
	} else {
		q.groups[j.Group] = g
	}
	q.size--
	*nd = node{next: q.free}
	q.free = nd
	return j
}

// before reports whether a dispatches before b: higher priority first, then
// the tenant with the smaller weighted usage, then arrival order. It is a
// total order, and every tenant list is sorted by it, so dispatch order is
// the merge of the tenant lists.
func (q *Queue) before(a, b *node) bool {
	if a.job.Priority != b.job.Priority {
		return a.job.Priority > b.job.Priority
	}
	if a.job.Tenant != b.job.Tenant {
		ua := q.usage[a.job.Tenant] / q.weight(a.job.Tenant)
		ub := q.usage[b.job.Tenant] / q.weight(b.job.Tenant)
		if ua != ub {
			return ua < ub
		}
	}
	return a.seq < b.seq
}

// scan visits ready jobs in dispatch order until visit returns true.
func (q *Queue) scan(visit func(*node) bool) {
	var buf [8]int
	cursors := buf[:]
	if len(q.order) > len(buf) {
		cursors = make([]int, len(q.order))
	}
	for {
		var best *node
		bi := 0
		for ti, tq := range q.order {
			ready := tq.ready()
			if cursors[ti] >= len(ready) {
				continue
			}
			if nd := ready[cursors[ti]]; best == nil || q.before(nd, best) {
				best, bi = nd, ti
			}
		}
		if best == nil || visit(best) {
			return
		}
		cursors[bi]++
	}
}

// PopWhere removes and returns the first ready job (in dispatch order) for
// which a placement exists, trying pick on each. It returns the job, the
// chosen node, and ok. pick must not retain the pointer.
func (q *Queue) PopWhere(pick func(*Job) (string, bool)) (Job, string, bool) {
	var found *node
	var target string
	q.scan(func(nd *node) bool {
		n, ok := pick(&nd.job)
		if ok {
			found, target = nd, n
		}
		return ok
	})
	if found == nil {
		return Job{}, "", false
	}
	q.unready(found)
	return q.drop(found), target, true
}

// Hold takes a group's jobs out of dispatch order until Release; jobs
// pushed to the group meanwhile are held too. Holding a held group is a
// no-op.
func (q *Queue) Hold(name string) {
	g := q.groups[name]
	if g.held {
		return
	}
	for nd := g.head; nd != nil; nd = nd.next {
		q.unready(nd)
		q.held++
	}
	g.held = true
	if q.groups == nil { // holding before the first Push
		q.groups = make(map[string]group)
	}
	q.groups[name] = g
}

// Release returns a held group's jobs to dispatch order, each at the
// position its priority and arrival number give it.
func (q *Queue) Release(name string) {
	g := q.groups[name]
	if !g.held {
		return
	}
	for nd := g.head; nd != nil; nd = nd.next {
		q.insert(nd)
		q.held--
	}
	if g.held = false; g.head == nil {
		delete(q.groups, name)
	} else {
		q.groups[name] = g
	}
}

// RemoveWhere deletes the jobs of one group, ready or held, that match
// (nil matches all) and returns their IDs, sorted. A hold on the group
// stays.
func (q *Queue) RemoveWhere(name string, match func(id string) bool) []string {
	g := q.groups[name]
	var ids []string
	for nd := g.head; nd != nil; {
		next := nd.next
		if match == nil || match(nd.job.ID) {
			if g.held {
				q.held--
			} else {
				q.unready(nd)
			}
			ids = append(ids, q.drop(nd).ID)
		}
		nd = next
	}
	sort.Strings(ids)
	return ids
}

// Pinned reports how many ready jobs name specific nodes.
func (q *Queue) Pinned() int { return len(q.pinned) }

// TakeUnplaceable removes and returns, in dispatch order, every ready job
// that is Unplaceable on the given cluster view. Only pinned jobs can be.
func (q *Queue) TakeUnplaceable(nodes []cluster.NodeView) []Job {
	var dead []*node
	for _, nd := range q.pinned {
		if nd.job.Unplaceable(nodes) {
			dead = append(dead, nd)
		}
	}
	if dead == nil {
		return nil
	}
	sort.Slice(dead, func(i, j int) bool { return q.before(dead[i], dead[j]) })
	out := make([]Job, len(dead))
	for i, nd := range dead {
		q.unready(nd)
		out[i] = q.drop(nd)
	}
	return out
}

// DepthByTenant returns the number of queued jobs per tenant, held ones
// included (tenants with no queued jobs are omitted).
func (q *Queue) DepthByTenant() map[string]int {
	out := make(map[string]int)
	for _, g := range q.groups {
		for nd := g.head; nd != nil; nd = nd.next {
			out[nd.job.Tenant]++
		}
	}
	return out
}

// DepthByPriority returns the number of queued jobs per priority level,
// held ones included.
func (q *Queue) DepthByPriority() map[int]int {
	out := make(map[int]int)
	for _, g := range q.groups {
		for nd := g.head; nd != nil; nd = nd.next {
			out[nd.job.Priority]++
		}
	}
	return out
}
