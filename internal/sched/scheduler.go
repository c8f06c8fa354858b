package sched

import (
	"sort"
	"time"

	"bioopera/internal/cluster"
)

// Config configures a Scheduler.
type Config struct {
	// Policy places jobs on nodes; defaults to LeastLoaded.
	Policy Policy
	// Quotas assigns per-tenant fair-share weights (unlisted tenants
	// weigh 1).
	Quotas map[string]float64
}

// Scheduler composes the queue, the placement policy and the cost
// predictor behind the facade the core dispatcher drives. It is not
// internally synchronized: the engine serializes every call under its
// dispatch lock, exactly as it did for the bare Queue.
type Scheduler struct {
	queue  Queue
	policy Policy
	pred   *Predictor
	quotas map[string]float64 // retained to survive Reset
}

// New builds a scheduler.
func New(cfg Config) *Scheduler {
	if cfg.Policy == nil {
		cfg.Policy = LeastLoaded{}
	}
	s := &Scheduler{policy: cfg.Policy, pred: NewPredictor(DefaultEWMAAlpha), quotas: cfg.Quotas}
	s.applyQuotas()
	return s
}

func (s *Scheduler) applyQuotas() {
	names := make([]string, 0, len(s.quotas))
	for t := range s.quotas {
		names = append(names, t)
	}
	sort.Strings(names)
	for _, t := range names {
		s.queue.SetQuota(t, s.quotas[t])
	}
}

// Enqueue adds a job to the queue (to the held set when its group is held).
func (s *Scheduler) Enqueue(j Job) { s.queue.Push(j) }

// Next pops the first ready job in dispatch order that passes admit (nil
// admits everything) and that the policy can place, returning the job and
// its node. The dispatching tenant is charged the job's calibrated cost
// estimate, advancing the fair-share order.
//
// A Policy may only pick a node that is up and has a free slot, so when the
// view has none Next answers without looking at the queue: on a saturated
// cluster a decision costs O(nodes), whatever the backlog.
func (s *Scheduler) Next(nodes []cluster.NodeView, admit func(Job) bool) (Job, string, bool) {
	if !hasFreeSlot(nodes) {
		return Job{}, "", false
	}
	j, node, ok := s.queue.PopWhere(func(j *Job) (string, bool) {
		if admit != nil && !admit(*j) {
			return "", false
		}
		return s.policy.Pick(*j, nodes)
	})
	if ok {
		s.queue.Charge(j.Tenant, s.Estimate(j.Key, j.Cost).Seconds())
	}
	return j, node, ok
}

func hasFreeSlot(nodes []cluster.NodeView) bool {
	for _, v := range nodes {
		if v.Up && v.FreeSlots() > 0 {
			return true
		}
	}
	return false
}

// Pinned reports how many ready jobs name specific nodes — the only ones
// TakeUnplaceable can return, so at zero its cluster view need not be taken.
func (s *Scheduler) Pinned() int { return s.queue.Pinned() }

// TakeUnplaceable removes and returns (in dispatch order) every ready job
// that can never be placed on the given cluster view — its Nodes list
// names only down or unknown nodes. The engine surfaces each as a task
// failure instead of leaving it queued forever. Held jobs are not judged
// until their group is released.
func (s *Scheduler) TakeUnplaceable(nodes []cluster.NodeView) []Job {
	return s.queue.TakeUnplaceable(nodes)
}

// Hold takes a group's queued jobs, and any enqueued to it later, out of
// dispatch order until Release. They still count in Len and the depths.
func (s *Scheduler) Hold(group string) { s.queue.Hold(group) }

// Release returns a held group's jobs to dispatch order, each where its
// priority and arrival order place it.
func (s *Scheduler) Release(group string) { s.queue.Release(group) }

// RemoveGroup deletes every queued job of a group along with any hold on
// it, returning the job IDs, sorted.
func (s *Scheduler) RemoveGroup(group string) []string {
	ids := s.queue.RemoveWhere(group, nil)
	s.queue.Release(group)
	return ids
}

// RemoveWhere deletes the jobs of a group that match, returning their IDs,
// sorted; a hold on the group stays.
func (s *Scheduler) RemoveWhere(group string, match func(id string) bool) []string {
	return s.queue.RemoveWhere(group, match)
}

// Len reports the queue depth, held jobs included.
func (s *Scheduler) Len() int { return s.queue.Len() }

// Held reports how many queued jobs belong to held groups.
func (s *Scheduler) Held() int { return s.queue.Held() }

// Ready reports how many queued jobs are in dispatch order.
func (s *Scheduler) Ready() int { return s.queue.Ready() }

// Group reports whether a group has jobs queued and whether it is held.
func (s *Scheduler) Group(name string) (queued, held bool) { return s.queue.Group(name) }

// DepthByTenant reports queue depth per tenant.
func (s *Scheduler) DepthByTenant() map[string]int { return s.queue.DepthByTenant() }

// DepthByPriority reports queue depth per priority level.
func (s *Scheduler) DepthByPriority() map[int]int { return s.queue.DepthByPriority() }

// Usage reports a tenant's accumulated fair-share charge.
func (s *Scheduler) Usage(tenant string) float64 { return s.queue.Usage(tenant) }

// Observe feeds one completed activity into the predictor.
func (s *Scheduler) Observe(key string, estimated, actual time.Duration) {
	s.pred.Observe(key, estimated, actual)
}

// Estimate returns the calibrated cost estimate for a program key.
func (s *Scheduler) Estimate(key string, model time.Duration) time.Duration {
	return s.pred.Estimate(key, model)
}

// Reset wipes the queue, holds and fair-share usage — the engine's crash
// semantics: volatile scheduling state vanishes, configuration (quotas,
// policy) and learned calibration survive with the process.
func (s *Scheduler) Reset() {
	s.queue = Queue{}
	s.applyQuotas()
}
