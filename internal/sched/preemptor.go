package sched

import (
	"time"

	"bioopera/internal/cluster"
	"bioopera/internal/sim"
)

// Preemptor reclaims nodes from low-priority work when high-priority jobs
// starve in the queue. It only decides; the engine executes the decisions
// through Executor.Kill, whose ErrJobKilled completions ride the ordinary
// checkpoint/requeue machinery — the victim loses at most one activity's
// work (§3.3) and goes back through the queue without consuming a retry.
type Preemptor struct {
	// StarvationWait is how long a queued job must wait before it is
	// considered starving (0 = immediately).
	StarvationWait time.Duration
	// PriorityGap is the minimum priority advantage a starving job must
	// hold over a victim (default semantics: victims strictly lower).
	PriorityGap int
	// MaxKills bounds the victims per sweep (0 = unbounded).
	MaxKills int
}

// Running is the preemptor's view of one executing job.
type Running struct {
	Job      string
	Node     string
	Priority int
	Tenant   string
}

// Decide returns the running jobs to kill so that starving queued jobs
// can take their slots. queued must be in dispatch order (the Scheduler's
// Jobs). For each starving job that has no free eligible slot — and could
// ever have one — it picks the lowest-priority victim at least
// PriorityGap below it on a node the job can use, breaking ties by job ID
// for determinism. One victim frees one slot, so each is claimed once.
func (p Preemptor) Decide(now sim.Time, queued []Job, running []Running, nodes []cluster.NodeView) []Candidate {
	gap := p.PriorityGap
	if gap < 1 {
		gap = 1
	}
	byName := make(map[string]cluster.NodeView, len(nodes))
	for _, v := range nodes {
		byName[v.Name] = v
	}
	taken := make(map[string]bool, len(running))
	var out []Candidate
	for _, j := range queued {
		if p.MaxKills > 0 && len(out) >= p.MaxKills {
			break
		}
		if p.StarvationWait > 0 && now.Sub(j.Enqueued) < p.StarvationWait {
			continue
		}
		if j.Placeable(nodes) {
			// A free slot exists; dispatch will take it without a kill.
			continue
		}
		if j.Unplaceable(nodes) {
			// Killing cannot help a job pinned to dead nodes.
			continue
		}
		best := -1
		for i, r := range running {
			if taken[r.Job] || r.Priority > j.Priority-gap {
				continue
			}
			v, ok := byName[r.Node]
			if !ok || !v.Up || !j.matches(v) {
				continue
			}
			if best < 0 || r.Priority < running[best].Priority ||
				(r.Priority == running[best].Priority && r.Job < running[best].Job) {
				best = i
			}
		}
		if best >= 0 {
			taken[running[best].Job] = true
			out = append(out, Candidate{Job: running[best].Job, Node: running[best].Node})
		}
	}
	return out
}
