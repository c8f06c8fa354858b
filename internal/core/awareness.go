package core

import (
	"sort"
	"time"

	"bioopera/internal/cluster"
	"bioopera/internal/sched"
	"bioopera/internal/sim"
)

// This file is the awareness model (§3.4/§3.5): BioOpera stores enough
// information about the computing environment to track availability and
// utilization over time (the data behind Figs. 5 and 6) and to answer
// what-if questions about planned outages ("a system administrator could
// ask the system which processes will be affected if a node or set of
// nodes is taken off-line").

// Sample is one point of the lifecycle trace.
type Sample struct {
	At        sim.Time
	Available int     // CPU slots on nodes that are up
	Busy      int     // CPU slots occupied by BioOpera jobs
	Effective float64 // processors actually computing BioOpera work
}

// Annotation labels a moment of the trace (the numbered events of Fig. 5).
type Annotation struct {
	At    sim.Time
	Label string
}

// Tracker samples cluster availability and utilization on the simulation
// clock.
type Tracker struct {
	c           *cluster.Cluster
	samples     []Sample
	annotations []Annotation
	timer       sim.Stopper
}

// NewTracker starts sampling every interval.
func NewTracker(s *sim.Sim, c *cluster.Cluster, every time.Duration) *Tracker {
	t := &Tracker{c: c}
	t.record(s.Now())
	t.timer = s.Every(every, func(now sim.Time) { t.record(now) })
	return t
}

func (t *Tracker) record(now sim.Time) {
	t.samples = append(t.samples, Sample{
		At:        now,
		Available: t.c.AvailableCPUs(),
		Busy:      t.c.BusyCPUs(),
		Effective: t.c.EffectiveBusy(),
	})
}

// Stop halts sampling.
func (t *Tracker) Stop() {
	if t.timer != nil {
		t.timer.Stop()
	}
}

// Annotate records a labelled event at the current simulation time.
func (t *Tracker) Annotate(now sim.Time, label string) {
	t.annotations = append(t.annotations, Annotation{At: now, Label: label})
}

// Samples returns the collected trace.
func (t *Tracker) Samples() []Sample { return append([]Sample(nil), t.samples...) }

// Annotations returns the labelled events.
func (t *Tracker) Annotations() []Annotation {
	return append([]Annotation(nil), t.annotations...)
}

// MeanUtilization returns mean busy/available over samples where the
// cluster had capacity.
func (t *Tracker) MeanUtilization() float64 {
	var sum float64
	var n int
	for _, s := range t.samples {
		if s.Available > 0 {
			sum += float64(s.Busy) / float64(s.Available)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// PeakBusy returns the maximum observed busy CPU count — the paper's
// "using up to N processors".
func (t *Tracker) PeakBusy() int {
	var m int
	for _, s := range t.samples {
		if s.Busy > m {
			m = s.Busy
		}
	}
	return m
}

// JobImpact identifies one activity hit by a hypothetical outage.
type JobImpact struct {
	Job      string
	Instance string
	Scope    string
	Task     string
	Node     string
	Progress string // "running" or "queued-affine"
}

// OutageImpact is the answer to "what happens if these nodes go away?".
type OutageImpact struct {
	// Nodes is the hypothetical outage set.
	Nodes []string
	// Jobs lists activities that would be lost or stuck.
	Jobs []JobImpact
	// Instances lists the distinct affected process instances.
	Instances []string
	// RemainingCPUs is the cluster capacity left during the outage.
	RemainingCPUs int
	// Stranded reports jobs whose placement constraints cannot be met
	// by the remaining nodes — the computation would stall on them.
	Stranded []JobImpact
	// Progress maps each affected instance to how far along it is
	// (§3.5: administrators see "how far in their execution these
	// processes are, their priority").
	Progress map[string]float64
	// Priority maps each affected instance to its priority.
	Priority map[string]int
}

// WhatIf reports the impact of taking the given nodes offline: which
// running activities would be killed and rescheduled, which queued
// activities could no longer be placed anywhere, and how much capacity
// remains (§3.5).
func (e *Engine) WhatIf(nodes []string) OutageImpact {
	down := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		down[n] = true
	}
	impact := OutageImpact{Nodes: append([]string(nil), nodes...)}
	affected := make(map[string]bool)

	// Snapshot the dispatcher maps under dmu, each ref's job with them:
	// what the scheduler would place is what the check below asks about.
	type snap struct {
		id   string
		ref  *queuedRef
		job  sched.Job
		node string
	}
	e.dmu.Lock()
	running := make([]snap, 0, len(e.running))
	for id, ref := range e.running {
		running = append(running, snap{id: id, ref: ref, job: ref.job, node: ref.node})
	}
	queued := make([]snap, 0, len(e.queued))
	for id, ref := range e.queued {
		queued = append(queued, snap{id: id, ref: ref, job: ref.job})
	}
	e.dmu.Unlock()
	sort.Slice(running, func(i, j int) bool { return running[i].id < running[j].id })
	sort.Slice(queued, func(i, j int) bool { return queued[i].id < queued[j].id })

	// Running jobs on the outage set get killed and rescheduled.
	for _, s := range running {
		if down[s.node] {
			impact.Jobs = append(impact.Jobs, JobImpact{
				Job: s.id, Instance: s.ref.inst.ID, Scope: s.ref.sc.ID,
				Task: s.ref.ts.Name, Node: s.node, Progress: "running",
			})
			affected[s.ref.inst.ID] = true
		}
	}

	// Remaining capacity and stranding analysis.
	var remaining []cluster.NodeView
	for _, v := range e.opts.Executor.AppendNodes(nil) {
		if down[v.Name] {
			continue
		}
		if v.Up {
			impact.RemainingCPUs += v.CPUs
		}
		// Pretend the node is otherwise empty for feasibility checks.
		v.Running = 0
		remaining = append(remaining, v)
	}

	check := func(s snap, progress string) {
		if s.job.Placeable(remaining) {
			return
		}
		ref := s.ref
		impact.Stranded = append(impact.Stranded, JobImpact{
			Job: s.id, Instance: ref.inst.ID, Scope: ref.sc.ID,
			Task: ref.ts.Name, Node: s.node, Progress: progress,
		})
		affected[ref.inst.ID] = true
	}
	for _, s := range running {
		check(s, "running")
	}
	for _, s := range queued {
		check(s, "queued-affine")
	}

	for id := range affected {
		impact.Instances = append(impact.Instances, id)
	}
	sort.Strings(impact.Instances)
	impact.Progress = make(map[string]float64, len(affected))
	impact.Priority = make(map[string]int, len(affected))
	for _, id := range impact.Instances {
		if in, ok := e.lookup(id); ok {
			mu := e.shardFor(id)
			mu.Lock()
			impact.Progress[id] = in.Progress()
			mu.Unlock()
			impact.Priority[id] = in.Priority
		}
	}
	return impact
}
