package sched

import (
	"fmt"

	"bioopera/internal/cluster"
)

// Policy picks a node for a job. Pick returns ok=false when no eligible
// node has capacity (the job stays queued), and may only return a node that
// is up and has a free slot: the Scheduler relies on it and does not call
// Pick at all while the cluster view has no such node.
type Policy interface {
	Name() string
	Pick(job Job, nodes []cluster.NodeView) (node string, ok bool)
}

// PolicyByName resolves a policy from its flag spelling ("" picks the
// default, least-loaded).
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "", "least-loaded":
		return LeastLoaded{}, nil
	case "first-fit":
		return FirstFit{}, nil
	case "fastest":
		return Fastest{}, nil
	case "round-robin":
		return &RoundRobin{}, nil
	}
	return nil, fmt.Errorf("sched: unknown policy %q (want first-fit, least-loaded, fastest or round-robin)", name)
}

// FirstFit places each job on the first eligible node in configuration
// order. Simple, deterministic, and prone to hot-spotting — the baseline.
type FirstFit struct{}

// Name implements Policy.
func (FirstFit) Name() string { return "first-fit" }

// Pick implements Policy.
func (FirstFit) Pick(job Job, nodes []cluster.NodeView) (string, bool) {
	for _, v := range nodes {
		if job.eligible(v) {
			return v.Name, true
		}
	}
	return "", false
}

// LeastLoaded places each job on the eligible node with the most free
// slots, breaking ties by effective speed then name. This is BioOpera's
// default.
type LeastLoaded struct{}

// Name implements Policy.
func (LeastLoaded) Name() string { return "least-loaded" }

// Pick implements Policy.
func (LeastLoaded) Pick(job Job, nodes []cluster.NodeView) (string, bool) {
	best := -1
	for i, v := range nodes {
		if !job.eligible(v) {
			continue
		}
		if best < 0 || better(v, nodes[best]) {
			best = i
		}
	}
	if best < 0 {
		return "", false
	}
	return nodes[best].Name, true
}

func better(a, b cluster.NodeView) bool {
	if a.FreeSlots() != b.FreeSlots() {
		return a.FreeSlots() > b.FreeSlots()
	}
	if a.EffectiveSpeed() != b.EffectiveSpeed() {
		return a.EffectiveSpeed() > b.EffectiveSpeed()
	}
	return a.Name < b.Name
}

// Fastest places each job on the eligible node with the highest effective
// speed (speed × available share) — best when activity costs vary widely
// and the cluster is heterogeneous.
type Fastest struct{}

// Name implements Policy.
func (Fastest) Name() string { return "fastest" }

// Pick implements Policy.
func (Fastest) Pick(job Job, nodes []cluster.NodeView) (string, bool) {
	best := -1
	for i, v := range nodes {
		if !job.eligible(v) {
			continue
		}
		if best < 0 ||
			v.EffectiveSpeed() > nodes[best].EffectiveSpeed() ||
			(v.EffectiveSpeed() == nodes[best].EffectiveSpeed() && v.Name < nodes[best].Name) {
			best = i
		}
	}
	if best < 0 {
		return "", false
	}
	return nodes[best].Name, true
}

// RoundRobin cycles through nodes, skipping ineligible ones. Stateful.
type RoundRobin struct{ next int }

// Name implements Policy.
func (*RoundRobin) Name() string { return "round-robin" }

// Pick implements Policy.
func (r *RoundRobin) Pick(job Job, nodes []cluster.NodeView) (string, bool) {
	n := len(nodes)
	if n == 0 {
		return "", false
	}
	for i := 0; i < n; i++ {
		v := nodes[(r.next+i)%n]
		if job.eligible(v) {
			r.next = (r.next + i + 1) % n
			return v.Name, true
		}
	}
	return "", false
}
