// Package sched is the scheduling subsystem of the BioOpera server. It
// grew out of the dispatcher's placement helpers (§3.2: "If the choice of
// assignment is not unique, the node is determined by the scheduling and
// load balancing policy in use") into three cooperating concerns:
//
//   - Queue    priority + per-tenant fair-share ordering with quotas
//   - Policy   node placement (first-fit, least-loaded, fastest, round-robin)
//   - Predictor cost-model calibration from completed-activity durations
//
// Scheduler composes them behind one facade the core dispatcher drives.
// Everything here is deterministic: no wall-clock reads, no map-order
// dependent decisions — the package is part of biooperalint's
// replay-identical set.
package sched

import (
	"time"

	"bioopera/internal/cluster"
)

// Job is the scheduler's view of an activity awaiting placement.
type Job struct {
	// ID identifies the activity instance.
	ID string
	// Group names the set of jobs that Hold, Release and RemoveGroup act on
	// together; the engine uses the process instance ID.
	Group string
	// Cost is the estimated reference-CPU time (0 = unknown). For the
	// simulated cluster this doubles as the work actually charged, so the
	// Predictor refines estimates for accounting without touching Cost.
	Cost time.Duration
	// Priority orders the activity queue (higher first).
	Priority int
	// OS restricts placement to nodes running the given OS ("" = any).
	// This models the library element's per-activity runtime
	// requirements (§3.2).
	OS string
	// Nodes restricts placement to the named nodes (nil = any); used
	// for dedicated-node setups like §5.4's "the slower ik-sun cluster
	// was responsible for the refinement stages".
	Nodes []string
	// Tenant is the fair-share accounting bucket the job's usage charges
	// to ("" = the default tenant).
	Tenant string
	// Key identifies the job's program for the Predictor's per-program
	// execution history ("" disables estimation).
	Key string
}

// matches reports whether a node satisfies the job's static placement
// constraints (OS and node affinity), ignoring liveness and capacity.
func (j Job) matches(v cluster.NodeView) bool {
	if j.OS != "" && v.OS != j.OS {
		return false
	}
	if len(j.Nodes) > 0 {
		found := false
		for _, n := range j.Nodes {
			if n == v.Name {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// eligible reports whether a node can accept the job right now.
func (j Job) eligible(v cluster.NodeView) bool {
	if !v.Up || v.FreeSlots() <= 0 {
		return false
	}
	return j.matches(v)
}

// Placeable reports whether some node can accept the job right now.
func (j Job) Placeable(nodes []cluster.NodeView) bool {
	for _, v := range nodes {
		if j.eligible(v) {
			return true
		}
	}
	return false
}

// Unplaceable reports whether the job can never be placed on the given
// cluster view: it names specific nodes and every one of them is down or
// unknown. Such a job must not queue silently forever — the engine surfaces
// it as a task failure. A job without node affinity is never Unplaceable
// (capacity and matching OSes can still appear), and a named node that is
// merely full keeps the job placeable-later.
func (j Job) Unplaceable(nodes []cluster.NodeView) bool {
	if len(j.Nodes) == 0 {
		return false
	}
	for _, want := range j.Nodes {
		for _, v := range nodes {
			if v.Name == want && v.Up {
				return false
			}
		}
	}
	return true
}
