package sched

import "bioopera/internal/cluster"

// MigrationPolicy decides whether a running job should be killed and
// rescheduled elsewhere — the strategy discussed (and deferred) in §5.4:
// "One strategy to solve this problem would be to have BioOpera abort the
// affected TEU and re-schedule it elsewhere... If the non-BioOpera user
// tends to fill all machines, such a strategy will perform worse than if
// BioOpera had simply left the TEU where it was. If however the user tends
// to use only a subset of the processors, the kill and restart strategy
// may help."
type MigrationPolicy struct {
	// LoadThreshold is the external load above which a node's jobs are
	// migration candidates.
	LoadThreshold float64
	// TargetMaxLoad is the maximum external load of an acceptable
	// destination.
	TargetMaxLoad float64
}

// Candidate is a running job and the node it runs on: what the engine
// offers a MigrationPolicy, and what Decide returns to kill.
type Candidate struct {
	Job  string
	Node string
}

// Decide returns the jobs to kill: one per free slot on a lightly loaded
// destination, taken from the most heavily loaded source nodes first.
func (p MigrationPolicy) Decide(running []Candidate, nodes []cluster.NodeView) []Candidate {
	byName := make(map[string]cluster.NodeView, len(nodes))
	freeGood := 0
	for _, v := range nodes {
		byName[v.Name] = v
		if v.Up && v.ExtLoad <= p.TargetMaxLoad {
			freeGood += v.FreeSlots()
		}
	}
	if freeGood == 0 {
		return nil
	}
	var out []Candidate
	for _, c := range running {
		v, ok := byName[c.Node]
		if !ok || !v.Up {
			continue
		}
		if v.ExtLoad >= p.LoadThreshold {
			out = append(out, c)
			if len(out) == freeGood {
				break
			}
		}
	}
	return out
}
