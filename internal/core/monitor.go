package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"bioopera/internal/obs"
	"bioopera/internal/ocr"
	"bioopera/internal/sim"
)

// MonitorSource adapts an Engine to obs.Source, the interface behind the
// monitor HTTP server (§3.2's GUI, §3.5's administrator queries). It lives
// in core so obs never imports the engine: obs defines the DTOs, core
// fills them.
//
// Every snapshot takes the same locks ordinary engine entry points take
// (shard → dmu) and never holds a shard across Lineage, which acquires the
// shard itself.
type MonitorSource struct {
	e     *Engine
	loads func() map[string]float64
}

// NewMonitorSource wraps an engine for the monitor server.
func NewMonitorSource(e *Engine) *MonitorSource { return &MonitorSource{e: e} }

// SetLoads installs the adaptive-monitor load view shown by /api/cluster
// (e.g. SimRuntime.ReportedLoads). May be nil.
func (s *MonitorSource) SetLoads(fn func() map[string]float64) { s.loads = fn }

// stuckPause is how long the monitor waits before it looks a second time at
// an instance it found stuck.
const stuckPause = 50 * time.Millisecond

// violations is Check for one instance of a live engine. RuleStuck holds only
// at idle, and a completion or a pump in flight looks stuck until its
// goroutine reaches the shard or the dispatcher, so a stuck instance is shown
// only when a second look, stuckPause later, finds it stuck still and no
// write set of it cut in between.
func (s *MonitorSource) violations(in *Instance) []obs.Violation {
	vs, seq := s.e.checkInstance(in, nil)
	if i := slices.IndexFunc(vs, isStuck); i >= 0 {
		//bioopera:allow walltime the pause paces a monitor request, not the engine; nothing replayable reads it
		time.Sleep(stuckPause)
		if again, cut := s.e.checkInstance(in, nil); cut != seq || !slices.ContainsFunc(again, isStuck) {
			vs = slices.Delete(vs, i, i+1)
		}
	}
	var out []obs.Violation
	for _, v := range vs {
		out = append(out, obs.Violation{Rule: v.Rule, Detail: v.Detail})
	}
	return out
}

func isStuck(v Violation) bool { return v.Rule == RuleStuck }

// secs renders a virtual timestamp as seconds for the JSON API.
func secs(t sim.Time) float64 { return time.Duration(t).Seconds() }

// inflight counts or lists the dispatcher's per-instance running and
// queued activities under dmu. The fields read from refs are either
// immutable after creation (scope ID, task name) or dmu-guarded (node).
func (e *Engine) inflight() (running, queued map[string][]obs.ActivityInfo) {
	running = make(map[string][]obs.ActivityInfo)
	queued = make(map[string][]obs.ActivityInfo)
	e.dmu.Lock()
	for _, ref := range e.running {
		running[ref.inst.ID] = append(running[ref.inst.ID], obs.ActivityInfo{
			Scope: ref.sc.ID, Task: ref.ts.Name, Status: "running", Node: ref.node,
		})
	}
	for _, ref := range e.queued {
		queued[ref.inst.ID] = append(queued[ref.inst.ID], obs.ActivityInfo{
			Scope: ref.sc.ID, Task: ref.ts.Name, Status: "queued",
		})
	}
	e.dmu.Unlock()
	for _, m := range []map[string][]obs.ActivityInfo{running, queued} {
		//bioopera:allow maprange sorting each value slice is order-independent
		for _, list := range m {
			sort.Slice(list, func(i, j int) bool {
				if list[i].Scope != list[j].Scope {
					return list[i].Scope < list[j].Scope
				}
				return list[i].Task < list[j].Task
			})
		}
	}
	return running, queued
}

// summary builds one listing row. Caller holds the instance's shard.
func summarize(in *Instance, running, queued int) obs.InstanceSummary {
	s := obs.InstanceSummary{
		ID:         in.ID,
		Template:   in.Template,
		Status:     in.Status.String(),
		Priority:   in.Priority,
		Progress:   in.Progress(),
		Running:    running,
		Queued:     queued,
		Activities: in.Activities,
		Failures:   in.Failures,
		Retries:    in.Retries,
		CPUSeconds: in.CPU.Seconds(),
		StartedSec: secs(in.Started),
		Failure:    in.FailureReason,
	}
	if in.Status == InstanceDone || in.Status == InstanceFailed {
		s.EndedSec = secs(in.Ended)
	}
	return s
}

// Instances implements obs.Source: one row per instance, creation order.
func (s *MonitorSource) Instances() []obs.InstanceSummary {
	running, queued := s.e.inflight()
	ins := s.e.Instances()
	out := make([]obs.InstanceSummary, 0, len(ins))
	for _, in := range ins {
		mu := s.e.shardFor(in.ID)
		mu.Lock()
		out = append(out, summarize(in, len(running[in.ID]), len(queued[in.ID])))
		mu.Unlock()
	}
	return out
}

// namedValues renders a value map as a sorted []NamedValue.
func namedValues(m map[string]ocr.Value) []obs.NamedValue {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]obs.NamedValue, 0, len(keys))
	for _, k := range keys {
		out = append(out, obs.NamedValue{Name: k, Value: m[k].String()})
	}
	return out
}

// Instance implements obs.Source: the full drill-down view of one
// instance — scope whiteboards, task states, in-flight activities, and the
// provenance graph.
func (s *MonitorSource) Instance(id string) (*obs.InstanceDetail, error) {
	in, ok := s.e.lookup(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownInstance, id)
	}
	// Lineage takes the shard lock itself, so fetch it before entering
	// our own critical section (the shard mutex is not reentrant).
	lg, err := s.e.Lineage(id)
	if err != nil {
		return nil, err
	}
	running, queued := s.e.inflight()
	// It takes the shard itself.
	violations := s.violations(in)

	mu := s.e.shardFor(id)
	mu.Lock()
	det := &obs.InstanceDetail{
		InstanceSummary: summarize(in, len(running[id]), len(queued[id])),
		Outputs:         namedValues(in.Outputs),
		RunningTasks:    running[id],
		QueuedTasks:     queued[id],
		Violations:      violations,
	}
	scopeIDs := make([]string, 0, len(in.scopes))
	for sid := range in.scopes {
		scopeIDs = append(scopeIDs, sid)
	}
	sort.Strings(scopeIDs)
	for _, sid := range scopeIDs {
		sc := in.scopes[sid]
		if sc.defunct {
			continue
		}
		info := obs.ScopeInfo{
			ID:     sc.ID,
			Proc:   sc.Proc.Name,
			Done:   sc.Done,
			Values: namedValues(sc.view()),
		}
		// Declaration order keeps the task list stable across snapshots.
		for i := range sc.tasks {
			ts := &sc.tasks[i]
			if ts.Status == TaskInactive {
				continue
			}
			info.Tasks = append(info.Tasks, obs.ActivityInfo{
				Scope:    sc.ID,
				Task:     ts.Name,
				Status:   ts.Status.String(),
				Node:     ts.Node,
				Attempts: ts.Attempts,
				Seconds:  ts.CPUTime.Seconds(),
			})
		}
		det.Scopes = append(det.Scopes, info)
	}
	mu.Unlock()

	items := make([]string, 0, len(lg.Items))
	for item := range lg.Items {
		items = append(items, item)
	}
	sort.Strings(items)
	for _, item := range items {
		n := lg.Items[item]
		consumers := append([]string(nil), n.Consumers...)
		sort.Strings(consumers)
		det.Lineage = append(det.Lineage, obs.LineageItem{
			Item: n.Item, Producer: n.Producer, Consumers: consumers,
		})
	}
	tasks := make([]string, 0, len(lg.Programs))
	for t := range lg.Programs {
		tasks = append(tasks, t)
	}
	sort.Strings(tasks)
	for _, t := range tasks {
		det.Programs = append(det.Programs, obs.NamedValue{Name: t, Value: lg.Programs[t]})
	}
	return det, nil
}

// Cluster implements obs.Source: the executor's placement view plus the
// dispatcher's depth.
func (s *MonitorSource) Cluster() obs.ClusterInfo {
	info := obs.ClusterInfo{
		RunningJobs: s.e.RunningJobs(),
		QueueDepth:  s.e.QueueLen(),
		HeldJobs:    s.e.HeldJobs(),
	}
	for _, v := range s.e.opts.Executor.AppendNodes(nil) {
		info.Nodes = append(info.Nodes, obs.NodeInfo{
			Name: v.Name, OS: v.OS, Up: v.Up, CPUs: v.CPUs,
			Speed: v.Speed, Running: v.Running, ExtLoad: v.ExtLoad,
		})
		if v.Up {
			info.TotalCPUs += v.CPUs
		}
		info.BusySlots += v.Running
	}
	if s.loads != nil {
		if loads := s.loads(); len(loads) > 0 {
			info.Loads = loads
		}
	}
	return info
}

// WhatIf implements obs.Source: the §3.5 outage query, converted to wire
// form.
func (s *MonitorSource) WhatIf(nodes []string) obs.OutageReport {
	impact := s.e.WhatIf(nodes)
	rep := obs.OutageReport{
		Nodes:         impact.Nodes,
		RemainingCPUs: impact.RemainingCPUs,
	}
	conv := func(js []JobImpact) []obs.JobInfo {
		out := make([]obs.JobInfo, 0, len(js))
		for _, j := range js {
			out = append(out, obs.JobInfo{
				Job: j.Job, Instance: j.Instance, Scope: j.Scope,
				Task: j.Task, Node: j.Node, State: j.Progress,
			})
		}
		return out
	}
	rep.Jobs = conv(impact.Jobs)
	rep.Stranded = conv(impact.Stranded)
	for _, id := range impact.Instances {
		rep.Instances = append(rep.Instances, obs.InstanceImpact{
			ID:       id,
			Progress: impact.Progress[id],
			Priority: impact.Priority[id],
		})
	}
	return rep
}
