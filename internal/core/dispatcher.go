package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"bioopera/internal/cluster"
	"bioopera/internal/sched"
)

// This file is the dispatcher (§3.2): it takes activities from the
// activity queue, asks the scheduling policy for a node, and launches them
// through the cluster's program execution clients. Completions flow back
// through HandleCompletion, which also implements the recovery semantics
// for node failures.

// Pump dispatches as many queued activities as the cluster can take.
// Drivers call it after anything that may have freed capacity. It is safe
// for concurrent callers: each pops jobs from the queue under dmu and
// dispatches them in parallel — dispatch re-validates every job under its
// instance's shard, so concurrent drains never double-start a job. (The
// sim driver is single-threaded, so sim dispatch order stays
// deterministic.)
func (e *Engine) Pump() {
	if e.paused.Load() {
		return
	}
	e.drain()
}

// drain pops dispatchable jobs until the queue or the cluster is
// exhausted. The scheduler owns ordering (priority, tenant fair share)
// and placement, and never offers a suspended instance's jobs: their group
// is held (Suspend, recovery) until Resume releases it. The engine only
// executes the decisions. A cluster view is taken — into the engine's one
// buffer, under dmu — only when a job is ready to be decided on.
func (e *Engine) drain() {
	e.reapUnplaceable()
	for {
		e.dmu.Lock()
		if e.sched.Len() == e.sched.Held() {
			e.dmu.Unlock()
			return
		}
		e.view = e.opts.Executor.AppendNodes(e.view[:0])
		t0 := e.now()
		job, node, ok := e.sched.Next(e.view, nil)
		e.metrics.decision(e.now().Sub(t0))
		if !ok {
			e.dmu.Unlock()
			return
		}
		ref := e.queued[job.ID]
		delete(e.queued, job.ID)
		e.dmu.Unlock()
		if !e.dispatch(job, node, ref) {
			return
		}
	}
}

// reapUnplaceable removes jobs the scheduler reports as permanently
// unplaceable — every node their Nodes list names is down or unknown —
// and fails their tasks with an EvTaskUnplaceable event instead of
// letting them queue silently forever. Only a job pinned to named nodes can
// be one, so the cluster view is taken only when the queue holds such a job.
func (e *Engine) reapUnplaceable() {
	e.dmu.Lock()
	if e.sched.Pinned() == 0 {
		e.dmu.Unlock()
		return
	}
	e.view = e.opts.Executor.AppendNodes(e.view[:0])
	dead := e.sched.TakeUnplaceable(e.view)
	refs := make([]*queuedRef, len(dead))
	for i, job := range dead {
		refs[i] = e.queued[job.ID]
		delete(e.queued, job.ID)
	}
	e.dmu.Unlock()
	for i, job := range dead {
		e.failUnplaceable(job, refs[i])
	}
}

// failUnplaceable fails one permanently unplaceable task, re-validating
// under the instance's shard exactly like dispatch. An instance suspended
// since the take gets the job back (into its held group) — unplaceability
// is judged against live cluster state, and a suspended instance is not
// asking to run.
func (e *Engine) failUnplaceable(job sched.Job, ref *queuedRef) {
	if ref == nil {
		return
	}
	in, sc, ts := ref.inst, ref.sc, ref.ts
	mu := e.shardFor(in.ID)
	mu.Lock()
	defer e.endTurn(in, mu)
	if cur, live := e.lookup(in.ID); !live || cur != in {
		return
	}
	e.beginTurn(in)
	if sc.defunct || ts.Status != TaskReady || ts.Job != job.ID {
		return
	}
	if in.Status != InstanceRunning {
		if in.Status == InstanceSuspended {
			e.putBack(job, ref)
		}
		return
	}
	t := sc.Proc.Task(ts.Name)
	e.emit(in, Event{Kind: EvTaskUnplaceable, Instance: in.ID, Scope: sc.ID, Task: ts.Name,
		Detail: fmt.Sprintf("required nodes %v are all down or unknown", job.Nodes)})
	e.failTask(in, sc, t, ts, fmt.Errorf("required nodes %v are all down or unknown", job.Nodes))
}

// putBack returns a job the dispatcher popped to the activity queue. The
// caller holds the instance's shard: put back after the turn, a Resume in
// between would release the group and pump against a queue that does not
// hold the job yet, and nothing would pump again.
func (e *Engine) putBack(job sched.Job, ref *queuedRef) {
	e.dmu.Lock()
	delete(e.running, job.ID)
	ref.node = ""
	e.sched.Enqueue(job)
	e.queued[job.ID] = ref
	e.dmu.Unlock()
}

// dispatch starts one popped job on its chosen node. It returns false when
// the drain loop should stop (cluster capacity changed under us).
func (e *Engine) dispatch(job sched.Job, node string, ref *queuedRef) bool {
	in, sc, ts := ref.inst, ref.sc, ref.ts
	mu := e.shardFor(in.ID)
	mu.Lock()
	defer e.endTurn(in, mu)
	if cur, live := e.lookup(in.ID); !live || cur != in {
		// Crash wiped (or recovery rebuilt) the instance since the pop;
		// the popped job died with its incarnation.
		return true
	}
	e.beginTurn(in)
	// Re-validate under the shard: since the pop, the instance may have
	// been suspended or aborted, the scope torn down by a sphere abort,
	// or the task superseded by a newer attempt.
	if sc.defunct || ts.Status != TaskReady || ts.Job != job.ID {
		return true
	}
	if in.Status != InstanceRunning {
		if in.Status == InstanceSuspended {
			// Suspended after the pop: back into its (now held) group
			// for Resume.
			e.putBack(job, ref)
		}
		return true
	}
	// Reserve the running slot before Launch: the local executor can
	// deliver the completion from its worker goroutine before Launch even
	// returns.
	e.dmu.Lock()
	ref.node = node
	e.running[job.ID] = ref
	e.dmu.Unlock()
	t := sc.Proc.Task(ts.Name)
	l := Launch{
		Job:     cluster.JobID(job.ID),
		Node:    node,
		Cost:    job.Cost,
		Nice:    in.Nice,
		Program: t.Program,
		Inputs:  ts.Inputs,
		Ctx: ProgramCtx{
			Instance: in.ID,
			Task:     ts.Name,
			Attempt:  ts.Attempts,
			Node:     node,
		},
	}
	if t.Timeout > 0 {
		l.Timeout = time.Duration(t.Timeout * float64(time.Second))
	}
	// Under the shard: reserve-then-launch must be atomic per job, and
	// Executor.Launch does not block by contract (a goroutine spawn locally,
	// one queued frame remotely).
	if err := e.opts.Executor.Launch(l); err != nil {
		// Capacity changed under us; requeue and stop draining. If a
		// concurrent drain took the slot, pump again after the turn: the
		// winner's completion may have pumped while this job was in neither
		// the queue nor a slot, and on a quiet engine nothing else will.
		e.putBack(job, ref)
		in.pendingPump = errors.Is(err, cluster.ErrNoFreeCPU)
		return false
	}
	ts.Status = TaskRunning
	ts.Node = node
	ts.StartedAt = e.now()
	e.touchTask(in, sc, ts)
	e.emit(in, Event{Kind: EvTaskDispatched, Instance: in.ID, Scope: sc.ID,
		Task: ts.Name, Node: node})
	e.persist(in)
	if l.Timeout > 0 {
		e.armTimeout(job.ID, l.Timeout)
	}
	return true
}

// armTimeout starts the TIMEOUT clock for a job just launched. The cancel
// hook lands in the running ref under dmu; if the completion already beat
// us there the timer is cancelled on the spot.
func (e *Engine) armTimeout(jobID string, d time.Duration) {
	cancel := e.opts.After(d, func() { e.timeoutJob(jobID) })
	e.dmu.Lock()
	if ref, ok := e.running[jobID]; ok {
		ref.cancelTimeout = cancel
		cancel = nil
	}
	e.dmu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// timeoutJob fires when a running attempt exceeds its TIMEOUT: the job is
// killed, and the resulting ErrJobKilled completion requeues the activity
// through the normal infrastructure-failure path — a hung activity fails
// over exactly like one on a crashed node, without consuming a retry.
func (e *Engine) timeoutJob(jobID string) {
	e.dmu.Lock()
	ref, ok := e.running[jobID]
	var node string
	if ok {
		node = ref.node
		ref.cancelTimeout = nil
	}
	e.dmu.Unlock()
	if !ok {
		return // completed (or was killed) first
	}
	e.emitNow(Event{Kind: EvTaskTimeout, Instance: ref.inst.ID, Scope: ref.sc.ID,
		Task: ref.ts.Name, Node: node, Detail: "attempt exceeded TIMEOUT"})
	e.opts.Executor.Kill(cluster.JobID(jobID), node)
}

// HandleCompletion receives a job outcome from the cluster. Infrastructure
// failures (node crash, kill) requeue the activity without consuming
// retries — checkpointing is at activity granularity, so only the failed
// activity's work is lost (§3.3). Program successes run the external
// binding to produce outputs. Safe for concurrent callers; completions of
// the same instance serialize on its shard.
func (e *Engine) HandleCompletion(c cluster.Completion) {
	e.dmu.Lock()
	ref, ok := e.running[string(c.Job)]
	var cancelTimeout func()
	if ok {
		delete(e.running, string(c.Job))
		ref.node = ""
		cancelTimeout = ref.cancelTimeout
		ref.cancelTimeout = nil
	}
	e.dmu.Unlock()
	if cancelTimeout != nil {
		cancelTimeout()
	}
	if !ok {
		// Stale completion from before a server crash: the result is
		// discarded (the activity was already requeued), but the CPU
		// slot it occupied is now free.
		e.Pump()
		return
	}
	in, sc, ts := ref.inst, ref.sc, ref.ts
	mu := e.shardFor(in.ID)
	mu.Lock()
	defer e.endTurn(in, mu)
	if cur, live := e.lookup(in.ID); !live || cur != in {
		// The engine crashed (or recovery rebuilt the instance) between
		// the running-map pop and this turn: the completion belongs to a
		// previous incarnation and must not navigate it further.
		in.pendingPump = true
		return
	}
	e.beginTurn(in)
	if sc.defunct {
		// The scope was torn down by a sphere abort; the slot is
		// free, the result is void.
		in.pendingPump = true
		return
	}
	t := sc.Proc.Task(ts.Name)
	ts.CPUTime += c.CPUTime
	in.CPU += c.CPUTime
	e.touchTask(in, sc, ts)
	if c.Err == nil && ref.job.Key != "" {
		// Feed the completed activity's actual CPU time back into the
		// scheduler's cost predictor (BioWorkbench-style history). In
		// simulation CPUTime is virtual, so the calibration — and every
		// decision derived from it — stays deterministic.
		e.dmu.Lock()
		e.sched.Observe(ref.job.Key, ref.job.Cost, c.CPUTime)
		e.dmu.Unlock()
	}

	if in.Status == InstanceFailed || in.Status == InstanceDone {
		return
	}

	if c.Err != nil {
		// Infrastructure failure: the PEC reported a crash, or the
		// job was killed (suspend/migration). Requeue unconditionally.
		in.Failures++
		in.Retries++
		ts.Status = TaskReady
		ts.Node = ""
		e.emit(in, Event{Kind: EvTaskRetried, Instance: in.ID, Scope: sc.ID, Task: ts.Name,
			Node: c.Node, Detail: fmt.Sprintf("infrastructure: %v", c.Err)})
		e.requeue(in, sc, t, ts)
		e.persist(in)
		in.pendingPump = true
		return
	}

	// Program outcome: either the executor ran the program on the node
	// (local pool, remote worker) or the engine runs it now (simulated
	// cluster; a local pool whose library lacks the binding, which fails
	// here exactly as it does on the simulator).
	outputs, progErr := c.Outputs, c.ProgramErr
	if outputs == nil && progErr == nil {
		prog, ok := e.opts.Library.Lookup(t.Program)
		if !ok {
			e.failInstance(in, fmt.Sprintf("program %q vanished from the library", t.Program))
			return
		}
		outputs, progErr = prog.Run(ProgramCtx{
			Instance: in.ID,
			Task:     ts.Name,
			Attempt:  ts.Attempts,
			Node:     c.Node,
		}, ts.Inputs)
	}
	in.pendingPump = true
	if progErr != nil {
		e.handleProgramFailure(in, sc, t, ts, progErr)
		return
	}
	in.Activities++
	e.finishTask(in, sc, t, ts, outputs)
}

// liveRunning lists the running jobs of instances that are still running,
// sorted by job ID — what a migration or preemption sweep may kill. Caller
// holds dmu.
func (e *Engine) liveRunning() []sched.Running {
	ids := make([]string, 0, len(e.running))
	for id := range e.running {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]sched.Running, 0, len(ids))
	for _, id := range ids {
		ref := e.running[id]
		if ref.inst.statusNow() != InstanceRunning {
			continue
		}
		out = append(out, sched.Running{
			Job: id, Node: ref.node,
			Priority: ref.job.Priority, Tenant: ref.job.Tenant,
		})
	}
	return out
}

// killStillRunning kills the sweep's victims that have not completed since it
// decided.
func (e *Engine) killStillRunning(kills []sched.Candidate) {
	for _, k := range kills {
		e.dmu.Lock()
		ref := e.running[k.Job]
		e.dmu.Unlock()
		if ref == nil {
			continue
		}
		e.opts.Executor.Kill(cluster.JobID(k.Job), k.Node)
	}
}

// Migrate applies a kill-and-restart migration policy once: running jobs
// on overloaded nodes are killed and go back through the queue, where the
// placement policy sends them to lightly loaded nodes (§5.4's discussed
// strategy). It returns how many jobs were killed.
func (e *Engine) Migrate(p sched.MigrationPolicy) int {
	e.dmu.Lock()
	running := e.liveRunning()
	e.dmu.Unlock()
	cands := make([]sched.Candidate, len(running))
	for i, r := range running {
		cands[i] = sched.Candidate{Job: r.Job, Node: r.Node}
	}
	kills := p.Decide(cands, e.opts.Executor.AppendNodes(nil))
	e.killStillRunning(kills)
	return len(kills)
}

// Preempt applies a preemption sweep once: queued high-priority jobs that
// have starved past the policy's wait, and that no free slot can take,
// reclaim nodes from strictly lower-priority running work. Only ready jobs
// can starve: a suspended instance's held jobs never reach the policy,
// however long they have waited. Victims are
// killed through the executor; their ErrJobKilled completions requeue
// them via the ordinary infrastructure-failure path — checkpointing is at
// activity granularity (§3.3), so each victim loses at most one
// activity's work and consumes no retry. It returns how many jobs were
// killed. Like Migrate, it is driven explicitly (a timer in real
// runtimes, a virtual-time event in simulation), so runs that never call
// it keep their traces byte-identical.
func (e *Engine) Preempt(p sched.Preemptor) int {
	e.dmu.Lock()
	queued := e.sched.Jobs()
	running := e.liveRunning()
	e.dmu.Unlock()
	kills := p.Decide(e.now(), queued, running, e.opts.Executor.AppendNodes(nil))
	e.killStillRunning(kills)
	e.metrics.preempted(len(kills))
	return len(kills)
}

// Crash simulates a BioOpera server crash (§5.4 event 3): all volatile
// state vanishes. The store survives; Recover rebuilds from it. Jobs still
// running on the cluster become orphans whose completions are ignored.
//
// Crash first quiesces the engine by taking every shard (in index order —
// no other path holds two shards), so no navigation turn straddles the
// wipe: a real crash kills the whole server, not half a state transition.
// It must not race Recover, whose phase 3 holds a group's write sets
// uncommitted while it takes the next member's shard.
func (e *Engine) Crash() {
	for i := range e.shards {
		e.shards[i].Lock()
	}
	defer func() {
		for i := range e.shards {
			e.shards[i].Unlock()
		}
	}()
	// With every shard held no new checkpoints can be produced; wait for
	// in-flight flushes to pass their commit gates so no store batch from
	// the old incarnation lands after the wipe. (Flushers never need a
	// shard before their gate advances, so this cannot deadlock.)
	e.emu.RLock()
	ins := make([]*Instance, 0, len(e.instances))
	for _, in := range e.instances {
		ins = append(ins, in)
	}
	e.emu.RUnlock()
	for _, in := range ins {
		in.quiesceCkpts()
	}
	e.emu.Lock()
	e.dmu.Lock()
	e.instances = make(map[string]*Instance)
	e.order = nil
	e.sched.Reset()
	e.queued = make(map[string]*queuedRef)
	e.running = make(map[string]*queuedRef)
	e.dmu.Unlock()
	e.emu.Unlock()
}
