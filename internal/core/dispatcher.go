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
// for concurrent callers: each takes decisions from the scheduler under dmu
// and dispatches them in the decided jobs' own turns — a decision is
// re-validated under its instance's shard, so concurrent drains never
// double-start a job. (The sim driver is single-threaded, so sim dispatch
// order stays deterministic.)
func (e *Engine) Pump() { e.pump(decision{}) }

// decision is one pick of the scheduler: the popped job, the node chosen for
// it and the task attempt it belongs to. From the pick until its job is
// launched or the decision is dropped, the job is in the running index and
// holds its slot (ref.decided). A turn carries at most one to its pump, by
// value.
type decision struct {
	job  string
	node string
	ref  *queuedRef
}

// pendingLaunch is a dispatch a turn recorded, built under the shard and
// launched once the turn's write set has committed (writeSet.launches).
type pendingLaunch struct {
	Launch
	ref *queuedRef
}

// pump dispatches d, if set, and then every decision the scheduler makes,
// each in its instance's turn, until the queue or the cluster is exhausted;
// a paused engine takes no new decision. The scheduler owns ordering
// (priority, tenant fair share) and placement, and never offers a suspended
// instance's jobs: their group is held (Suspend, recovery) until Resume
// releases it. The engine only executes the decisions.
func (e *Engine) pump(d decision) {
	if d.ref == nil && e.paused.Load() {
		return
	}
	e.reapUnplaceable()
	for d = e.drain(nil, d); d.ref != nil; {
		d = e.dispatch(d)
	}
}

// drain is the dispatcher's one decision step: it takes decisions until the
// queue or the cluster is exhausted — under dmu, against a cluster view taken
// into the engine's one buffer only when a job is ready to be decided on, with
// the slots of decided, unlaunched jobs counted as taken. in is the instance
// whose turn is open (its shard held), nil for none: d, then every decision
// that picks in's job, is recorded in that turn, and the first decision for
// another instance ends the step and is returned, to be dispatched in its own
// turn once this one has committed. A turn's own step (d unset) is the pump
// the turn asked for, so it clears in.pendingPump — unless jobs pinned to
// nodes are queued: a pump reaps the unplaceable among them first, and may
// not under a shard, so the step then leaves the pump to after the commit.
func (e *Engine) drain(in *Instance, d decision) decision {
	recorded, turnPump := false, in != nil && d.ref == nil
	for {
		if d.ref == nil {
			e.dmu.Lock()
			if turnPump {
				if e.sched.Pinned() > 0 {
					e.dmu.Unlock()
					return decision{}
				}
				in.pendingPump, turnPump = false, false
			}
			if e.sched.Len() == e.sched.Held() {
				e.dmu.Unlock()
				break
			}
			e.view = e.opts.Executor.AppendNodes(e.view[:0])
			if e.nDecided > 0 {
				for i := range e.view {
					e.view[i].Running += e.decided[e.view[i].Name]
				}
			}
			t0 := e.now()
			job, node, ok := e.sched.Next(e.view, nil)
			e.metrics.decision(e.now().Sub(t0))
			if !ok {
				// A job inside its Launch may be counted twice, by the
				// executor and as decided: its launcher pumps again.
				e.missed = e.missed || e.launching > 0
				e.dmu.Unlock()
				break
			}
			ref := e.queued[job.ID]
			delete(e.queued, job.ID)
			ref.node, ref.decided, ref.killed = node, true, false
			e.decided[node]++
			e.nDecided++
			e.running[job.ID] = ref
			e.dmu.Unlock()
			d = decision{job: job.ID, node: node, ref: ref}
		}
		if in == nil || d.ref.inst != in {
			break
		}
		recorded = e.record(in, d) || recorded
		d = decision{}
	}
	if recorded {
		e.persist(in)
	}
	return d
}

// settle ends a decision's hold on its slot: its job was launched, or never
// will be. Caller holds dmu, and ref is in the running index.
func (e *Engine) settle(ref *queuedRef) {
	if ref.decided {
		ref.decided = false
		e.decided[ref.node]--
		e.nDecided--
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
			e.putBack(ref)
		}
		return
	}
	t := sc.Proc.Task(ts.Name)
	e.emit(in, Event{Kind: EvTaskUnplaceable, Instance: in.ID, Scope: sc.ID, Task: ts.Name,
		Detail: fmt.Sprintf("required nodes %v are all down or unknown", job.Nodes)})
	e.failTask(in, sc, t, ts, fmt.Errorf("required nodes %v are all down or unknown", job.Nodes))
}

// putBack returns a job the dispatcher took to the activity queue, and its
// slot, if it held one, to the cluster. The caller holds the instance's
// shard: put back after the turn, a Resume in between would release the
// group and pump against a queue that does not hold the job yet, and nothing
// would pump again.
func (e *Engine) putBack(ref *queuedRef) {
	e.dmu.Lock()
	e.unrun(ref)
	e.sched.Enqueue(ref.job)
	e.queued[ref.job.ID] = ref
	e.dmu.Unlock()
}

// unrun takes a job the dispatcher took out of the running index, releasing
// the slot its decision held. Caller holds dmu.
func (e *Engine) unrun(ref *queuedRef) {
	if e.running[ref.job.ID] == ref {
		e.settle(ref)
		delete(e.running, ref.job.ID)
	}
	ref.node = ""
}

// dispatch dispatches one decision in its instance's turn: the dispatch and
// every further decision for the same instance are recorded there, and the
// first decision for another instance is returned for the next turn.
func (e *Engine) dispatch(d decision) decision {
	in := d.ref.inst
	mu := e.shardFor(in.ID)
	mu.Lock()
	defer e.endTurn(in, mu)
	return e.dispatchTurn(in, d)
}

// join is dispatch for a turn that ends into g (groupDispatches), if it can
// without waiting: when the instance's shard is taken, or a write set of the
// instance is still in flight, join does nothing and reports that d did not
// join.
func (e *Engine) join(d decision, g *turnGroup) (next decision, joined bool) {
	in := d.ref.inst
	mu := e.shardFor(in.ID)
	if !mu.TryLock() {
		return d, false
	}
	defer e.endTurn(in, mu)
	if !in.gateClear() {
		return d, false
	}
	in.group = g
	return e.dispatchTurn(in, d), true
}

// dispatchTurn is the turn of dispatch and join. Caller holds in's shard.
func (e *Engine) dispatchTurn(in *Instance, d decision) decision {
	if cur, live := e.lookup(in.ID); !live || cur != in {
		// Crash wiped (or recovery rebuilt) the instance since the pick;
		// the picked job, and its slot, died with its incarnation.
		return e.drain(nil, decision{})
	}
	e.beginTurn(in)
	return e.drain(in, d)
}

// record is the dispatch body: it re-validates a decision under its
// instance's shard, then records the dispatch in the turn — the task's
// running record and its task-dispatched event join the turn's write set,
// and the launch waits there until the write set has committed (launch). It
// reports whether it recorded; a decision that no longer holds gives back its
// slot, and its job to the queue if the instance is suspended.
func (e *Engine) record(in *Instance, d decision) bool {
	ref, sc, ts := d.ref, d.ref.sc, d.ref.ts
	// Since the pick, the instance may have been suspended or aborted, the
	// scope torn down by a sphere abort, or the task superseded by a newer
	// attempt.
	stale := sc.defunct || ts.Status != TaskReady || ts.Job != d.job
	if !stale && in.Status == InstanceSuspended {
		// Suspended after the pick: back into its (now held) group for
		// Resume.
		e.putBack(ref)
		return false
	}
	if stale || in.Status != InstanceRunning {
		e.dmu.Lock()
		e.unrun(ref)
		e.dmu.Unlock()
		return false
	}
	t := sc.Proc.Task(ts.Name)
	ts.Status = TaskRunning
	ts.Node = d.node
	ts.StartedAt = e.now()
	e.touchTask(in, sc, ts)
	e.emit(in, Event{Kind: EvTaskDispatched, Instance: in.ID, Scope: sc.ID,
		Task: ts.Name, Node: d.node})
	ws := in.turnWrites()
	ws.launches = append(ws.launches, pendingLaunch{ref: ref, Launch: Launch{
		Job:     cluster.JobID(d.job),
		Node:    d.node,
		Cost:    ref.job.Cost,
		Nice:    in.Nice,
		Timeout: time.Duration(t.Timeout * float64(time.Second)),
		Program: t.Program,
		Inputs:  ts.Inputs,
		Ctx: ProgramCtx{
			Instance: in.ID,
			Task:     ts.Name,
			Attempt:  ts.Attempts,
			Node:     d.node,
		},
	}})
	return true
}

// launch starts the jobs a turn recorded, in decision order, once its write
// set has committed: no job runs before its dispatch record is durable. A
// failed batch launches too — its records are re-marked and ride the
// instance's next commit, as every failed turn's do — and a fenced one
// launches nothing: the instance is another server's now. Each job holds its
// slot until its Launch has returned, so a concurrent drain cannot hand the
// slot out in between. A job killed before its launch (Suspend, Abort, a
// sweep) is not launched: it completes as killed, as a running job would.
// One a Crash took with its incarnation is neither. launch reports whether a
// decision found no slot while a Launch was in flight: the caller pumps
// again.
func (e *Engine) launch(ps []pendingLaunch, fenced bool) (again bool) {
	for i := range ps {
		p := &ps[i]
		id := string(p.Job)
		e.dmu.Lock()
		ours := e.running[id] == p.ref
		killed := ours && !fenced && p.ref.killed
		switch {
		case !ours:
		case fenced:
			e.unrun(p.ref)
		case killed:
			e.settle(p.ref)
		default:
			e.launching++
		}
		e.dmu.Unlock()
		if killed {
			e.HandleCompletion(cluster.Completion{Job: p.Job, Node: p.Node, Err: cluster.ErrJobKilled})
		}
		if !ours || fenced || killed {
			continue
		}
		err := e.opts.Executor.Launch(p.Launch)
		e.dmu.Lock()
		e.launching--
		if ours = e.running[id] == p.ref; ours {
			killed = p.ref.killed
			e.settle(p.ref)
		}
		again = again || e.missed
		e.missed = false
		e.dmu.Unlock()
		switch {
		case err != nil:
			e.unlaunch(p.ref, id, err)
		case killed:
			e.opts.Executor.Kill(p.Job, p.Node)
		case p.Timeout > 0:
			e.armTimeout(id, p.Timeout)
		}
	}
	return again
}

// unlaunch undoes a dispatch whose Launch failed: the task is ready again,
// its job back in the queue, in a turn of its own. If a concurrent drain
// took the slot (a remote worker's view can lag), the turn pumps again: the
// winner's completion may have pumped while this job was in neither the
// queue nor a slot, and on a quiet engine nothing else will.
func (e *Engine) unlaunch(ref *queuedRef, id string, err error) {
	in, sc, ts := ref.inst, ref.sc, ref.ts
	mu := e.shardFor(in.ID)
	mu.Lock()
	defer e.endTurn(in, mu)
	e.dmu.Lock()
	ours := e.running[id] == ref
	if ours && (sc.defunct || in.Status == InstanceDone || in.Status == InstanceFailed) {
		// Torn down meanwhile: nothing to run, nothing to record.
		e.unrun(ref)
		ours = false
	}
	e.dmu.Unlock()
	if !ours {
		return
	}
	e.beginTurn(in)
	ts.Status = TaskReady
	ts.Node = ""
	e.touchTask(in, sc, ts)
	e.putBack(ref)
	e.persist(in)
	in.pendingPump = errors.Is(err, cluster.ErrNoFreeCPU)
}

// kill stops a running job. A job decided but not yet launched is not the
// executor's to kill: it is marked, and its launch completes it as killed
// instead of launching it — or kills it the moment its Launch returns.
func (e *Engine) kill(job, node string) {
	e.dmu.Lock()
	ref := e.running[job]
	pending := ref != nil && ref.decided
	if pending {
		ref.killed = true
	}
	e.dmu.Unlock()
	if !pending {
		e.opts.Executor.Kill(cluster.JobID(job), node)
	}
}

// armTimeout starts the TIMEOUT clock for a job just launched. The stop
// hook lands in the running ref under dmu; if the completion already beat
// us there the timer is stopped on the spot.
func (e *Engine) armTimeout(jobID string, d time.Duration) {
	stop := e.opts.Clock.AtFunc(e.now().Add(d), func() { e.timeoutJob(jobID) }).Stop
	e.dmu.Lock()
	if ref, ok := e.running[jobID]; ok {
		ref.stopTimeout = stop
		stop = nil
	}
	e.dmu.Unlock()
	if stop != nil {
		stop()
	}
}

// timeoutJob fires when a running attempt exceeds its TIMEOUT: the job is
// killed, and the resulting ErrJobKilled completion requeues the activity
// through the normal infrastructure-failure path — a hung activity fails
// over exactly like one on a crashed node, without consuming a retry. The
// task-timeout record rides the batch of the completion turn the kill brings.
func (e *Engine) timeoutJob(jobID string) {
	e.dmu.Lock()
	ref, ok := e.running[jobID]
	var node string
	if ok {
		node = ref.node
		ref.stopTimeout = nil
	}
	e.dmu.Unlock()
	if !ok {
		return // completed (or was killed) first
	}
	e.emitDeferred(Event{Kind: EvTaskTimeout, Instance: ref.inst.ID, Scope: ref.sc.ID,
		Task: ref.ts.Name, Node: node, Detail: "attempt exceeded TIMEOUT"})
	e.kill(jobID, node)
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
	var stopTimeout func() bool
	if ok {
		e.unrun(ref)
		stopTimeout = ref.stopTimeout
		ref.stopTimeout = nil
	}
	e.dmu.Unlock()
	if stopTimeout != nil {
		stopTimeout()
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
		// Requeued first, as enqueueActivity does: an observer that sees
		// task-retried finds the attempt in the queue.
		e.requeue(in, sc, t, ts)
		e.emit(in, Event{Kind: EvTaskRetried, Instance: in.ID, Scope: sc.ID, Task: ts.Name,
			Node: c.Node, Detail: fmt.Sprintf("infrastructure: %v", c.Err)})
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
// sorted by job ID — what a migration sweep may kill. Caller holds dmu.
func (e *Engine) liveRunning() []sched.Candidate {
	ids := make([]string, 0, len(e.running))
	for id := range e.running {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]sched.Candidate, 0, len(ids))
	for _, id := range ids {
		ref := e.running[id]
		if ref.inst.statusNow() != InstanceRunning {
			continue
		}
		out = append(out, sched.Candidate{Job: id, Node: ref.node})
	}
	return out
}

// Migrate applies a kill-and-restart migration policy once: running jobs
// on overloaded nodes are killed and go back through the queue, where the
// placement policy sends them to lightly loaded nodes (§5.4's discussed
// strategy). It returns how many jobs were killed.
func (e *Engine) Migrate(p sched.MigrationPolicy) int {
	e.dmu.Lock()
	running := e.liveRunning()
	e.dmu.Unlock()
	kills := p.Decide(running, e.opts.Executor.AppendNodes(nil))
	for _, k := range kills {
		// A victim that completed since the policy decided is left alone.
		e.dmu.Lock()
		ref := e.running[k.Job]
		e.dmu.Unlock()
		if ref != nil {
			e.kill(k.Job, k.Node)
		}
	}
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
	// Last, once the shards are released (no store call runs under one):
	// the deferred journal records commit too, since the turns that would
	// have carried them die with this incarnation.
	defer e.flushDeferred()
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
	clear(e.decided)
	e.nDecided = 0
	e.dmu.Unlock()
	e.emu.Unlock()
}
