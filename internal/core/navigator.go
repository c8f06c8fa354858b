package core

import (
	"fmt"
	"strconv"
	"time"

	"bioopera/internal/ocr"
	"bioopera/internal/sched"
)

// This file is the navigator (§3.2): it interprets the process graph,
// evaluates activation conditions, performs whiteboard data mapping,
// expands parallel tasks at runtime and late-binds subprocesses.

// activateRoots activates every task with no incoming connectors (except
// failure alternatives, which only run when invoked).
func (e *Engine) activateRoots(in *Instance, sc *scope) {
	for _, t := range sc.Proc.roots {
		e.activateTask(in, sc, t)
	}
}

// activateTask moves a task from inactive to ready/running.
func (e *Engine) activateTask(in *Instance, sc *scope, t *ocr.Task) {
	ts := sc.task(t.Name)
	if ts.Status != TaskInactive {
		return
	}
	// Evaluate argument bindings once; retries reuse them.
	env := scopeEnv{sc}
	args := make(map[string]ocr.Value, len(t.Args))
	for _, b := range t.Args {
		v, err := b.Expr.Eval(env)
		if err != nil {
			e.failInstance(in, fmt.Sprintf("evaluating argument %s of task %s: %v", b.Name, t.Name, err))
			return
		}
		args[b.Name] = v
	}
	ts.Inputs = args
	ts.ReadyAt = e.now()
	e.touchTask(in, sc, ts)

	switch t.Kind {
	case ocr.KindActivity:
		if t.Await != "" {
			e.awaitEvent(in, sc, t, ts)
			return
		}
		e.enqueueActivity(in, sc, t, ts)
	case ocr.KindBlock:
		ts.Status = TaskRunning
		e.spawnBlock(in, sc, t, ts)
	case ocr.KindSubprocess:
		ts.Status = TaskRunning
		e.spawnSubprocess(in, sc, t, ts)
	}
}

// jobID builds the queue/cluster identifier of one dispatch attempt.
func jobID(in *Instance, sc *scope, task string, attempt int) string {
	return in.ID + "|" + sc.ID + "|" + task + "|" + strconv.Itoa(attempt)
}

// newJob builds the scheduler's view of a task's current dispatch attempt.
// The instance ID is the job's group: what Suspend holds, Resume releases
// and a failing instance removes. prog may be nil (binding vanished from the
// library, see requeue).
func (e *Engine) newJob(in *Instance, sc *scope, t *ocr.Task, ts *taskState, prog *Program) sched.Job {
	job := sched.Job{
		ID:       jobID(in, sc, t.Name, ts.Attempts),
		Group:    in.ID,
		Cost:     DefaultActivityCost,
		Priority: in.Priority + t.Priority,
		Tenant:   in.Tenant,
		Key:      t.Program,
	}
	switch {
	case prog != nil && prog.Cost != nil:
		job.Cost = prog.Cost(ts.Inputs)
	case t.Cost > 0:
		job.Cost = time.Duration(t.Cost * float64(time.Second))
	}
	if prog != nil {
		job.OS, job.Nodes = prog.OS, prog.Nodes
	}
	return job
}

// enqueueActivity places a newly activated activity in the activity queue.
func (e *Engine) enqueueActivity(in *Instance, sc *scope, t *ocr.Task, ts *taskState) {
	prog, ok := e.opts.Library.Lookup(t.Program)
	if !ok {
		e.failInstance(in, fmt.Sprintf("task %s calls unregistered program %q", t.Name, t.Program))
		return
	}
	ts.Status = TaskReady
	e.enqueue(in, sc, t, ts, prog)
	e.emit(in, Event{Kind: EvTaskReady, Instance: in.ID, Scope: sc.ID, Task: t.Name})
}

// enqueue is the one way a task's dispatch attempt is made: it builds the job,
// names it in the task, and — under dmu — writes the task's attempt, queues
// the job and indexes the attempt by job ID. The task record is dirtied only if
// that changes it: a ready task requeued on recovery gets back the job ID its
// record names. Caller holds the instance's shard.
func (e *Engine) enqueue(in *Instance, sc *scope, t *ocr.Task, ts *taskState, prog *Program) {
	job := e.newJob(in, sc, t, ts, prog)
	if ts.Job != job.ID || ts.Node != "" {
		ts.Job, ts.Node = job.ID, ""
		e.touchTask(in, sc, ts)
	}
	e.dmu.Lock()
	ts.attempt = queuedRef{inst: in, sc: sc, ts: ts, job: job}
	e.sched.Enqueue(job)
	e.queued[job.ID] = &ts.attempt
	e.dmu.Unlock()
}

// spawnBlock creates the child scope(s) of a block task.
func (e *Engine) spawnBlock(in *Instance, sc *scope, t *ocr.Task, ts *taskState) {
	body := sc.Proc.index[t.Name].body
	if !t.Parallel {
		child := e.newScope(in, sc, t.Name, -1, body)
		ts.ChildWaiting = 1
		e.touchTask(in, sc, ts)
		e.startScope(in, child)
		return
	}
	over, err := t.Over.Eval(scopeEnv{sc})
	if err != nil {
		e.failInstance(in, fmt.Sprintf("evaluating OVER of block %s: %v", t.Name, err))
		return
	}
	if over.Kind() != ocr.KindList {
		e.failInstance(in, fmt.Sprintf("OVER of block %s is %s, want list", t.Name, over.Kind()))
		return
	}
	n := over.Len()
	if n == 0 {
		// Degenerate parallel task: complete with an empty result
		// list.
		e.finishTask(in, sc, t, ts, map[string]ocr.Value{"results": ocr.List()})
		return
	}
	ts.ChildWaiting = n
	ts.Results = make([]ocr.Value, n)
	ts.OverElems = over.AsList()
	e.touchTask(in, sc, ts)
	// Create all scopes first (deterministic IDs), then start them:
	// starting may complete children synchronously for empty bodies.
	children := make([]*scope, n)
	for i := 0; i < n; i++ {
		child := e.newScope(in, sc, t.Name, i, body)
		child.own(t.As, over.At(i), true)
		children[i] = child
	}
	for _, child := range children {
		e.startScope(in, child)
	}
}

// spawnSubprocess late-binds the referenced template and starts it as a
// child scope.
func (e *Engine) spawnSubprocess(in *Instance, sc *scope, t *ocr.Task, ts *taskState) {
	tpl, ok := e.resolveTemplate(t.Uses)
	if !ok {
		e.failInstance(in, fmt.Sprintf("subprocess %s references unknown template %q", t.Name, t.Uses))
		return
	}
	child := e.newScope(in, sc, t.Name, -1, tpl)
	// Subprocess bodies see only their inputs — no parent inheritance —
	// so their dynamic record carries the complete whiteboard.
	child.wbFull = true
	child.Whiteboard = make(map[string]ocr.Value, len(child.Proc.Inputs))
	for _, name := range child.Proc.Inputs {
		if v, ok := ts.Inputs[name]; ok {
			child.Whiteboard[name] = v
		}
	}
	ts.ChildWaiting = 1
	e.touchTask(in, sc, ts)
	e.startScope(in, child)
}

// newScope allocates and registers a child scope. It inherits its parent's
// whiteboard (blocks inherit the whiteboard; §3.1) by reading through it, so
// it starts with none of its own.
func (e *Engine) newScope(in *Instance, parent *scope, task string, elem int, proc *compiledProc) *scope {
	child := &scope{
		ID:         scopePath(parent, task, elem),
		Proc:       proc,
		Parent:     parent,
		ParentTask: task,
		ElemIndex:  elem,
	}
	child.layTasks()
	parent.adopt(child)
	in.scopes[child.ID] = child
	return child
}

// startScope initializes and begins navigating a child scope.
func (e *Engine) startScope(in *Instance, child *scope) {
	if err := e.initScope(in, child); err != nil {
		e.failInstance(in, err.Error())
		return
	}
	e.activateRoots(in, child)
	e.maybeCompleteScope(in, child)
}

// finishTask records a successful completion, runs the mapping phase, and
// propagates control flow.
func (e *Engine) finishTask(in *Instance, sc *scope, t *ocr.Task, ts *taskState, outputs map[string]ocr.Value) {
	if outputs == nil {
		outputs = map[string]ocr.Value{}
	}
	// Declared outputs always exist (null when the program omitted
	// them) so downstream bindings never dangle.
	for _, f := range t.OutputFields() {
		if _, ok := outputs[f]; !ok {
			outputs[f] = ocr.Null
		}
	}
	ts.Outputs = outputs
	ts.Status = TaskEnded
	ts.EndedAt = e.now()
	// Mapping phase: transfer output structure entries to the
	// whiteboard (§3.1).
	for _, m := range t.Maps {
		v, ok := outputs[m.From]
		if !ok {
			v = ocr.Null
		}
		e.setWB(in, sc, m.To, v)
	}
	e.touchTask(in, sc, ts)
	e.emit(in, Event{Kind: EvTaskEnded, Instance: in.ID, Scope: sc.ID, Task: t.Name, Node: ts.Node})
	e.persist(in)

	// An alternative execution also completes the task it replaced.
	if ts.AltOf != "" {
		orig := sc.task(ts.AltOf)
		origTask := sc.Proc.Task(ts.AltOf)
		if orig != nil && origTask != nil && !orig.Status.Terminal() {
			n := len(outputs)
			e.finishTask(in, sc, origTask, orig, outputs)
			// The two tasks share the map: the original's declared outputs
			// joined the alternative's after its record was cut.
			ts.stale = ts.stale || len(outputs) != n
		}
	}

	e.propagate(in, sc, t, ts)
	e.maybeCompleteScope(in, sc)
}

// propagate decides the outgoing connectors of a finished (or dead) task
// and activates / kills downstream tasks.
func (e *Engine) propagate(in *Instance, sc *scope, t *ocr.Task, ts *taskState) {
	env := scopeEnv{sc}
	for _, c := range sc.Proc.index[t.Name].out {
		state := connDead
		if ts.Status == TaskEnded {
			if c.cond == nil {
				state = connSatisfied
			} else {
				v, err := c.cond.Eval(env)
				if err != nil {
					e.failInstance(in, fmt.Sprintf("evaluating condition on %s -> %s: %v", t.Name, c.to.Name, err))
					return
				}
				if v.Truthy() {
					state = connSatisfied
				}
			}
		}
		e.deliverConnector(in, sc, c, state)
		if in.Status == InstanceFailed {
			return
		}
	}
}

// deliverConnector records one incoming-connector decision in its slot on the
// target and checks whether the target can now activate or die. A slot is
// decided once: recovery may propagate a terminal task a second time, and the
// first decision stands.
func (e *Engine) deliverConnector(in *Instance, sc *scope, c edge, state connState) {
	target := sc.task(c.to.Name)
	if target.ConnIn[c.slot] == connPending {
		// ConnIn is derived state: recovery re-propagates terminal tasks'
		// connectors, so no record is dirtied here.
		target.ConnIn[c.slot] = state
	}
	if target.Status != TaskInactive {
		return
	}
	anySatisfied := false
	for _, st := range target.ConnIn {
		switch st {
		case connPending:
			return // not decided yet
		case connSatisfied:
			anySatisfied = true
		}
	}
	if anySatisfied {
		e.activateTask(in, sc, c.to)
		return
	}
	e.markDead(in, sc, c.to)
}

// markDead kills a task via dead-path elimination and propagates.
func (e *Engine) markDead(in *Instance, sc *scope, t *ocr.Task) {
	ts := sc.task(t.Name)
	if ts.Status.Terminal() {
		return
	}
	ts.Status = TaskDead
	ts.EndedAt = e.now()
	e.touchTask(in, sc, ts)
	e.emit(in, Event{Kind: EvTaskDead, Instance: in.ID, Scope: sc.ID, Task: t.Name})
	e.propagate(in, sc, t, ts)
	e.maybeCompleteScope(in, sc)
}

// unfinished reports whether the scope still has work. Alternative tasks
// that were never invoked do not block completion.
func unfinished(sc *scope) bool {
	for i := range sc.Proc.tasks {
		t := &sc.Proc.tasks[i]
		ts := &sc.tasks[i]
		if ts.Status.Terminal() {
			continue
		}
		if t.standby && ts.Status == TaskInactive {
			continue // standby alternative, never triggered
		}
		return true
	}
	return false
}

// maybeCompleteScope finishes a scope whose tasks are all terminal and
// delivers its results to the parent task or completes the instance.
func (e *Engine) maybeCompleteScope(in *Instance, sc *scope) {
	if sc.Done || in.Status == InstanceFailed || unfinished(sc) {
		return
	}
	sc.Done = true
	e.touchMeta(in, sc)

	if sc.Parent == nil {
		// Root scope: the instance is done. Outputs and end time are
		// written before the status flips — lock-free readers (Wait)
		// observe the terminal status only after the results exist.
		in.Ended = e.now()
		in.Outputs = scopeOutputs(sc)
		// Nothing is queued any more; what may remain is the hold of a
		// gracefully suspended instance whose last running activity just
		// finished the process.
		e.dropQueued(in)
		in.setStatus(InstanceDone)
		e.emit(in, Event{Kind: EvInstanceDone, Instance: in.ID})
		// archive snapshots the complete final state; OnInstanceDone
		// fires from endTurn after the flush commits.
		e.archive(in)
		in.pendingDone = true
		return
	}

	parent := sc.Parent
	pt := parent.Proc.Task(sc.ParentTask)
	pts := parent.task(sc.ParentTask)
	switch pt.Kind {
	case ocr.KindBlock:
		if pt.Parallel {
			// Results and ChildWaiting are derived state (recovery
			// recomputes them from the child scopes), so one child's
			// completion dirties no parent record.
			pts.Results[sc.ElemIndex] = elementResult(sc)
			pts.ChildWaiting--
			if pts.ChildWaiting == 0 {
				e.finishTask(in, parent, pt, pts, map[string]ocr.Value{
					"results": ocr.List(pts.Results...),
				})
			}
			return
		}
		e.finishTask(in, parent, pt, pts, scopeOutputs(sc))
	case ocr.KindSubprocess:
		e.finishTask(in, parent, pt, pts, scopeOutputs(sc))
	}
}

// scopeOutputs maps each declared output of a finished scope to its value,
// null when the scope never wrote it.
func scopeOutputs(sc *scope) map[string]ocr.Value {
	outputs := make(map[string]ocr.Value, len(sc.Proc.Outputs))
	for _, o := range sc.Proc.Outputs {
		outputs[o], _ = sc.get(o)
	}
	return outputs
}

// elementResult is one parallel element's contribution: the single
// declared output's value, or a list of outputs in declaration order.
func elementResult(sc *scope) ocr.Value {
	outs := sc.Proc.Outputs
	if len(outs) == 1 {
		v, _ := sc.get(outs[0])
		return v
	}
	vs := make([]ocr.Value, len(outs))
	for i, o := range outs {
		vs[i], _ = sc.get(o)
	}
	return ocr.List(vs...)
}

// handleProgramFailure applies RETRY and ON FAILURE semantics after a
// program (not infrastructure) failure.
func (e *Engine) handleProgramFailure(in *Instance, sc *scope, t *ocr.Task, ts *taskState, cause error) {
	in.Failures++
	ts.Attempts++
	e.touchTask(in, sc, ts)
	if ts.Attempts <= t.Retries {
		in.Retries++
		e.emit(in, Event{Kind: EvTaskRetried, Instance: in.ID, Scope: sc.ID, Task: t.Name,
			Detail: fmt.Sprintf("attempt %d/%d: %v", ts.Attempts, t.Retries, cause)})
		if t.Kind == ocr.KindActivity {
			ts.Status = TaskReady
			e.requeue(in, sc, t, ts)
			e.persist(in)
			return
		}
		// A failed sphere retries by re-running from scratch (its
		// scopes were already torn down and undone by abortSphere).
		ts.Status = TaskRunning
		e.touchTask(in, sc, ts)
		e.spawnBlock(in, sc, t, ts)
		return
	}
	switch t.OnFail {
	case ocr.FailIgnore:
		e.emit(in, Event{Kind: EvTaskFailed, Instance: in.ID, Scope: sc.ID, Task: t.Name,
			Detail: fmt.Sprintf("ignored: %v", cause)})
		e.finishTask(in, sc, t, ts, nil) // null outputs
	case ocr.FailAlternative:
		alt := sc.Proc.Task(t.AltTask)
		altState := sc.task(t.AltTask)
		if alt == nil || altState == nil || altState.Status != TaskInactive {
			e.failInstance(in, fmt.Sprintf("task %s failed and alternative %q is unavailable", t.Name, t.AltTask))
			return
		}
		e.emit(in, Event{Kind: EvTaskFailed, Instance: in.ID, Scope: sc.ID, Task: t.Name,
			Detail: fmt.Sprintf("running alternative %s: %v", t.AltTask, cause)})
		altState.AltOf = t.Name
		e.activateTask(in, sc, alt)
	default: // FailAbort — or the enclosing sphere of atomicity
		e.failTask(in, sc, t, ts, cause)
	}
}

// requeue puts a ready task back on the activity queue (after a retryable
// failure, or on recovery — where the binding may have vanished from the
// library: the attempt then completes unrun and the completion turn fails the
// instance). It cuts no checkpoint: a failure path persists right after it,
// and a recovered instance persists once, at the end of its turn.
func (e *Engine) requeue(in *Instance, sc *scope, t *ocr.Task, ts *taskState) {
	prog, _ := e.opts.Library.Lookup(t.Program)
	e.enqueue(in, sc, t, ts, prog)
}
