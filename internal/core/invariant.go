package core

import "fmt"

// The engine's invariants as code: what the paper's claim — a computation
// survives crashes, restarts and suspensions — rests on in memory, stated
// once and checked by Check. Each rule says when it holds: at every instant,
// so Check may run beside live turns, or only at idle, with no turn, drain,
// launch or completion in flight.
const (
	// RuleStuck: a running instance that nothing will ever move. None of
	// its jobs is decided or running, it awaits no signal, no turn of it is
	// open or still committing, and either nothing of it is queued or a free
	// slot could take a job that is — so the queue is not what it waits for
	// either. A paused engine's queued jobs wait for ResumeAll, not for
	// nothing. Holds only at idle: a completion takes its job out of the
	// running index before its turn queues the next one, and a runtime
	// frees a slot before the pump that fills it. The monitor, which reads
	// a live engine, reports it only when a second look confirms it
	// (MonitorSource.violations).
	RuleStuck = "stuck"
	// RuleTerminal: a Done or Failed instance still has a job queued or
	// held. Holds at every instant: the turn that ends an instance drops
	// its queued jobs under its shard.
	RuleTerminal = "terminal-queued"
	// RuleGate: an instance's commit gate has admitted a write set that was
	// never cut (ckptDone > ckptSeq). Holds at every instant.
	RuleGate = "gate"
	// RuleHold: an instance's group is held while it is not suspended or
	// not held while it is; or the queue's held jobs are not the queued jobs
	// of held groups, or its length is not its dispatch-order lists plus
	// its held jobs. Holds at every instant: status and hold change in one
	// turn, and the queue and the engine's index of it under dmu.
	RuleHold = "hold"
	// RuleDecided: the slots decisions hold (Engine.decided, nDecided) are
	// not the decided jobs in the running index. Holds at every instant.
	RuleDecided = "decided"
	// RuleOwned: with Options.Owns set, a registered instance the engine
	// does not own. Holds at idle once the engine has caught up with an
	// ownership move: ownership moves outside the engine, and the owner of
	// the lease evicts what it lost right after (Release), as the write
	// fence does for a turn that was ending when it moved.
	RuleOwned = "owned"
)

// Violation is one broken rule. Instance is empty for a rule about the
// dispatcher as a whole.
type Violation struct {
	Instance, Rule, Detail string
}

// String renders a violation for an error or a test failure.
func (v Violation) String() string {
	return fmt.Sprintf("instance %q breaks %s: %s", v.Instance, v.Rule, v.Detail)
}

// Check tests every rule and returns the violations it finds, nil when it
// finds none. It only reads: it takes each instance's shard and then dmu,
// one instance at a time, walking the registry by index without holding emu
// across a shard; a recovered suspended instance's stub is read as it
// stands, not hydrated; and it allocates only to report.
func (e *Engine) Check() []Violation {
	var out []Violation
	for i := 0; ; i++ {
		e.emu.RLock()
		if i >= len(e.order) {
			e.emu.RUnlock()
			break
		}
		in := e.instances[e.order[i]]
		e.emu.RUnlock()
		if e.opts.Owns != nil && !e.opts.Owns(in.ID) {
			out = append(out, Violation{in.ID, RuleOwned, "registered, but another server owns it"})
		}
		out, _ = e.checkInstance(in, out)
	}
	return e.checkDispatcher(out)
}

// checkInstance tests the rules about one instance under its shard, and
// reports how many write sets the instance's turns had cut.
func (e *Engine) checkInstance(in *Instance, out []Violation) ([]Violation, uint64) {
	mu := e.shardFor(in.ID)
	mu.Lock()
	defer mu.Unlock()
	in.gateMu.Lock()
	seq, done := in.ckptSeq, in.ckptDone
	in.gateMu.Unlock()
	if done > seq {
		out = append(out, Violation{in.ID, RuleGate, fmt.Sprintf("%d write sets through the gate, %d cut", done, seq)})
	}
	e.dmu.Lock()
	defer e.dmu.Unlock()
	queued, held := e.sched.Group(in.ID)
	if held != (in.Status == InstanceSuspended) {
		out = append(out, Violation{in.ID, RuleHold, fmt.Sprintf("group held=%v, instance is %s", held, in.Status)})
	}
	if queued && (in.Status == InstanceDone || in.Status == InstanceFailed) {
		out = append(out, Violation{in.ID, RuleTerminal, fmt.Sprintf("%s with jobs queued", in.Status)})
	}
	if in.Status == InstanceRunning && in.writes == nil && done == seq && e.stuck(in, queued) {
		what := "nothing queued"
		if queued {
			what = "a queued job a free slot could take"
		}
		out = append(out, Violation{in.ID, RuleStuck, "running with no job running, no signal awaited, no turn open or committing, and " + what})
	}
	return out, seq
}

// stuck is RuleStuck for a running instance with no turn open or
// committing. Caller holds the instance's shard and dmu.
func (e *Engine) stuck(in *Instance, queued bool) bool {
	busy := false
	for _, parked := range in.waiting {
		busy = busy || len(parked) > 0
	}
	for _, ref := range e.running {
		busy = busy || ref.inst == in
	}
	switch {
	case busy:
		return false
	case !queued:
		return true
	case e.paused.Load():
		return false // the queue waits for ResumeAll
	}
	e.view = e.opts.Executor.AppendNodes(e.view[:0])
	placeable := false
	//bioopera:allow maprange order-independent: Placeable is a pure predicate and nothing is emitted
	for _, ref := range e.queued {
		placeable = placeable || ref.inst == in && ref.job.Placeable(e.view)
	}
	return placeable
}

// checkDispatcher tests the rules about the queue and the running index as
// a whole, under dmu.
func (e *Engine) checkDispatcher(out []Violation) []Violation {
	e.dmu.Lock()
	defer e.dmu.Unlock()
	held := 0
	//bioopera:allow maprange order-independent counting; Group only reads and nothing is emitted
	for _, ref := range e.queued {
		if _, h := e.sched.Group(ref.inst.ID); h {
			held++
		}
	}
	if n, ready, h := e.sched.Len(), e.sched.Ready(), e.sched.Held(); n != len(e.queued) || h != held || ready+held != n {
		out = append(out, Violation{"", RuleHold, fmt.Sprintf("queue length %d, %d ready, %d held; %d jobs indexed, %d of held groups",
			n, ready, h, len(e.queued), held)})
	}
	slots, decided := 0, 0
	for _, n := range e.decided {
		slots += n
	}
	for _, ref := range e.running {
		if ref.decided {
			decided++
		}
	}
	if slots != decided || e.nDecided != decided {
		out = append(out, Violation{"", RuleDecided, fmt.Sprintf("%d slots held (%d counted) by %d decided jobs", slots, e.nDecided, decided)})
	}
	return out
}
