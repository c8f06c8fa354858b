package core

import (
	"fmt"
	"sort"

	"bioopera/internal/ocr"
)

// This file implements event handling (§3.1): activities declared with
// AWAIT "name" complete when an external signal arrives instead of calling
// a program. The paper uses this for user interaction with running
// computations — checking intermediate results, approving continuations
// ("the monitor allows users to actively influence the computation").
//
// Signals are buffered: a signal sent before any task awaits it is
// delivered to the next awaiting task, so producers and consumers need not
// race.
//
// The wait state — parked tasks and buffered payloads, per event — lives on
// the Instance, guarded by its shard like the task state it points at.

// awaitEvent parks an activated AWAIT activity until its signal arrives.
// Caller holds the instance's shard.
func (e *Engine) awaitEvent(in *Instance, sc *scope, t *ocr.Task, ts *taskState) {
	ts.Status = TaskRunning
	e.touchTask(in, sc, ts)
	// A buffered signal satisfies the wait immediately.
	if queue := in.signals[t.Await]; len(queue) > 0 {
		in.signals[t.Await] = queue[1:]
		e.finishEventTask(in, sc, t, ts, queue[0])
		return
	}
	if in.waiting == nil {
		in.waiting = make(map[string][]*queuedRef)
	}
	// An AWAIT task is never queued, so its attempt is reached only through
	// this list, under the shard.
	ts.attempt = queuedRef{inst: in, sc: sc, ts: ts}
	in.waiting[t.Await] = append(in.waiting[t.Await], &ts.attempt)
	e.emit(in, Event{Kind: EvTaskAwaiting, Instance: in.ID, Scope: sc.ID, Task: t.Name, Detail: t.Await})
	e.persist(in)
}

// finishEventTask completes an AWAIT task with the signal payload as its
// outputs.
func (e *Engine) finishEventTask(in *Instance, sc *scope, t *ocr.Task, ts *taskState, payload map[string]ocr.Value) {
	outputs := make(map[string]ocr.Value, len(payload))
	for k, v := range payload {
		outputs[k] = v
	}
	in.Activities++
	e.finishTask(in, sc, t, ts, outputs)
}

// Signal delivers an external event to an instance. The first task
// awaiting the event (in activation order) completes with the payload as
// its outputs; if none is waiting, the signal is buffered for the next
// AWAIT on that event. Signalling a finished instance is an error.
func (e *Engine) Signal(instanceID, event string, payload map[string]ocr.Value) error {
	if err := e.checkOwned(instanceID); err != nil {
		return err
	}
	in, ok := e.lookup(instanceID)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownInstance, instanceID)
	}
	mu := e.shardFor(instanceID)
	mu.Lock()
	defer e.endTurn(in, mu)
	if in.Status == InstanceDone || in.Status == InstanceFailed {
		return fmt.Errorf("%w: instance %s is %s", ErrBadState, instanceID, in.Status)
	}
	e.beginTurn(in)
	// Hydrating re-arms the stub's AWAIT waits, so this signal can be
	// delivered (or buffered) against the instance's real wait set.
	if err := e.hydrateLocked(in); err != nil {
		return err
	}
	e.emit(in, Event{Kind: EvSignal, Instance: instanceID, Detail: event})
	// Skip waiters whose scopes were torn down by a sphere abort.
	waiters := in.waiting[event]
	for len(waiters) > 0 && waiters[0].sc.defunct {
		waiters = waiters[1:]
	}
	if len(waiters) == 0 {
		delete(in.waiting, event)
		if in.signals == nil {
			in.signals = make(map[string][]map[string]ocr.Value)
		}
		in.signals[event] = append(in.signals[event], payload)
		return nil
	}
	ref := waiters[0]
	in.waiting[event] = waiters[1:]
	t := ref.sc.Proc.Task(ref.ts.Name)
	e.finishEventTask(in, ref.sc, t, ref.ts, payload)
	in.pendingPump = true
	return nil
}

// Awaiting lists the event names an instance is currently blocked on,
// sorted.
func (e *Engine) Awaiting(instanceID string) []string {
	in, ok := e.lookup(instanceID)
	if !ok {
		return nil
	}
	mu := e.shardFor(instanceID)
	mu.Lock()
	defer mu.Unlock()
	var out []string
	for event, refs := range in.waiting {
		for _, r := range refs {
			if !r.sc.defunct {
				out = append(out, event)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}
