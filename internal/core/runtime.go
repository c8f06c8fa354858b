package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bioopera/internal/ocr"
	"bioopera/internal/store"
)

// Snapshotter is implemented by stores that support compaction (the disk
// store); runtimes snapshot periodically when configured, bounding the
// write-ahead log a restart must replay.
type Snapshotter interface{ Snapshot() error }

// RuntimeBase is the runtime layer shared by the real-time drivers — the
// goroutine-pool LocalRuntime and the networked remote runtime. It owns
// the plumbing those drivers would otherwise duplicate: the engine handle,
// the Wait/generation broadcast that turns engine transitions into
// wake-ups, and the periodic snapshot cadence. Embed it and call Bind once
// the engine exists.
type RuntimeBase struct {
	engine *Engine

	// waitMu/cond/gen implement Wait: every interesting transition bumps
	// gen and broadcasts, and waiters sleep until gen moves. A counter —
	// instead of re-checking state under a big lock — keeps the wait
	// path off the engine's locks entirely.
	waitMu sync.Mutex
	cond   *sync.Cond
	gen    uint64

	snapMu   sync.Mutex
	snapStop chan struct{}
}

// Bind attaches the engine. Call it once, before the runtime is used.
func (rb *RuntimeBase) Bind(e *Engine) {
	rb.waitMu.Lock()
	rb.cond = sync.NewCond(&rb.waitMu)
	rb.engine = e
	rb.waitMu.Unlock()
}

// Engine returns the bound engine.
func (rb *RuntimeBase) Engine() *Engine {
	rb.waitMu.Lock()
	defer rb.waitMu.Unlock()
	return rb.engine
}

// Bump wakes every Wait caller to re-check its instance. Executors call it
// after delivering completions or changing capacity.
func (rb *RuntimeBase) Bump() {
	rb.waitMu.Lock()
	rb.gen++
	c := rb.cond
	rb.waitMu.Unlock()
	if c != nil {
		c.Broadcast()
	}
}

// Do runs f against the engine. The engine is internally synchronized, so
// f runs directly; concurrent Do calls are fine.
func (rb *RuntimeBase) Do(f func(e *Engine)) {
	f(rb.Engine())
}

// RegisterTemplateSource parses and registers OCR templates.
func (rb *RuntimeBase) RegisterTemplateSource(src string) error {
	return rb.Engine().RegisterTemplateSource(src)
}

// StartProcess launches an instance.
func (rb *RuntimeBase) StartProcess(template string, inputs map[string]ocr.Value, opts StartOptions) (string, error) {
	return rb.Engine().StartProcess(template, inputs, opts)
}

// InstanceStatus returns the current status and outputs of an instance.
func (rb *RuntimeBase) InstanceStatus(id string) (InstanceStatus, map[string]ocr.Value, error) {
	return rb.Engine().InstanceState(id)
}

// Wait blocks until the instance reaches Done or Failed, or the timeout
// elapses. It returns the instance.
//
// One timer is the whole timeout mechanism: when it fires it flips
// expired and bumps the generation, so the loop below wakes and observes
// the expiry on its next pass — no wall-clock deadline re-poll.
func (rb *RuntimeBase) Wait(id string, timeout time.Duration) (*Instance, error) {
	var expired atomic.Bool
	//bioopera:allow walltime Wait serves the real-time runtimes; their timeout is wall-clock by contract
	timer := time.AfterFunc(timeout, func() {
		expired.Store(true)
		rb.Bump()
	})
	defer timer.Stop()
	eng := rb.Engine()
	for {
		in, ok := eng.Instance(id)
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrUnknownInstance, id)
		}
		rb.waitMu.Lock()
		g := rb.gen
		rb.waitMu.Unlock()
		// Check after capturing gen: a transition after this check bumps
		// gen, so the sleep below cannot miss it.
		if st := in.statusNow(); st == InstanceDone || st == InstanceFailed {
			// The status flips inside the final turn, before that turn's
			// archive checkpoint flushes; drain the gate so the caller
			// reads the archived state (and may close the store).
			eng.quiesceInstance(in)
			return in, nil
		}
		if expired.Load() {
			return in, fmt.Errorf("core: instance %s still %s after %v", id, in.statusNow(), timeout)
		}
		rb.waitMu.Lock()
		for rb.gen == g {
			rb.cond.Wait()
		}
		rb.waitMu.Unlock()
	}
}

// StartSnapshots begins compacting the store every period, so a long run's
// recovery log stays bounded. A store without snapshot support, or a zero
// period, makes it a no-op. Snapshot errors go to the engine's OnError.
func (rb *RuntimeBase) StartSnapshots(st store.Store, every time.Duration) {
	snap, ok := st.(Snapshotter)
	if !ok || every <= 0 {
		return
	}
	rb.snapMu.Lock()
	defer rb.snapMu.Unlock()
	if rb.snapStop != nil {
		return // already running
	}
	stop := make(chan struct{})
	rb.snapStop = stop
	eng := rb.Engine()
	go func() {
		//bioopera:allow walltime snapshot cadence paces real disk I/O; the sim runtime has its own virtual-clock snapshots
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				rb.snapshotOnce(eng, snap)
			case <-stop:
				return
			}
		}
	}()
}

// snapshotOnce runs one compaction cycle: sweep dead interned process
// texts (their delete batches commit before the sweep returns, so this
// snapshot's image already excludes them), then snapshot. Errors surface as
// EvPersistError events and through the engine's OnError hook — a
// background cadence has no caller to return them to.
func (rb *RuntimeBase) snapshotOnce(eng *Engine, snap Snapshotter) {
	if eng != nil {
		eng.SweepProcs()
	}
	if err := snap.Snapshot(); err != nil {
		if eng != nil {
			eng.emitNow(Event{Kind: EvPersistError, Detail: fmt.Sprintf("snapshot: %v", err)})
			if eng.opts.OnError != nil {
				eng.opts.OnError(fmt.Errorf("core: periodic snapshot: %w", err))
			}
		}
	}
}

// StopSnapshots halts the periodic snapshot loop started by
// StartSnapshots. Safe to call when none is running.
func (rb *RuntimeBase) StopSnapshots() {
	rb.snapMu.Lock()
	defer rb.snapMu.Unlock()
	if rb.snapStop != nil {
		close(rb.snapStop)
		rb.snapStop = nil
	}
}
