// Package locksafe is a biooperalint golden fixture: blocking operations
// and leaked locks inside critical sections.
package locksafe

import "sync"

type guarded struct {
	mu  sync.Mutex
	rmu sync.RWMutex
	ch  chan int
	n   int
}

// blockingSend sends on a channel inside the critical section.
func (g *guarded) blockingSend() {
	g.mu.Lock()
	g.ch <- 1 // want `channel send while holding g\.mu`
	g.mu.Unlock()
}

// leak never releases the lock.
func (g *guarded) leak() {
	g.mu.Lock() // want `g\.mu\.Lock\(\) has no matching Unlock on every path`
	g.n++
}

// earlyReturn releases on the fall-through path only.
func (g *guarded) earlyReturn(b bool) {
	g.mu.Lock()
	if b {
		return // want `returns while g\.mu is still locked`
	}
	g.mu.Unlock()
}

// good pairs the lock with a deferred unlock.
func (g *guarded) good() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n++
	return g.n
}

// reads pairs a read lock with its deferred read unlock.
func (g *guarded) reads() int {
	g.rmu.RLock()
	defer g.rmu.RUnlock()
	return g.n
}

// waits uses sync.Cond: releasing the mutex while asleep is the
// condition-variable contract, not a blocked critical section.
func (g *guarded) waits(c *sync.Cond) {
	c.L.Lock()
	for g.n == 0 {
		c.Wait()
	}
	c.L.Unlock()
}

// allowed documents a send that cannot block by construction.
func (g *guarded) allowed() {
	g.mu.Lock()
	//bioopera:allow locksafe fixture: the channel is buffered and drained by construction
	g.ch <- 1
	g.mu.Unlock()
}

// Engine mirrors core's: a table of instance shards and the turn they guard.
type Engine struct{ shards []sync.Mutex }

type Instance struct{ writes int }

func (e *Engine) shardFor(id string) *sync.Mutex { return &e.shards[len(id)%len(e.shards)] }

func (e *Engine) beginTurn(in *Instance) {}

func (e *Engine) persist(in *Instance) { in.writes++ }

func (e *Engine) endTurn(in *Instance, mu *sync.Mutex) {
	in.writes = 0
	mu.Unlock()
}

// turn leaves through one deferred endTurn: handed the shard, it releases
// it on every return.
func (e *Engine) turn(in *Instance, ok bool) bool {
	mu := e.shardFor("a")
	mu.Lock()
	defer e.endTurn(in, mu)
	if !ok {
		return false
	}
	e.beginTurn(in)
	e.persist(in)
	return true
}

// bareUnlock writes, then leaves by an explicit Unlock: the write set is
// stranded on the instance.
func (e *Engine) bareUnlock(in *Instance) {
	mu := e.shardFor("a")
	mu.Lock() // want `mu is an instance shard and this function writes a turn: release it with a deferred endTurn`
	e.persist(in)
	mu.Unlock() // want `explicit Unlock of an instance shard in a function that writes a turn`
}

// deferredUnlock writes under a deferred Unlock: no path flushes.
func (e *Engine) deferredUnlock(in *Instance) {
	mu := e.shardFor("a")
	mu.Lock() // want `mu is an instance shard and this function writes a turn: release it with a deferred endTurn`
	defer mu.Unlock()
	e.persist(in)
}

// peek holds the shard without writing: an ordinary critical section.
func (e *Engine) peek(in *Instance) int {
	mu := e.shardFor("a")
	mu.Lock()
	n := in.writes
	mu.Unlock()
	return n
}

// tryTurn takes the shard only if it is free; below the failed-TryLock
// return it holds the shard, and leaves through the deferred endTurn.
func (e *Engine) tryTurn(in *Instance) bool {
	mu := e.shardFor("a")
	if !mu.TryLock() {
		return false
	}
	defer e.endTurn(in, mu)
	e.beginTurn(in)
	e.persist(in)
	return true
}

// tryLeak holds what its TryLock took on the fall-through path.
func (g *guarded) tryLeak() {
	if !g.mu.TryLock() { // want `g\.mu\.Lock\(\) has no matching Unlock on every path`
		return
	}
	g.n++
}

// tryBareUnlock writes under a TryLock'd shard and leaves by an explicit
// Unlock.
func (e *Engine) tryBareUnlock(in *Instance) {
	mu := e.shardFor("a")
	if !mu.TryLock() { // want `mu is an instance shard and this function writes a turn: release it with a deferred endTurn`
		return
	}
	e.persist(in)
	mu.Unlock() // want `explicit Unlock of an instance shard in a function that writes a turn`
}
