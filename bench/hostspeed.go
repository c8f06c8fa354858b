package main

import (
	"runtime"
	"runtime/debug"
	"time"
)

// The host-speed probe.
//
// The sandbox is a 2-vCPU microVM on a shared host, and what it shares —
// cache and memory bandwidth — is what this engine's workloads live on: they
// allocate 14-460 KiB per activity and spend a fifth of their time in the
// collector. Identical repetitions of 0.4 s ran 0.32-0.68 s (sim_fanout) and
// 0.44-1.0 s (disk_chains) within four minutes, in episodes of seconds on a
// base level that itself drifts 10-15% over minutes, while an ALU loop stayed
// within 4%. No estimator over a 30 s run removes a drift that outlasts the
// run (README.md, "Bounds"), so the harness measures the drift instead: a
// fixed piece of work with the same appetite (small structs, maps, byte
// slices, pointer chains, collections), none of it the engine's code, timed
// before and after every repetition. A repetition's timings are then scaled
// to what they would have been with the probe at probeNominal — "time at
// reference speed". Medians over 30 s windows of identical code, IQR ÷
// median: 13-21% as timed, 2-5% scaled by the probe.

// probeNominal is the probe's duration on the builder's sandbox when the host
// leaves it alone (the fastest tenth of its readings). It only fixes the
// scale: at speed 1.0 scaled and timed values coincide.
const probeNominal = 46 * time.Millisecond

const (
	probeChains    = 4 // chains of nodes per probe, each kept alive and linked until a collection
	probeNodeBytes = 256
)

type probeNode struct {
	next *probeNode
	kv   map[string]string
	buf  []byte
}

var probeSink int

// hostProbe allocates nodes nodes (sizes.probeNodes; probeNominal is for
// fullSizes) and returns how long it took. The collector is driven by hand —
// off while allocating, one full collection per chain — so the work is the
// same whatever heap the process had before.
func hostProbe(nodes int) time.Duration {
	old := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(old)
	t0 := time.Now()
	var head *probeNode
	chainLen := max(nodes/probeChains, 1)
	for i := 0; i < nodes; i++ {
		head = &probeNode{next: head, kv: map[string]string{"a": "b", "c": "d"}, buf: make([]byte, probeNodeBytes)}
		if (i+1)%chainLen == 0 {
			runtime.GC()
			for n := head; n != nil; n = n.next {
				probeSink += len(n.kv) + len(n.buf)
			}
			head = nil
		}
	}
	return time.Since(t0)
}

// hostSpeed is the host's speed over a repetition, from the probe readings
// taken just before and just after it: 1.0 at probeNominal, 0.5 when the
// probe took twice as long.
func hostSpeed(before, after time.Duration) float64 {
	mean := (before + after) / 2
	if mean <= 0 {
		return 1
	}
	return float64(probeNominal) / float64(mean)
}
