package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"bioopera/internal/core"
)

// span is one interval recorded at a layer boundary. The spans of one
// instance share Trace (the instance ID); Parent is the ID of the span that
// encloses it, 0 for the root (client.instance). All spans are recorded from
// this package, around calls into the engine's layers — never inside them.
type span struct {
	Name   string `json:"name"`
	Trace  string `json:"trace"`
	Task   string `json:"task,omitempty"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the repetition's epoch
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // duration minus the part child spans cover
}

func (s span) dur() int64 { return s.End - s.Start }

// engineEvent is one core.Event stamped with the wall clock on arrival at
// Options.OnEvent. (Event.At is engine time — virtual under the simulator.)
type engineEvent struct {
	at    int64
	kind  core.EventKind
	inst  string
	scope string
	task  string
}

// recorder collects the spans and engine events of one traced repetition in
// memory. A nil *recorder is the untraced configuration: every hook checks
// for it and does nothing.
type recorder struct {
	epoch time.Time

	mu         sync.Mutex
	spans      []span
	events     []engineEvent
	depths     []float64  // jobs queued when each dispatch decision was made
	goroutines int        // peak runtime.NumGoroutine seen at those events
	queueLen   func() int // set once the engine exists
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// span records one finished interval; safe on a nil recorder.
func (r *recorder) span(name, trace string, start, end time.Time) {
	r.taskSpan(name, trace, "", start, end)
}

func (r *recorder) taskSpan(name, trace, task string, start, end time.Time) {
	if r == nil {
		return
	}
	s := span{Name: name, Trace: trace, Task: task, Start: r.since(start), End: r.since(end)}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// bindEngine lets onEvent sample the dispatcher's queue depth.
func (r *recorder) bindEngine(e *core.Engine) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.queueLen = e.QueueLen
	r.mu.Unlock()
}

// onEvent is installed as Options.OnEvent. The engine calls it under the
// instance's shard with the dispatch lock free, so reading QueueLen (a leaf
// lock) is safe here.
func (r *recorder) onEvent(ev core.Event) {
	depth, gor := -1, 0
	if ev.Kind == core.EvTaskDispatched {
		r.mu.Lock()
		ql := r.queueLen
		r.mu.Unlock()
		if ql != nil {
			depth = ql() + 1 // the queue the decision scanned: the job just popped included
		}
		gor = runtime.NumGoroutine()
	}
	r.mu.Lock()
	r.events = append(r.events, engineEvent{
		at: r.since(time.Now()), kind: ev.Kind, inst: ev.Instance, scope: ev.Scope, task: ev.Task,
	})
	if depth >= 0 {
		r.depths = append(r.depths, float64(depth))
	}
	if gor > r.goroutines {
		r.goroutines = gor
	}
	r.mu.Unlock()
}

// Names of the spans derived from engine events: the four hand-offs of one
// activity, in order.
const (
	stageReadyToDispatch = "core.stage.ready_to_dispatch"
	stageDispatchToRun   = "core.stage.dispatch_to_run"
	stageRunToEnded      = "core.stage.run_to_ended"
	stageEndedToReady    = "core.stage.ended_to_ready"
	spanDispatchToEnded  = "core.dispatched_to_ended"
)

// buildStages turns the recorded engine events into core.stage.* spans,
// pairing each activity's task-ready / task-dispatched / task-ended events
// with the worker.run span of its program body. It is called once, after the
// repetition, and appends to r.spans.
//
// The local pool launches the program before it emits task-dispatched, so a
// body can start before the event arrives; dispatch_to_run is clamped at 0
// there rather than reported negative.
func (r *recorder) buildStages() {
	runs := make(map[string][]int) // inst|task → indexes of unmatched worker.run spans
	for i, s := range r.spans {
		if s.Name == "worker.run" {
			k := s.Trace + "|" + s.Task
			runs[k] = append(runs[k], i)
		}
	}
	ready := make(map[string]int64)
	dispatched := make(map[string]int64)
	lastEnded := make(map[string]int64)
	add := func(name, inst, task string, start, end int64) {
		if end < start {
			end = start
		}
		r.spans = append(r.spans, span{Name: name, Trace: inst, Task: task, Start: start, End: end})
	}
	for _, ev := range r.events {
		key := ev.inst + "|" + ev.scope + "|" + ev.task
		switch ev.kind {
		case core.EvTaskReady:
			ready[key] = ev.at
			if t, ok := lastEnded[ev.inst]; ok {
				add(stageEndedToReady, ev.inst, ev.task, t, ev.at)
				delete(lastEnded, ev.inst)
			}
		case core.EvTaskDispatched:
			if t, ok := ready[key]; ok {
				add(stageReadyToDispatch, ev.inst, ev.task, t, ev.at)
				delete(ready, key)
			}
			dispatched[key] = ev.at
		case core.EvTaskEnded:
			d, ok := dispatched[key]
			if !ok {
				continue // a block or subprocess task: no program body
			}
			delete(dispatched, key)
			add(spanDispatchToEnded, ev.inst, ev.task, d, ev.at)
			rk := ev.inst + "|" + ev.task
			cands := runs[rk]
			for j := len(cands) - 1; j >= 0; j-- {
				run := r.spans[cands[j]]
				if run.End <= ev.at {
					add(stageDispatchToRun, ev.inst, ev.task, d, run.Start)
					add(stageRunToEnded, ev.inst, ev.task, run.End, ev.at)
					runs[rk] = append(cands[:j], cands[j+1:]...)
					break
				}
			}
			lastEnded[ev.inst] = ev.at
		}
	}
}

// linkSpans assigns IDs and parents and computes self time. Within one trace
// a span's parent is the innermost earlier-starting span that contains it;
// a span nothing contains hangs off the trace's root (client.instance), and
// the root itself has parent 0. Self time is the span's duration minus the
// union of its children's intervals.
func linkSpans(spans []span) {
	byTrace := make(map[string][]int)
	for i := range spans {
		spans[i].ID = i + 1
		spans[i].Parent = 0
		byTrace[spans[i].Trace] = append(byTrace[spans[i].Trace], i)
	}
	children := make(map[int][]int)
	for _, idx := range byTrace {
		sort.Slice(idx, func(a, b int) bool {
			sa, sb := spans[idx[a]], spans[idx[b]]
			if sa.Start != sb.Start {
				return sa.Start < sb.Start
			}
			if sa.End != sb.End {
				return sa.End > sb.End
			}
			return idx[a] < idx[b]
		})
		root := -1
		for _, i := range idx {
			if spans[i].Name == "client.instance" {
				root = i
				break
			}
		}
		var open []int // earlier-starting spans that may still enclose later ones
		for _, i := range idx {
			if i == root {
				continue
			}
			s := spans[i]
			live := open[:0]
			for _, o := range open {
				if spans[o].End > s.Start {
					live = append(live, o)
				}
			}
			open = live
			parent := root
			for j := len(open) - 1; j >= 0; j-- {
				if spans[open[j]].End >= s.End {
					parent = open[j]
					break
				}
			}
			if parent >= 0 {
				spans[i].Parent = spans[parent].ID
				children[parent] = append(children[parent], i)
			}
			open = append(open, i)
		}
	}
	for i := range spans {
		spans[i].Self = spans[i].dur() - covered(spans, spans[i], children[i])
	}
}

// covered is the length of the union of the children's intervals, clipped
// to the parent.
func covered(spans []span, parent span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
	var total int64
	curS, curE := int64(0), int64(-1)
	for _, k := range kids {
		s, e := spans[k].Start, spans[k].End
		if s < parent.Start {
			s = parent.Start
		}
		if e > parent.End {
			e = parent.End
		}
		if e <= s {
			continue
		}
		if curE < curS || s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// finish derives the stage spans, links everything, and returns the spans.
func (r *recorder) finish() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buildStages()
	linkSpans(r.spans)
	return r.spans
}

// spanUS collects, in µs, the duration — or with self set the self time —
// of every span with the given name.
func spanUS(spans []span, name string, self bool) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		ns := s.dur()
		if self {
			ns = s.Self
		}
		out = append(out, float64(ns)/1e3)
	}
	return out
}

// maxSpanFileTraces bounds the span file: a disk_chains repetition records
// about half a million spans, and one file of the first few hundred
// instances shows the shape of every one of them.
const maxSpanFileTraces = 300

// writeSpans writes spans as JSON lines, keeping only the first
// maxSpanFileTraces traces (in order of first appearance).
func writeSpans(path string, spans []span) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	keep := make(map[string]bool)
	for _, s := range spans {
		if !keep[s.Trace] {
			if len(keep) >= maxSpanFileTraces {
				continue
			}
			keep[s.Trace] = true
		}
		line, err := json.Marshal(s)
		if err != nil {
			return fmt.Errorf("encode span: %w", err)
		}
		w.Write(line)
		w.WriteByte('\n')
	}
	return w.Flush()
}
