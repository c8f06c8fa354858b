package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bioopera/internal/core"
)

// TestLinkSpansSelfTime checks parent assignment and self-time subtraction:
// overlapping children are counted once, children are clipped to their
// parent, and another trace's spans are ignored.
func TestLinkSpansSelfTime(t *testing.T) {
	spans := []span{
		{Name: "client.instance", Trace: "p1", Start: 0, End: 100},
		{Name: "core.stage.run_to_ended", Trace: "p1", Start: 10, End: 60},
		{Name: "store.batch", Trace: "p1", Start: 20, End: 40},
		{Name: "store.append_event", Trace: "p1", Start: 30, End: 50}, // overlaps the batch
		{Name: "client.wait", Trace: "p1", Start: 90, End: 120},       // sticks out of the root
		{Name: "store.batch", Trace: "p2", Start: 0, End: 100},        // another instance
	}
	linkSpans(spans)
	byName := func(name, trace string) span {
		for _, s := range spans {
			if s.Name == name && s.Trace == trace {
				return s
			}
		}
		t.Fatalf("no span %s/%s", name, trace)
		return span{}
	}
	root := byName("client.instance", "p1")
	stage := byName("core.stage.run_to_ended", "p1")
	if root.Parent != 0 {
		t.Errorf("root parent = %d, want 0", root.Parent)
	}
	if stage.Parent != root.ID {
		t.Errorf("stage parent = %d, want root %d", stage.Parent, root.ID)
	}
	for _, name := range []string{"store.batch", "store.append_event"} {
		if s := byName(name, "p1"); s.Parent != stage.ID {
			t.Errorf("%s parent = %d, want stage %d", name, s.Parent, stage.ID)
		}
	}
	// The two store spans cover [20,50) of the stage's [10,60).
	if stage.Self != 20 {
		t.Errorf("stage self = %d, want 20", stage.Self)
	}
	// Root [0,100): stage covers 50, client.wait clipped to [90,100) covers 10.
	if root.Self != 40 {
		t.Errorf("root self = %d, want 40", root.Self)
	}
	if other := byName("store.batch", "p2"); other.Parent != 0 || other.Self != 100 {
		t.Errorf("other trace's span: parent %d self %d, want 0 and 100", other.Parent, other.Self)
	}
}

// TestBuildStages feeds the recorder one activity's events and program body
// and checks the four hand-off spans it derives.
func TestBuildStages(t *testing.T) {
	r := newRecorder()
	ev := func(at int64, kind core.EventKind, task string) {
		r.events = append(r.events, engineEvent{at: at, kind: kind, inst: "p1", task: task})
	}
	ev(10, core.EvTaskReady, "S1")
	ev(15, core.EvTaskDispatched, "S1")
	r.spans = append(r.spans, span{Name: "worker.run", Trace: "p1", Task: "S1", Start: 18, End: 20})
	ev(26, core.EvTaskEnded, "S1")
	ev(30, core.EvTaskReady, "S2")
	ev(31, core.EvTaskDispatched, "S2")
	// S2's body started before its dispatched event arrived (local pool).
	r.spans = append(r.spans, span{Name: "worker.run", Trace: "p1", Task: "S2", Start: 29, End: 33})
	ev(35, core.EvTaskEnded, "S2")
	// A block task ends without ever being dispatched: no spans.
	ev(36, core.EvTaskEnded, "F")

	spans := r.finish()
	want := map[string][]float64{ // name → durations in µs (ns/1e3)
		stageReadyToDispatch: {0.005, 0.001},
		stageDispatchToRun:   {0.003, 0},
		stageRunToEnded:      {0.006, 0.002},
		stageEndedToReady:    {0.004},
		spanDispatchToEnded:  {0.011, 0.004},
	}
	for name, durs := range want {
		got := spanUS(spans, name, false)
		if len(got) != len(durs) {
			t.Errorf("%s: %d spans, want %d", name, len(got), len(durs))
			continue
		}
		for i := range durs {
			if !near(got[i], durs[i]) {
				t.Errorf("%s[%d] = %v µs, want %v", name, i, got[i], durs[i])
			}
		}
	}
}

func TestWriteSpansCapsTraces(t *testing.T) {
	var spans []span
	for i := 0; i < maxSpanFileTraces+5; i++ {
		id := "p" + strings.Repeat("x", i%3) + string(rune('a'+i%26)) + string(rune('0'+i/26))
		spans = append(spans, span{Name: "client.instance", Trace: id}, span{Name: "store.batch", Trace: id})
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Count(string(data), "\n"), 2*maxSpanFileTraces; got != want {
		t.Errorf("span file has %d lines, want %d", got, want)
	}
}
