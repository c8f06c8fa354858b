package experiments

import (
	"os"
	"strings"
	"testing"
	"time"

	"bioopera/internal/allvsall"
	"bioopera/internal/cluster"
	"bioopera/internal/core"
	"bioopera/internal/sim"
)

func simRuntime(t *testing.T, spec cluster.Spec) *core.SimRuntime {
	t.Helper()
	rt, err := core.NewSimRuntime(core.SimConfig{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestScenarioRefusesBadInput: each malformed line is refused by name, with
// its file and line number, and nothing of the scenario runs.
func TestScenarioRefusesBadInput(t *testing.T) {
	spec := cluster.Spec{Nodes: []cluster.NodeSpec{{Name: "n0", CPUs: 1, Speed: 1}, {Name: "n1", CPUs: 1, Speed: 1}, {Name: "n2", CPUs: 1, Speed: 1}}}
	const head = "# a scenario\n0d crash-nodes *\n"
	for _, tc := range []struct{ name, line, want string }{
		{"unknown verb", "1d explode", `unknown verb "explode"`},
		{"unparsable time", "soon suspend", `unparsable time "soon"`},
		{"time before the previous line's", "1d resume\n0.5d suspend", "bad.scn:4: its time is before the previous line's"},
		{"node range outside the cluster", "1d crash-nodes 1:4", "not a range of the cluster's 3 nodes"},
		{"unknown node", "1d restore-nodes n1,n7", `no node "n7" in the cluster`},
		{"missing argument", "1d load *", "load takes 2 arguments, not 1"},
		{"extra argument", "1d resume now", "resume takes 0 arguments, not 1"},
		{"bad number", "1d kill two", `kill argument "two"`},
		{"negative count", "1d kill -1", `kill argument "-1"`},
		{"unterminated label", `1d suspend "1: suspend`, "a label is one quoted string at the end of the line"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := simRuntime(t, spec)
			_, err := schedule(rt, "bad.scn", head+tc.line+"\n", nil)
			if err == nil || !strings.HasPrefix(err.Error(), "bad.scn:") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want bad.scn:<line>: … %s", err, tc.want)
			}
			if !strings.Contains(tc.want, "bad.scn:") && !strings.HasPrefix(err.Error(), "bad.scn:3: ") {
				t.Fatalf("error %v names the wrong line, want 3", err)
			}
			if n := rt.Cluster.AvailableCPUs(); n != 3 {
				t.Fatalf("%d CPUs up: the time-0 line ran before the scenario was refused", n)
			}
		})
	}
}

// TestScenariosUseEveryVerb: the three scenarios schedule on their clusters,
// and every verb the runner knows is used by one of them.
func TestScenariosUseEveryVerb(t *testing.T) {
	outages, err := os.ReadFile("../../examples/outages/outages.scn")
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[string]bool)
	for _, sc := range []struct {
		name, src string
		spec      cluster.Spec
	}{
		{"fig5.scn", fig5, cluster.SharedRunSpec()},
		{"fig6.scn", fig6, cluster.IkLinux()},
		{"outages.scn", string(outages), cluster.IkLinux()},
	} {
		if _, err := schedule(simRuntime(t, sc.spec), sc.name, sc.src, nil); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(sc.src, "\n") {
			if f := strings.Fields(line); len(f) > 1 && f[0][0] != '#' {
				used[f[1]] = true
			}
		}
	}
	for verb := range verbs {
		if !used[verb] {
			t.Errorf("no scenario uses %q", verb)
		}
	}
}

// TestScenarioStopsOnViolation: a violation Check finds after a line stops
// the run with an error naming the line and the rule. The instance's
// partition moves away just before a line that touches nothing, so the
// engine still holds what it no longer owns.
func TestScenarioStopsOnViolation(t *testing.T) {
	owned := true
	cfg := &allvsall.Config{Dataset: simDataset(100, 100, 1), Simulate: true, Cost: table1CostModel()}
	rt, err := buildRuntime(1, cluster.IkLinux(), cfg,
		core.SimConfig{Options: core.Options{Owns: func(string) bool { return owned }}})
	if err != nil {
		t.Fatal(err)
	}
	rt.Sim.At(sim.Time(time.Second), func(sim.Time) { owned = false })
	_, _, err = RunScenario(rt, "x.scn", "1s what-if *\n", nil, func() (string, error) {
		return startAllVsAll(rt, cfg, 4, false)
	})
	if err == nil || !strings.HasPrefix(err.Error(), "x.scn:1: 1s what-if *: engine check: ") || !strings.Contains(err.Error(), "breaks owned") {
		t.Fatalf("error %v, want the line and the owned rule", err)
	}
}
