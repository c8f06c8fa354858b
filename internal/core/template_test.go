package core

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"bioopera/internal/ocr"
	"bioopera/internal/store"
)

// The bench's two processes (bench/workloads.go), under its one program.
const benchFanSrc = `
PROCESS Fan {
  INPUT xs;
  OUTPUT done;
  BLOCK F PARALLEL OVER xs AS x {
    MAP results -> done;
    OUTPUT r;
    ACTIVITY A { CALL bench.id(x = x); OUT r; MAP r -> r; }
  }
}`

const benchChain8Src = `
PROCESS Chain8 {
  INPUT x;
  OUTPUT r;
  ACTIVITY S1 { CALL bench.id(x = x);  OUT r; MAP r -> w1; }
  ACTIVITY S2 { CALL bench.id(x = w1); OUT r; MAP r -> w2; }
  ACTIVITY S3 { CALL bench.id(x = w2); OUT r; MAP r -> w3; }
  ACTIVITY S4 { CALL bench.id(x = w3); OUT r; MAP r -> w4; }
  ACTIVITY S5 { CALL bench.id(x = w4); OUT r; MAP r -> w5; }
  ACTIVITY S6 { CALL bench.id(x = w5); OUT r; MAP r -> w6; }
  ACTIVITY S7 { CALL bench.id(x = w6); OUT r; MAP r -> w7; }
  ACTIVITY S8 { CALL bench.id(x = w7); OUT r; MAP r -> r; }
  S1 -> S2; S2 -> S3; S3 -> S4; S4 -> S5; S5 -> S6; S6 -> S7; S7 -> S8;
}`

// altDiamondSrc has what the other fixtures lack: a standby alternative, an
// alternative a connector also leads to, two connectors between one pair of
// tasks, and a join whose slots come from different sources.
const altDiamondSrc = `
PROCESS AltDiamond {
  INPUT v;
  OUTPUT r;
  ACTIVITY A { CALL test.echo(x = v); OUT out; MAP out -> a; ON FAILURE ALTERNATIVE Spare; }
  ACTIVITY B { CALL test.echo(x = a); OUT out; MAP out -> b; ON FAILURE ALTERNATIVE C; }
  ACTIVITY C { CALL test.echo(x = a); OUT out; MAP out -> c; }
  ACTIVITY Spare { CALL test.constant(); OUT out; }
  ACTIVITY J { CALL test.echo(x = a); OUT out; MAP out -> r; }
  A -> B;
  A -> C IF a > 1;
  A -> C IF a < 0;
  B -> J;
  C -> J IF c > 0;
}`

func benchLibrary(t *testing.T) *Library {
	t.Helper()
	lib := NewLibrary()
	if err := lib.RegisterFunc("bench.id", func(_ ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
		return map[string]ocr.Value{"r": args["x"]}, nil
	}); err != nil {
		t.Fatal(err)
	}
	return lib
}

func condString(c ocr.Expr) string {
	if c == nil {
		return ""
	}
	return c.String()
}

// checkCompiled compiles p and holds the result against the definitions it
// replaced on the hot path — Process.Roots minus the failure alternatives,
// Process.Incoming, Process.Outgoing, ocr.Format and procHash — for p and
// every body under it, and against the same process read back from its own
// text (what a restart compiles).
func checkCompiled(p *ocr.Process) error {
	cp := compile(p)
	if err := cp.checkAgainst(p); err != nil {
		return err
	}
	q, err := ocr.ParseProcess(string(cp.bytes))
	if err != nil {
		return fmt.Errorf("%s: compiled text does not parse: %w", p.Name, err)
	}
	cq := compile(q)
	if string(cq.bytes) != string(cp.bytes) || cq.hash != cp.hash {
		return fmt.Errorf("%s: text is no restart fixpoint: %s reparsed hashes to %s", p.Name, cp.hash, cq.hash)
	}
	return cq.checkAgainst(q)
}

func (cp *compiledProc) checkAgainst(p *ocr.Process) error {
	if cp.Process != p {
		return fmt.Errorf("%s: compiled form wraps another process", p.Name)
	}
	if want := ocr.Format(p); string(cp.bytes) != want || cp.hash != procHash(want) {
		return fmt.Errorf("%s: text/hash differ from Format/procHash", p.Name)
	}
	alts := make(map[string]bool)
	for _, t := range p.Tasks {
		if t.OnFail == ocr.FailAlternative && t.AltTask != "" {
			alts[t.AltTask] = true
		}
	}
	var wantRoots, gotRoots []string
	for _, t := range p.Roots() {
		if !alts[t.Name] {
			wantRoots = append(wantRoots, t.Name)
		}
	}
	for _, t := range cp.roots {
		gotRoots = append(gotRoots, t.Name)
	}
	if fmt.Sprint(gotRoots) != fmt.Sprint(wantRoots) {
		return fmt.Errorf("%s: roots %v, want %v", p.Name, gotRoots, wantRoots)
	}
	if len(cp.tasks) != len(p.Tasks) || len(cp.index) != len(p.Tasks) {
		return fmt.Errorf("%s: %d compiled tasks (%d indexed) for %d", p.Name, len(cp.tasks), len(cp.index), len(p.Tasks))
	}
	nBodies, conns := 1, 0
	for i, t := range p.Tasks {
		ct := &cp.tasks[i]
		where := p.Name + "." + t.Name
		if ct.Task != t || cp.index[t.Name] != ct {
			return fmt.Errorf("%s: compiled task is not the process's", where)
		}
		// A scope's slot i is task i, and the ConnIn arrays of the tasks lie
		// back to back in declaration order.
		if ct.pos != i || ct.connOff != conns {
			return fmt.Errorf("%s: slot %d with ConnIn at %d, want %d and %d", where, ct.pos, ct.connOff, i, conns)
		}
		conns += ct.incoming
		incoming, outgoing := p.Incoming(t.Name), p.Outgoing(t.Name)
		if ct.incoming != len(incoming) {
			return fmt.Errorf("%s: incoming %d, want %d", where, ct.incoming, len(incoming))
		}
		if ct.standby != (alts[t.Name] && len(incoming) == 0) {
			return fmt.Errorf("%s: standby = %v", where, ct.standby)
		}
		if len(ct.out) != len(outgoing) {
			return fmt.Errorf("%s: %d outgoing edges, want %d", where, len(ct.out), len(outgoing))
		}
		for k, c := range outgoing {
			e := ct.out[k]
			if e.to != p.Task(c.To) || condString(e.cond) != condString(c.Cond) {
				return fmt.Errorf("%s: edge %d is -> %s IF %s, want -> %s IF %s", where, k, e.to.Name, condString(e.cond), c.To, condString(c.Cond))
			}
		}
		// The slots of the edges into t are exactly t's incoming connectors,
		// each once, in Incoming's order.
		hit := make([]int, len(incoming))
		for j := range cp.tasks {
			for _, e := range cp.tasks[j].out {
				if e.to != t {
					continue
				}
				if e.slot < 0 || e.slot >= len(incoming) {
					return fmt.Errorf("%s: slot %d of %d", where, e.slot, len(incoming))
				}
				ic := incoming[e.slot]
				if ic.From != cp.tasks[j].Name || condString(ic.Cond) != condString(e.cond) {
					return fmt.Errorf("%s: slot %d holds %s's edge, Incoming has %s's there", where, e.slot, cp.tasks[j].Name, ic.From)
				}
				hit[e.slot]++
			}
		}
		for slot, n := range hit {
			if n != 1 {
				return fmt.Errorf("%s: slot %d written by %d edges", where, slot, n)
			}
		}
		if (ct.body != nil) != (t.Body != nil) {
			return fmt.Errorf("%s: body compiled = %v", where, ct.body != nil)
		}
		if ct.body != nil {
			if err := ct.body.checkAgainst(t.Body); err != nil {
				return err
			}
			nBodies += len(ct.body.all)
		}
	}
	if len(cp.all) != nBodies || cp.all[0] != cp {
		return fmt.Errorf("%s: all lists %d processes, want %d", p.Name, len(cp.all), nBodies)
	}
	if cp.conns != conns {
		return fmt.Errorf("%s: ConnIn array of %d, want %d", p.Name, cp.conns, conns)
	}
	// byName is every position once, in task-name order.
	positions := make([]int, len(p.Tasks))
	for i := range positions {
		positions[i] = i
	}
	byName := func(a, b int) int { return strings.Compare(p.Tasks[a].Name, p.Tasks[b].Name) }
	if !slices.IsSortedFunc(cp.byName, byName) || !slices.Equal(slices.Sorted(slices.Values(cp.byName)), positions) {
		return fmt.Errorf("%s: name order %v", p.Name, cp.byName)
	}
	return nil
}

// TestCompileEquivalence is the tentpole's oracle test over this package's
// fixtures; template_ext_test.go runs the same check over the tower and
// all-vs-all templates, which import this package.
func TestCompileEquivalence(t *testing.T) {
	pipeline, err := os.ReadFile("../../examples/processes/pipeline.ocr")
	if err != nil {
		t.Fatal(err)
	}
	sources := []string{string(pipeline), benchFanSrc, benchChain8Src, altDiamondSrc,
		linearSrc, branchSrc, parallelSrc, subprocSrc, mixSrc, altSrc, sphereSrc, approvalSrc}
	n := 0
	for _, src := range sources {
		ps, err := ocr.ParseFile(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ps {
			if err := checkCompiled(p); err != nil {
				t.Error(err)
			}
			n++
		}
	}
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 200; i++ {
		if err := checkCompiled(genProcess(rng).proc); err != nil {
			t.Fatalf("generated graph %d: %v", i, err)
		}
	}
	if n < 8 {
		t.Fatalf("only %d fixture processes checked", n)
	}
}

// TestInstancesShareOneCompiledTemplate: starting an instance copies nothing
// of the template — 100 roots point at one compiled form, and the 200
// children of a fan at one compiled body.
func TestInstancesShareOneCompiledTemplate(t *testing.T) {
	rt := newRuntime(t, SimConfig{Library: benchLibrary(t)})
	register(t, rt, benchChain8Src)
	register(t, rt, benchFanSrc)
	tpl, _ := rt.Engine.resolveTemplate("Chain8")
	for i := 0; i < 100; i++ {
		id := start(t, rt, "Chain8", map[string]ocr.Value{"x": ocr.Num(float64(i))})
		if in, _ := rt.Engine.Instance(id); in.root.Proc != tpl {
			t.Fatalf("instance %s runs its own copy of the template", id)
		}
	}
	xs := make([]ocr.Value, 200)
	for i := range xs {
		xs[i] = ocr.Num(float64(i))
	}
	id := start(t, rt, "Fan", map[string]ocr.Value{"xs": ocr.List(xs...)})
	in, _ := rt.Engine.Instance(id)
	fan, _ := rt.Engine.resolveTemplate("Fan")
	children := 0
	for sid, sc := range in.scopes {
		if sid == "" {
			continue
		}
		children++
		if sc.Proc != fan.index["F"].body {
			t.Fatalf("scope %s runs its own copy of the fan body", sid)
		}
	}
	if children != 200 {
		t.Fatalf("%d child scopes, want 200", children)
	}
	rt.Run()
	if got := finished(t, rt, id).Outputs["done"].Len(); got != 200 {
		t.Fatalf("fan delivered %d results", got)
	}
}

// TestSharedTemplateIsolation: what the engine shares, no caller can reach.
// The process handed to RegisterTemplate and the copy Template returns are
// the caller's; scribbling on either changes no running instance and no
// later start.
func TestSharedTemplateIsolation(t *testing.T) {
	rt := newRuntime(t, SimConfig{})
	p, err := ocr.ParseProcess(linearSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Engine.RegisterTemplate(p); err != nil {
		t.Fatal(err)
	}
	want := ocr.Format(p)
	inputs := map[string]ocr.Value{"a": ocr.Num(2), "b": ocr.Num(3)}
	before := start(t, rt, "Linear", inputs)

	scribble := func(q *ocr.Process) {
		q.Tasks[0].Program = "test.fail"
		q.Tasks[0].Args = nil
		q.Connectors = nil
		q.Outputs[0] = "nothing"
		q.Tasks = q.Tasks[:1]
	}
	scribble(p)
	got, _ := rt.Engine.Template("Linear")
	scribble(got)

	after := start(t, rt, "Linear", inputs)
	rt.Run()
	for _, id := range []string{before, after} {
		in := finished(t, rt, id)
		if string(in.root.Proc.bytes) != want {
			t.Errorf("instance %s runs a scribbled definition:\n%s", id, in.root.Proc.bytes)
		}
		if in.Outputs["result"].AsNum() != 10 {
			t.Errorf("instance %s: result = %v, want 10", id, in.Outputs["result"])
		}
	}
	if again, _ := rt.Engine.Template("Linear"); ocr.Format(again) != want {
		t.Error("Template returns a scribbled definition")
	}
}

const innerTriple = `
PROCESS Inner {
  INPUT v;
  OUTPUT w;
  ACTIVITY T {
    CALL test.add(a = v, b = v + v);
    OUT sum;
    MAP sum -> w;
  }
}`

// TestReRegisterMidRun: a running instance keeps the definition it started
// with, a subprocess spawned after the re-registration binds to the new one
// (§3.2, late binding) — with shared templates both are a matter of which
// pointer a scope holds.
func TestReRegisterMidRun(t *testing.T) {
	rt := newRuntime(t, SimConfig{})
	register(t, rt, subprocSrc)
	v1, _ := rt.Engine.resolveTemplate("Inner")

	// An Inner started directly is mid-run on v1 when v2 arrives.
	direct := start(t, rt, "Inner", map[string]ocr.Value{"v": ocr.Num(4)})
	register(t, rt, innerTriple)
	v2, _ := rt.Engine.resolveTemplate("Inner")
	if v1 == v2 || v1.hash == v2.hash {
		t.Fatal("re-registration did not replace the template")
	}
	outer := start(t, rt, "Outer", map[string]ocr.Value{"v": ocr.Num(4)})
	rt.Run()

	in := finished(t, rt, direct)
	if in.root.Proc != v1 || in.Outputs["w"].AsNum() != 8 {
		t.Errorf("running instance moved off v1: w = %v", in.Outputs["w"])
	}
	in = finished(t, rt, outer)
	if sub := in.scopes["Sub"]; sub == nil || sub.Proc != v2 {
		t.Error("subprocess spawned after the re-registration is not bound to v2")
	}
	if in.Outputs["final"].AsNum() != 15 { // (4+1) tripled
		t.Errorf("final = %v, want 15", in.Outputs["final"])
	}
	// The hash index only grows: v1 keeps its entry after its name moved on,
	// so what still runs v1 shares it.
	rt.Engine.emu.RLock()
	old, indexed := rt.Engine.byHash[v1.hash], rt.Engine.byHash[v2.hash]
	rt.Engine.emu.RUnlock()
	if old != v1 || indexed != v2 {
		t.Errorf("hash index: v1 entry is v1 = %v, v2 entry is v2 = %v", old == v1, indexed == v2)
	}
}

// TestRecoverKeepsStartedDefinition: instances of v1 are running when the
// server crashes; v2 is registered under the same name before Recover. The
// recovered instances finish on v1's text under v1's hash — compiled once,
// not once per scope, from v1's version record in the template space, the
// only copy of the text the store holds — and a start after recovery runs
// v2.
func TestRecoverKeepsStartedDefinition(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		t.Run(fmt.Sprintf("lazy=%v", lazy), func(t *testing.T) {
			st := store.NewMem()
			rt := newRuntime(t, SimConfig{Store: st})
			register(t, rt, subprocSrc)
			v1, _ := rt.Engine.resolveTemplate("Inner")
			var ids []string
			for i := 0; i < 5; i++ {
				ids = append(ids, start(t, rt, "Inner", map[string]ocr.Value{"v": ocr.Num(float64(i))}))
			}
			if lazy {
				for _, id := range ids {
					if err := rt.Engine.Suspend(id, true); err != nil {
						t.Fatal(err)
					}
				}
			}
			rt.Engine.Crash()
			register(t, rt, innerTriple)
			if n, err := rt.Engine.Recover(); err != nil || n != len(ids) {
				t.Fatalf("Recover = %d, %v", n, err)
			}
			if kv, ok, _ := st.Get(store.Template, versionPrefix+v1.hash); !ok || string(kv) != string(v1.bytes) {
				t.Fatalf("the template space lost v1's version record %s", v1.hash)
			}
			for _, id := range ids {
				if lazy {
					if err := rt.Engine.Resume(id); err != nil {
						t.Fatal(err)
					}
				}
			}
			var recovered *compiledProc
			for _, id := range ids {
				in, _ := rt.Engine.Instance(id)
				switch {
				case string(in.root.Proc.bytes) != string(v1.bytes) || in.root.Proc.hash != v1.hash:
					t.Fatalf("instance %s recovered onto another definition", id)
				case recovered == nil:
					recovered = in.root.Proc
				case in.root.Proc != recovered:
					t.Errorf("instance %s compiled v1's text again", id)
				}
			}
			fresh := start(t, rt, "Inner", map[string]ocr.Value{"v": ocr.Num(4)})
			rt.Run()
			for i, id := range ids {
				if in := finished(t, rt, id); in.Outputs["w"].AsNum() != float64(2*i) {
					t.Errorf("instance %s: w = %v, want v1's %d", id, in.Outputs["w"], 2*i)
				}
				kv, _, _ := st.Get(store.History, scopeCreateKey(id, ""))
				if root, err := decodeCreateRecord(kv); err != nil || root.ProcRef != v1.hash {
					t.Errorf("instance %s archived under another hash (%v)", id, err)
				}
			}
			if in := finished(t, rt, fresh); in.Outputs["w"].AsNum() != 12 {
				t.Errorf("start after recovery: w = %v, want v2's 12", in.Outputs["w"])
			}
		})
	}
}

// startAllocCeiling bounds the heap allocations of one Chain8 activity on the
// two-worker local pool over either store: start, eight dispatches, eight
// completions, 17 checkpoints and the archive, divided by eight. Measured
// 16.8 to 17.0 on both with templates compiled once, every store key named
// once, records rewritten in place and a dispatch attempt that allocates its
// job ID and nothing else. A template cloned per start costs 5 more, one
// formatted per start 10, keys rebuilt per checkpoint 6, a stored copy per op
// 10, a commit request and group per batch 13 on disk, a cluster view per
// drain iteration 2, a goroutine closure per launch 2, a program thunk 1, a
// heap ref per enqueue 1 — whichever creeps back trips it.
const startAllocCeiling = 19.0

func TestStartAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	disk, err := store.OpenDisk(t.TempDir(), store.DiskOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	for name, st := range map[string]store.Store{"mem": store.NewMem(), "disk": disk} {
		t.Run(name, func(t *testing.T) {
			rt, err := NewLocalRuntime(LocalConfig{Workers: 2, Store: st, Library: benchLibrary(t)})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			if err := rt.RegisterTemplateSource(benchChain8Src); err != nil {
				t.Fatal(err)
			}
			x := ocr.Str(strings.Repeat("x", 256))
			run := func(n int) {
				for i := 0; i < n; i++ {
					id, err := rt.StartProcess("Chain8", map[string]ocr.Value{"x": x}, StartOptions{})
					if err != nil {
						t.Fatal(err)
					}
					in, err := rt.Wait(id, 10*time.Second)
					if err != nil || in.Status != InstanceDone {
						t.Fatalf("instance %s: %v", id, err)
					}
				}
			}
			run(20) // pools, maps and the workers' stacks reach their working size
			const instances = 200
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run(instances)
			runtime.ReadMemStats(&after)
			perActivity := float64(after.Mallocs-before.Mallocs) / (instances * 8)
			t.Logf("%.2f allocations per activity", perActivity)
			if perActivity > startAllocCeiling {
				t.Errorf("%.2f allocations per Chain8 activity, ceiling %.1f: look for a Clone, Format or procHash back on the start path, a store key built per checkpoint, a per-batch allocation in the store, a cluster view taken into a fresh slice (or with nothing ready) in drain, a queuedRef allocated per enqueue, a closure built per dispatch, or a func literal or escaping Launch in localExec.Launch",
					perActivity, startAllocCeiling)
			}
		})
	}
}
