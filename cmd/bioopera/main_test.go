package main

import (
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"bioopera/internal/cluster"
	"bioopera/internal/core"
	"bioopera/internal/ocr"
	"bioopera/internal/store"
)

func TestParseInputs(t *testing.T) {
	in, err := parseInputs([]string{
		"n=42",
		"name=plain-string",
		"xs=[1,2,3]",
		"flag=true",
		"expr=2*21",
		`quoted="with = sign"`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if in["n"].AsNum() != 42 {
		t.Fatalf("n = %v", in["n"])
	}
	if in["name"].AsStr() != "plain-string" {
		t.Fatalf("name = %v", in["name"])
	}
	if in["xs"].Len() != 3 {
		t.Fatalf("xs = %v", in["xs"])
	}
	if !in["flag"].AsBool() {
		t.Fatalf("flag = %v", in["flag"])
	}
	if in["expr"].AsNum() != 42 {
		t.Fatalf("expr = %v", in["expr"])
	}
	if in["quoted"].AsStr() != "with = sign" {
		t.Fatalf("quoted = %v", in["quoted"])
	}
	if _, err := parseInputs([]string{"novalue"}); err == nil {
		t.Fatal("missing '=' accepted")
	}
}

func TestSpecByName(t *testing.T) {
	for _, name := range []string{"ik-sun", "ik-linux", "linneus", "shared"} {
		spec, err := specByName(name)
		if err != nil || spec.TotalCPUs() == 0 {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := specByName("beowulf"); err == nil {
		t.Fatal("unknown cluster accepted")
	}
}

func TestStubLibraryCoversNestedCalls(t *testing.T) {
	ps, err := ocr.ParseFile(`
PROCESS P {
  ACTIVITY A { CALL outer.prog(); OUT r; }
  BLOCK B PARALLEL OVER [1] AS x {
    OUTPUT o;
    ACTIVITY Inner { CALL inner.prog(v = x); OUT o; MAP o -> o; }
  }
}`)
	if err != nil {
		t.Fatal(err)
	}
	lib := stubLibrary(ps, false)
	for _, name := range []string{"outer.prog", "inner.prog"} {
		p, ok := lib.Lookup(name)
		if !ok {
			t.Fatalf("stub for %s missing", name)
		}
		out, err := p.Run(core.ProgramCtx{}, map[string]ocr.Value{"r": ocr.Str("echoed")})
		if err != nil {
			t.Fatal(err)
		}
		if name == "outer.prog" && out["r"].AsStr() != "echoed" {
			t.Fatalf("stub did not echo same-named arg: %v", out)
		}
	}
}

func TestFmtArgsDeterministic(t *testing.T) {
	args := map[string]ocr.Value{"b": ocr.Int(2), "a": ocr.Int(1)}
	if got := fmtArgs(args); got != "a=1, b=2" {
		t.Fatalf("fmtArgs = %q", got)
	}
}

// TestRunShippedPipeline runs the README's invocation of the shipped
// example to Done, and checks that leaving a declared INPUT out fails up
// front, naming it, instead of mid-run as a null inside the process.
func TestRunShippedPipeline(t *testing.T) {
	const file = "../../examples/processes/pipeline.ocr"
	if err := cmdRun([]string{file, "-input", "samples=[1,2,3]", "-input", "skip_cleaning=false", "-v"}); err != nil {
		t.Fatalf("README invocation: %v", err)
	}
	const want = "missing -input samples (declared INPUT of Pipeline)"
	for name, cmd := range map[string]func([]string) error{
		"run": cmdRun, "simulate": cmdSimulate, "serve": cmdServe,
	} {
		if err := cmd([]string{file}); err == nil || err.Error() != want {
			t.Errorf("%s with no -input = %v, want %q", name, err, want)
		}
	}
}

// TestRunResumesOnRerun: `run` on a -store an earlier run crashed in first
// finishes that run's instance, then starts its own under a fresh ID — and
// so does the next rerun. Afterwards History holds all three, each done;
// an engine that restarted numbering at p0001 would hold one.
func TestRunResumesOnRerun(t *testing.T) {
	const file = "../../examples/processes/pipeline.ocr"
	inputFlags := []string{"samples=[1,2,3]", "skip_cleaning=false"}
	dir := t.TempDir()

	// The earlier run: p0001 started, then the server died.
	ps, err := loadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	tpl, inputs, err := startArgs(ps, "", inputFlags)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.OpenDisk(dir, store.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewSimRuntime(core.SimConfig{Spec: cluster.IkLinux(), Store: st, Library: stubLibrary(ps, false)})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		if err := rt.Engine.RegisterTemplate(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.Engine.StartProcess(tpl, inputs, core.StartOptions{}); err != nil {
		t.Fatal(err)
	}
	rt.Engine.Crash()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	args := []string{file, "-store", dir, "-input", inputFlags[0], "-input", inputFlags[1]}
	for i := 0; i < 2; i++ {
		if err := cmdRun(args); err != nil {
			t.Fatalf("rerun %d: %v", i+1, err)
		}
	}

	st, err = store.OpenDisk(dir, store.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, id := range []string{"p0001", "p0002", "p0003"} {
		v, ok, err := st.Get(store.History, "inst/"+id)
		if err != nil || !ok {
			t.Errorf("history has no record of %s (ok=%v err=%v)", id, ok, err)
			continue
		}
		if m, err := core.DecodeInstanceMeta(v); err != nil || m.Status != core.InstanceDone {
			t.Errorf("history of %s: status %v, err %v", id, m.Status, err)
		}
	}
	if left, _ := st.List(store.Instance); len(left) != 0 {
		t.Errorf("%d instance-space records left behind, first %s", len(left), left[0].Key)
	}
}

// captureStdout returns what f prints to standard output.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() { out, _ := io.ReadAll(r); done <- out }()
	err = f()
	os.Stdout = stdout
	w.Close()
	out := <-done
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestHistoryStatsShowsImageAndWAL: `history -stats` prints the in-memory
// image's live and dead bytes and its compactions, the log bytes since the
// base against the self-compaction trigger, and whether a failed append has
// poisoned the log.
func TestHistoryStatsShowsImageAndWAL(t *testing.T) {
	dir := t.TempDir()
	captureStdout(t, func() error {
		return cmdSimulate([]string{"../../examples/processes/pipeline.ocr", "-store", dir,
			"-input", "samples=[1]", "-input", "skip_cleaning=true"})
	})
	out := captureStdout(t, func() error { return cmdHistory([]string{dir, "-stats"}) })
	for _, want := range []*regexp.Regexp{
		regexp.MustCompile(`(?m)^  image bytes        [1-9][0-9]* live, [0-9]+ dead \([0-9]+ compactions\)$`),
		regexp.MustCompile(`(?m)^  wal since base     [1-9][0-9]* of 67108864 bytes \(0 failed compactions\)$`),
		regexp.MustCompile(`(?m)^  wal poisoned       no$`),
	} {
		if !want.MatchString(out) {
			t.Errorf("history -stats has no line matching %q:\n%s", want, out)
		}
	}
}

// TestHistoryEventsShowsUndecodableRecord: `history -events` lists every
// journal record of a simulated run, node included, and a record that is no
// event — here one written in the JSON format the journal used before its
// records were codec records — is listed with its sequence, size and the
// reason, not skipped or misread, so the sequence numbers on screen have no
// silent hole.
func TestHistoryEventsShowsUndecodableRecord(t *testing.T) {
	dir := t.TempDir()
	capture := func(f func() error) string { return captureStdout(t, f) }
	capture(func() error {
		return cmdSimulate([]string{"../../examples/processes/pipeline.ocr", "-store", dir,
			"-input", "samples=[1]", "-input", "skip_cleaning=true"})
	})
	st, err := store.OpenDisk(dir, store.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const old = `{"at":1000000000,"kind":"task-ready","instance":"p0001","task":"A"}`
	seq, err := st.AppendEvent([]byte(old))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	out := capture(func() error { return cmdHistory([]string{dir, "-events"}) })
	_, journal, _ := strings.Cut(out, "event journal:\n")
	var got []string
	for _, line := range strings.Split(journal, "\n") {
		if f := strings.Fields(line); len(f) > 2 {
			got = append(got, strings.Join(f, " "))
		}
	}
	// The run's first lines are virtual-time deterministic; an
	// infrastructure event has only a node and a detail to show. The
	// dispatch commits with the start that readied it, before the job
	// launches on the cluster.
	want := []string{
		"1 0s instance-started p0001 Pipeline",
		"2 0s task-ready p0001 Fetch",
		"3 0s task-dispatched p0001 Fetch iklinux-00",
		"4 0s cluster-job-start iklinux-00 p0001||Fetch|0",
		"5 1s cluster-job-end iklinux-00 p0001||Fetch|0",
	}
	if len(got) < len(want) || !slices.Equal(got[:len(want)], want) {
		t.Errorf("history -events begins %q, want %q\nfull output:\n%s", got[:min(len(got), len(want))], want, out)
	}
	wantOld := fmt.Sprintf("%d undecodable record (%d bytes): codec: corrupt record: pre-codec JSON record", seq, len(old))
	if len(got) == 0 || got[len(got)-1] != wantOld {
		t.Errorf("history -events ends %q, want the JSON record listed as %q", got[len(got)-1:], wantOld)
	}
}
