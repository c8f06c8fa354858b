package ocr

import (
	"strings"
	"testing"
)

// allVsAllSrc is the paper's Fig. 3 process in OCR text form.
const allVsAllSrc = `
PROCESS AllVsAll "Self-comparison of all entries in a dataset" {
  INPUT db_name, queue_file, output_files;
  OUTPUT master_file, pam_sorted_file;
  DATA n_partitions = 20;

  ACTIVITY UserInput {
    CALL ui.input(db = db_name);
    OUT db_name, queue_file, output_files;
    MAP db_name -> db_name, queue_file -> queue_file;
  }

  ACTIVITY QueueGeneration {
    DOC "Generate the full entry queue when the user supplied none";
    CALL darwin.queue_gen(db = db_name);
    OUT queue_file;
    MAP queue_file -> queue_file;
  }

  ACTIVITY TaskPreprocessing {
    CALL darwin.partition(db = db_name, queue = queue_file, n = n_partitions);
    OUT partitions;
    MAP partitions -> partitions;
    RETRY 2;
  }

  BLOCK Alignment PARALLEL OVER partitions AS part {
    MAP results -> alignment_results;
    OUTPUT refined;
    ACTIVITY FixedPAM {
      CALL darwin.align_fixed(part = part, db = db_name);
      OUT matches;
      MAP matches -> q;
      RETRY 3;
    }
    ACTIVITY Refinement {
      CALL darwin.refine(matches = q, db = db_name);
      OUT refined;
      MAP refined -> refined;
      RETRY 3;
    }
    FixedPAM -> Refinement;
  }

  ACTIVITY MergeByEntry {
    CALL darwin.merge_entry(results = alignment_results, out = output_files);
    OUT master_file;
    MAP master_file -> master_file;
  }

  ACTIVITY MergeByPAM {
    CALL darwin.merge_pam(results = alignment_results, out = output_files);
    OUT pam_sorted_file;
    MAP pam_sorted_file -> pam_sorted_file;
  }

  UserInput -> QueueGeneration IF !defined(queue_file);
  UserInput -> TaskPreprocessing IF defined(queue_file);
  QueueGeneration -> TaskPreprocessing;
  TaskPreprocessing -> Alignment;
  Alignment -> MergeByEntry;
  Alignment -> MergeByPAM;
}
`

func parseAllVsAll(t *testing.T) *Process {
	t.Helper()
	p, err := ParseProcess(allVsAllSrc)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseAllVsAll(t *testing.T) {
	p := parseAllVsAll(t)
	if p.Name != "AllVsAll" {
		t.Fatalf("name = %q", p.Name)
	}
	if p.Doc == "" {
		t.Fatal("doc lost")
	}
	if len(p.Inputs) != 3 || len(p.Outputs) != 2 {
		t.Fatalf("inputs/outputs = %v / %v", p.Inputs, p.Outputs)
	}
	if len(p.Tasks) != 6 {
		t.Fatalf("tasks = %d, want 6", len(p.Tasks))
	}
	if len(p.Connectors) != 6 {
		t.Fatalf("connectors = %d, want 6", len(p.Connectors))
	}

	ui := p.Task("UserInput")
	if ui == nil || ui.Kind != KindActivity || ui.Program != "ui.input" {
		t.Fatalf("UserInput = %+v", ui)
	}
	if len(ui.Args) != 1 || ui.Args[0].Name != "db" {
		t.Fatalf("UserInput args = %+v", ui.Args)
	}

	al := p.Task("Alignment")
	if al == nil || al.Kind != KindBlock || !al.Parallel {
		t.Fatalf("Alignment = %+v", al)
	}
	if al.As != "part" || al.Over == nil || al.Over.String() != "partitions" {
		t.Fatalf("Alignment expansion = %q over %v", al.As, al.Over)
	}
	if al.Body == nil || len(al.Body.Tasks) != 2 || len(al.Body.Connectors) != 1 {
		t.Fatalf("Alignment body = %+v", al.Body)
	}
	if len(al.Body.Outputs) != 1 || al.Body.Outputs[0] != "refined" {
		t.Fatalf("Alignment body outputs = %v", al.Body.Outputs)
	}
	if len(al.Maps) != 1 || al.Maps[0].To != "alignment_results" {
		t.Fatalf("Alignment maps = %v", al.Maps)
	}
	fields := al.OutputFields()
	if len(fields) != 1 || fields[0] != "results" {
		t.Fatalf("parallel block fields = %v", fields)
	}

	pre := p.Task("TaskPreprocessing")
	if pre.Retries != 2 {
		t.Fatalf("retries = %d", pre.Retries)
	}

	// Conditional branch on the optional queue file.
	var condCount int
	for _, c := range p.Connectors {
		if c.Cond != nil {
			condCount++
		}
	}
	if condCount != 2 {
		t.Fatalf("conditional connectors = %d, want 2", condCount)
	}

	roots := p.Roots()
	if len(roots) != 1 || roots[0].Name != "UserInput" {
		t.Fatalf("roots = %v", roots)
	}
	if got := len(p.Incoming("TaskPreprocessing")); got != 2 {
		t.Fatalf("incoming = %d, want 2", got)
	}
	if got := len(p.Outgoing("Alignment")); got != 2 {
		t.Fatalf("outgoing = %d, want 2", got)
	}
}

func TestValidateAllVsAll(t *testing.T) {
	p := parseAllVsAll(t)
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestFormatRoundTrip(t *testing.T) {
	p1 := parseAllVsAll(t)
	text1 := Format(p1)
	p2, err := ParseProcess(text1)
	if err != nil {
		t.Fatalf("reparse formatted output: %v\n%s", err, text1)
	}
	text2 := Format(p2)
	if text1 != text2 {
		t.Fatalf("Format not a fixpoint:\n--- first ---\n%s\n--- second ---\n%s", text1, text2)
	}
	if err := p2.Validate(); err != nil {
		t.Fatalf("reparsed process invalid: %v", err)
	}
}

func TestParseSubprocess(t *testing.T) {
	src := `
PROCESS Tower {
  INPUT genome;
  OUTPUT tree;
  SUBPROCESS FindGenes USES "genefind" {
    IN dna = genome;
    OUT genes;
    MAP genes -> genes;
    RETRY 1;
  }
  SUBPROCESS BuildTree USES "phylo.nj" {
    IN sequences = genes;
    OUT tree;
    MAP tree -> tree;
    ON FAILURE IGNORE;
  }
  SUBPROCESS Audit USES "audit";
  FindGenes -> BuildTree;
  FindGenes -> Audit;
}
`
	p, err := ParseProcess(src)
	if err != nil {
		t.Fatal(err)
	}
	fg := p.Task("FindGenes")
	if fg.Kind != KindSubprocess || fg.Uses != "genefind" || fg.Retries != 1 {
		t.Fatalf("FindGenes = %+v", fg)
	}
	bt := p.Task("BuildTree")
	if bt.OnFail != FailIgnore {
		t.Fatalf("BuildTree OnFail = %v", bt.OnFail)
	}
	if p.Task("Audit").Uses != "audit" {
		t.Fatal("bare subprocess lost USES")
	}
	// Round-trip.
	p2, err := ParseProcess(Format(p))
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if Format(p2) != Format(p) {
		t.Fatal("subprocess round trip unstable")
	}
}

func TestParseFailureHandlers(t *testing.T) {
	src := `
PROCESS P {
  ACTIVITY A {
    CALL x.run();
    OUT r;
    MAP r -> r;
    ON FAILURE ALTERNATIVE B;
    RETRY 5;
    PRIORITY 3;
    COST 12.5;
  }
  ACTIVITY B { CALL x.fallback(); OUT r; MAP r -> r; }
  OUTPUT r;
}
`
	p, err := ParseProcess(src)
	if err != nil {
		t.Fatal(err)
	}
	a := p.Task("A")
	if a.OnFail != FailAlternative || a.AltTask != "B" {
		t.Fatalf("A failure handling = %v/%q", a.OnFail, a.AltTask)
	}
	if a.Retries != 5 || a.Priority != 3 || a.Cost != 12.5 {
		t.Fatalf("A clauses = %+v", a)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p2, err := ParseProcess(Format(p))
	if err != nil || Format(p2) != Format(p) {
		t.Fatalf("round trip: %v", err)
	}
}

func TestParseFileMultiple(t *testing.T) {
	src := `
PROCESS A { ACTIVITY T { CALL x.y(); } }
PROCESS B { ACTIVITY T { CALL x.z(); } }
`
	ps, err := ParseFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 || ps[0].Name != "A" || ps[1].Name != "B" {
		t.Fatalf("ParseFile = %v", ps)
	}
	if _, err := ParseProcess(src); err == nil {
		t.Fatal("ParseProcess accepted two processes")
	}
}

func TestParseErrorsProcess(t *testing.T) {
	bad := map[string]string{
		"no process":      `ACTIVITY A { }`,
		"bad brace":       `PROCESS P {`,
		"input in block":  `PROCESS P { BLOCK B { INPUT x; } }`,
		"retry negative":  `PROCESS P { ACTIVITY A { CALL x.y(); RETRY -1; } }`,
		"retry frac":      `PROCESS P { ACTIVITY A { CALL x.y(); RETRY 1.5; } }`,
		"no uses":         `PROCESS P { SUBPROCESS S; }`,
		"on failure junk": `PROCESS P { ACTIVITY A { CALL x.y(); ON FAILURE EXPLODE; } }`,
		"bad map":         `PROCESS P { ACTIVITY A { CALL x.y(); MAP a; } }`,
		"empty":           ``,
		"stray token":     `PROCESS P { } garbage -> `,
		"parallel no as":  `PROCESS P { BLOCK B PARALLEL OVER xs { OUTPUT o; } }`,
	}
	for name, src := range bad {
		if _, err := ParseFile(src); err == nil {
			t.Errorf("%s: parse succeeded, want error", name)
		}
	}
}

// TestParseBodyItemErrors: a process body and a block body go through one
// item parser, and each still says what it refused and where.
func TestParseBodyItemErrors(t *testing.T) {
	for src, want := range map[string]string{
		`PROCESS P { BLOCK B { INPUT x; } }`: "INPUT is not allowed inside a block (blocks inherit the parent whiteboard)",
		`PROCESS P { BLOCK B { 42; } }`:      "expected task, declaration or connector in block",
		`PROCESS P { 42; }`:                  "expected declaration, task or connector, found",
	} {
		if _, err := ParseFile(src); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want %q", src, err, want)
		}
	}
}

func TestValidateCatches(t *testing.T) {
	cases := map[string]string{
		"cycle": `PROCESS P {
			ACTIVITY A { CALL x.a(); }
			ACTIVITY B { CALL x.b(); }
			A -> B; B -> A;
		}`,
		"unknown connector target": `PROCESS P {
			ACTIVITY A { CALL x.a(); }
			A -> Ghost;
		}`,
		"self loop": `PROCESS P {
			ACTIVITY A { CALL x.a(); }
			A -> A;
		}`,
		"duplicate task": `PROCESS P {
			ACTIVITY A { CALL x.a(); }
			ACTIVITY A { CALL x.b(); }
		}`,
		"no call": `PROCESS P { ACTIVITY A { OUT r; } }`,
		"bad map source": `PROCESS P {
			ACTIVITY A { CALL x.a(); OUT r; MAP nonexistent -> w; }
		}`,
		"undefined ref in arg": `PROCESS P {
			ACTIVITY A { CALL x.a(arg = mystery_name); }
		}`,
		"undefined ref in cond": `PROCESS P {
			ACTIVITY A { CALL x.a(); }
			ACTIVITY B { CALL x.b(); }
			A -> B IF mystery > 1;
		}`,
		"bad alt task": `PROCESS P {
			ACTIVITY A { CALL x.a(); ON FAILURE ALTERNATIVE Ghost; }
		}`,
		"output never produced": `PROCESS P {
			OUTPUT ghost_output;
			ACTIVITY A { CALL x.a(); }
		}`,
		"reserved task name": `PROCESS P {
			ACTIVITY map { CALL x.a(); }
		}`,
		"duplicate data": `PROCESS P {
			DATA d; DATA d;
			ACTIVITY A { CALL x.a(); }
		}`,
		"parallel body no output": `PROCESS P {
			DATA xs = [1];
			BLOCK B PARALLEL OVER xs AS x {
				ACTIVITY A { CALL x.a(); }
			}
		}`,
		"bad task field ref": `PROCESS P {
			ACTIVITY A { CALL x.a(); OUT r; }
			ACTIVITY B { CALL x.b(v = A.nonfield); }
			A -> B;
		}`,
	}
	for name, src := range cases {
		p, err := ParseProcess(src)
		if err != nil {
			t.Fatalf("%s: parse error %v (test sources must parse)", name, err)
		}
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate passed, want error", name)
		}
	}
}

func TestValidateWithTemplates(t *testing.T) {
	child, err := ParseProcess(`PROCESS Child {
		INPUT a, b;
		OUTPUT r;
		ACTIVITY T { CALL x.t(a = a, b = b); OUT r; MAP r -> r; }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	parent, err := ParseProcess(`PROCESS Parent {
		INPUT v;
		SUBPROCESS S USES "Child" {
			IN a = v, b = v + 1;
			MAP r -> out;
		}
	}`)
	if err != nil {
		t.Fatal(err)
	}
	resolve := func(name string) (*Process, bool) {
		if name == "Child" {
			return child, true
		}
		return nil, false
	}
	if err := parent.ValidateWithTemplates(resolve); err != nil {
		t.Fatalf("valid parent rejected: %v", err)
	}

	badTemplate, _ := ParseProcess(`PROCESS Parent {
		INPUT v;
		SUBPROCESS S USES "Missing" { IN a = v; }
	}`)
	if err := badTemplate.ValidateWithTemplates(resolve); err == nil {
		t.Fatal("unknown template accepted")
	}
	badArg, _ := ParseProcess(`PROCESS Parent {
		INPUT v;
		SUBPROCESS S USES "Child" { IN nosuch = v; }
	}`)
	if err := badArg.ValidateWithTemplates(resolve); err == nil {
		t.Fatal("unknown template input accepted")
	}
	badMap, _ := ParseProcess(`PROCESS Parent {
		INPUT v;
		SUBPROCESS S USES "Child" { IN a = v; MAP ghost -> w; }
	}`)
	if err := badMap.ValidateWithTemplates(resolve); err == nil {
		t.Fatal("unknown template output accepted")
	}
}

func TestClone(t *testing.T) {
	p := parseAllVsAll(t)
	c := p.Clone()
	if Format(p) != Format(c) {
		t.Fatal("clone formats differently")
	}
	// Mutating the clone must not affect the original.
	c.Tasks[0].Name = "Renamed"
	c.Task("Alignment")
	if p.Tasks[0].Name == "Renamed" {
		t.Fatal("clone shares task structs")
	}
	al := p.Task("Alignment")
	cal := c.Task("Alignment")
	cal.Body.Tasks[0].Name = "X"
	if al.Body.Tasks[0].Name == "X" {
		t.Fatal("clone shares block bodies")
	}
	if (*Process)(nil).Clone() != nil {
		t.Fatal("nil clone")
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	src := `process P {
		input x;
		activity A { call prog.run(v = x); out r; map r -> y; }
		output y;
	}`
	p, err := ParseProcess(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Task("A") == nil || len(p.Inputs) != 1 {
		t.Fatal("lower-case keywords mishandled")
	}
	if !strings.Contains(Format(p), "ACTIVITY A") {
		t.Fatal("canonical form should upper-case keywords")
	}
}

func TestParseTimeout(t *testing.T) {
	src := `
PROCESS P {
  ACTIVITY A {
    CALL x.run();
    OUT r;
    MAP r -> r;
    TIMEOUT 2.5;
    RETRY 1;
  }
  OUTPUT r;
}
`
	p, err := ParseProcess(src)
	if err != nil {
		t.Fatal(err)
	}
	a := p.Task("A")
	if a.Timeout != 2.5 {
		t.Fatalf("Timeout = %v, want 2.5", a.Timeout)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	out := Format(p)
	if !strings.Contains(out, "TIMEOUT 2.5;") {
		t.Fatalf("Format lost TIMEOUT:\n%s", out)
	}
	p2, err := ParseProcess(out)
	if err != nil || Format(p2) != out {
		t.Fatalf("round trip: %v", err)
	}

	bad := map[string]string{
		"zero":     `PROCESS P { ACTIVITY A { CALL x.y(); TIMEOUT 0; } }`,
		"negative": `PROCESS P { ACTIVITY A { CALL x.y(); TIMEOUT -3; } }`,
		"no value": `PROCESS P { ACTIVITY A { CALL x.y(); TIMEOUT; } }`,
	}
	for name, src := range bad {
		if _, err := ParseFile(src); err == nil {
			t.Errorf("%s: parse succeeded, want error", name)
		}
	}

	// TIMEOUT is reserved and cannot name a task.
	res, err := ParseProcess(`PROCESS P { ACTIVITY Timeout { CALL x.y(); } }`)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err == nil {
		t.Fatal("Validate accepted task named Timeout")
	}

	// Negative timeouts set programmatically are caught by Validate.
	neg := &Process{Name: "P", Tasks: []*Task{{
		Name: "A", Kind: KindActivity, Program: "x.y", Timeout: -1,
	}}}
	if err := neg.Validate(); err == nil {
		t.Fatal("Validate accepted negative timeout")
	}

	// A SUBPROCESS with only a TIMEOUT must keep its long form.
	sub := &Process{Name: "P", Tasks: []*Task{{
		Name: "S", Kind: KindSubprocess, Uses: "Other", Timeout: 5,
	}}}
	if !strings.Contains(Format(sub), "TIMEOUT 5;") {
		t.Fatalf("SUBPROCESS short form dropped TIMEOUT:\n%s", Format(sub))
	}
}
