package ocr

import (
	"strings"
	"testing"
)

func TestBuilderEquivalentToParsedSource(t *testing.T) {
	// Build the conditional-branch process programmatically and compare
	// its canonical form with the parsed OCR text.
	built, err := NewBuilder("Branch").
		Inputs("queue_file").
		Outputs("result").
		Activity("UserIn", "test.echo",
			Arg("x", "queue_file"), Out("out"), MapTo("out", "qf")).
		Activity("Generate", "test.constant",
			Out("out"), MapTo("out", "qf")).
		Activity("Use", "test.echo",
			Arg("x", "qf"), Out("out"), MapTo("out", "result")).
		FlowIf("UserIn", "Generate", "!defined(queue_file)").
		FlowIf("UserIn", "Use", "defined(queue_file)").
		Flow("Generate", "Use").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseProcess(`
PROCESS Branch {
  INPUT queue_file;
  OUTPUT result;
  ACTIVITY UserIn { CALL test.echo(x = queue_file); OUT out; MAP out -> qf; }
  ACTIVITY Generate { CALL test.constant(); OUT out; MAP out -> qf; }
  ACTIVITY Use { CALL test.echo(x = qf); OUT out; MAP out -> result; }
  UserIn -> Generate IF !defined(queue_file);
  UserIn -> Use IF defined(queue_file);
  Generate -> Use;
}`)
	if err != nil {
		t.Fatal(err)
	}
	if Format(built) != Format(parsed) {
		t.Fatalf("builder and parser disagree:\n--- built ---\n%s\n--- parsed ---\n%s",
			Format(built), Format(parsed))
	}
}

func TestBuilderAllConstructs(t *testing.T) {
	p, err := NewBuilder("Everything").
		Doc("every construct").
		Inputs("xs").
		Outputs("result").
		Data("threshold", "80").
		Data("scratch", "").
		Activity("Prep", "lib.prep",
			func(_ *Builder, t *Task) { t.Doc = "prepare" }, Arg("v", "threshold + 1"), Out("r"),
			MapTo("r", "prepped"), Retry(2), Priority(3), Cost(12.5)).
		ParallelBlock("Fan", "xs", "x", func(body *Builder) {
			body.Outputs("y").
				Activity("W", "lib.work", Arg("x", "x"), Out("out"), MapTo("out", "y"))
		}, MapTo("results", "fanned"), Atomic(), Retry(1)).
		Block("Tail", func(body *Builder) {
			body.Outputs("t").
				Activity("T", "lib.tail", Out("t"), MapTo("t", "t"), Undo("lib.untail"))
		}, MapTo("t", "result")).
		Subprocess("Sub", "Other", Arg("a", "prepped"), Out("w"), MapTo("w", "subbed")).
		Await("Gate", "go", Out("payload"), MapTo("payload", "gated")).
		Activity("Alt", "lib.alt", Out("r")).
		Activity("Risky", "lib.risky", Out("r"), OnFailureAlternative("Alt")).
		Activity("Meh", "lib.meh", OnFailureIgnore()).
		Flow("Prep", "Fan").
		Flow("Fan", "Tail").
		Flow("Prep", "Sub").
		Flow("Prep", "Gate").
		FlowIf("Prep", "Risky", "threshold > 50").
		Flow("Risky", "Meh").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	// Round trip through the printer.
	text := Format(p)
	p2, err := ParseProcess(text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if Format(p2) != text {
		t.Fatal("round trip unstable")
	}
	for _, want := range []string{"ATOMIC", "UNDO lib.untail", `AWAIT "go"`, "ALTERNATIVE Alt", "PARALLEL OVER xs AS x"} {
		if !strings.Contains(text, want) {
			t.Fatalf("canonical form missing %q:\n%s", want, text)
		}
	}
}

func TestBuilderAccumulatesErrors(t *testing.T) {
	_, err := NewBuilder("Bad").
		Data("d", "1 +").                     // bad expression
		Activity("A", "x.y", Arg("v", "][")). // bad arg expression
		FlowIf("A", "B", "&&").               // bad condition
		Build()
	if err == nil {
		t.Fatal("builder accepted bad expressions")
	}
	msg := err.Error()
	for _, frag := range []string{"DATA d", "argument v", "A -> B"} {
		if !strings.Contains(msg, frag) {
			t.Fatalf("error message missing %q: %s", frag, msg)
		}
	}
}

func TestBuilderValidationFailures(t *testing.T) {
	// Builder syntax fine, semantics wrong → Validate catches it.
	_, err := NewBuilder("Cyclic").
		Activity("A", "x.a").
		Activity("B", "x.b").
		Flow("A", "B").
		Flow("B", "A").
		Build()
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("err = %v", err)
	}
	// Atomic on an activity is a builder error.
	_, err = NewBuilder("BadAtomic").
		Activity("A", "x.a", Atomic()).
		Build()
	if err == nil || !strings.Contains(err.Error(), "Atomic applies to blocks") {
		t.Fatalf("err = %v", err)
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild did not panic")
		}
	}()
	NewBuilder("Bad").Activity("A", "").MustBuild()
}

func TestBuilderTimeout(t *testing.T) {
	p, err := NewBuilder("P").
		Outputs("r").
		Activity("A", "x.run", Out("r"), MapTo("r", "r"), Timeout(30)).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Task("A").Timeout != 30 {
		t.Fatalf("Timeout = %v, want 30", p.Task("A").Timeout)
	}
	if !strings.Contains(Format(p), "TIMEOUT 30;") {
		t.Fatalf("Format missing TIMEOUT:\n%s", Format(p))
	}
}
