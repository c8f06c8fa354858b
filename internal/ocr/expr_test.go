package ocr

import (
	"strings"
	"testing"
	"testing/quick"
)

// evalStr parses and evaluates src in env, failing the test on error.
func evalStr(t *testing.T, src string, env Env) Value {
	t.Helper()
	e, err := ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	if env == nil {
		env = MapEnv{}
	}
	v, err := e.Eval(env)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		want float64
	}{
		{"1 + 2", 3},
		{"2 * 3 + 4", 10},
		{"2 + 3 * 4", 14},
		{"(2 + 3) * 4", 20},
		{"10 / 4", 2.5},
		{"10 % 3", 1},
		{"-5 + 2", -3},
		{"2 * -3", -6},
		{"min(4, 2, 9)", 2},
		{"max(4, 2, 9)", 9},
		{"abs(-7)", 7},
		{"floor(2.9)", 2},
		{"ceil(2.1)", 3},
		{"1e3 + 1", 1001},
	}
	for _, c := range cases {
		if got := evalStr(t, c.src, nil); got.AsNum() != c.want {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestComparisonsAndLogic(t *testing.T) {
	env := MapEnv{"n": Int(5), "s": Str("abc"), "flag": Bool(true)}
	cases := []struct {
		src  string
		want bool
	}{
		{"1 < 2", true},
		{"2 <= 2", true},
		{"3 > 4", false},
		{"n == 5", true},
		{"n != 5", false},
		{`s == "abc"`, true},
		{`s < "abd"`, true},
		{"true && false", false},
		{"true || false", true},
		{"!flag", false},
		{"n > 3 && n < 10", true},
		{"null == null", true},
		{"n == null", false},
		{"[1,2] == [1,2]", true},
		{"[1,2] == [2,1]", false},
	}
	for _, c := range cases {
		if got := evalStr(t, c.src, env); got.AsBool() != c.want {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	// Division by zero on the right side must not be reached.
	if got := evalStr(t, "false && (1/0 > 0)", nil); got.AsBool() {
		t.Fatal("short-circuit && failed")
	}
	if got := evalStr(t, "true || (1/0 > 0)", nil); !got.AsBool() {
		t.Fatal("short-circuit || failed")
	}
}

func TestStringsAndLists(t *testing.T) {
	env := MapEnv{"parts": List(Int(1), Int(2), Int(3))}
	if got := evalStr(t, `"a" + "b"`, nil); got.AsStr() != "ab" {
		t.Errorf("concat = %v", got)
	}
	if got := evalStr(t, `concat("x=", 5)`, nil); got.AsStr() != "x=5" {
		t.Errorf("concat fn = %v", got)
	}
	if got := evalStr(t, "len(parts)", env); got.AsInt() != 3 {
		t.Errorf("len = %v", got)
	}
	if got := evalStr(t, `len("abcd")`, nil); got.AsInt() != 4 {
		t.Errorf("len str = %v", got)
	}
	if got := evalStr(t, "parts[1]", env); got.AsInt() != 2 {
		t.Errorf("index = %v", got)
	}
	if got := evalStr(t, "[10,20] + [30]", nil); got.Len() != 3 || got.At(2).AsInt() != 30 {
		t.Errorf("list concat = %v", got)
	}
	if got := evalStr(t, "range(4)", nil); got.Len() != 4 || got.At(3).AsInt() != 3 {
		t.Errorf("range = %v", got)
	}
	if got := evalStr(t, "contains(parts, 2)", env); !got.AsBool() {
		t.Errorf("contains = %v", got)
	}
	if got := evalStr(t, "flatten([[1,2],[3]])", nil); got.Len() != 3 {
		t.Errorf("flatten = %v", got)
	}
}

func TestDefined(t *testing.T) {
	env := MapEnv{"present": Int(1), "nullish": Null}
	if !evalStr(t, "defined(present)", env).AsBool() {
		t.Error("defined(present) = false")
	}
	if evalStr(t, "defined(missing)", env).AsBool() {
		t.Error("defined(missing) = true")
	}
	if evalStr(t, "defined(nullish)", env).AsBool() {
		t.Error("defined(null value) = true")
	}
	// The paper's all-vs-all branch condition.
	if !evalStr(t, "!defined(queue_file)", env).AsBool() {
		t.Error("!defined(queue_file) = false")
	}
}

func TestUndefinedNameIsNull(t *testing.T) {
	if got := evalStr(t, "missing", MapEnv{}); !got.IsNull() {
		t.Fatalf("undefined name = %v, want null", got)
	}
	if got := evalStr(t, "!missing", MapEnv{}); !got.AsBool() {
		t.Fatal("!undefined should be true")
	}
}

func TestQualifiedRef(t *testing.T) {
	env := MapEnv{"Align.results": List(Int(1))}
	if got := evalStr(t, "len(Align.results)", env); got.AsInt() != 1 {
		t.Fatalf("qualified ref = %v", got)
	}
}

func TestEvalErrors(t *testing.T) {
	bad := []string{
		"1 / 0",
		"1 % 0",
		`"a" - "b"`,
		`1 < "x"`,
		"-true",
		`"s"[0]`,
		"[1,2][5]",
		"[1][true]",
		"len(5)",
		"abs()",
		"range(-1)",
		`defined("literal")`,
		"contains(5, 1)",
	}
	for _, src := range bad {
		e, err := ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := e.Eval(MapEnv{}); err == nil {
			t.Errorf("eval %q succeeded, want error", src)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"1 +",
		"(1",
		"[1, 2",
		"a .",
		"1 2",
		`"unterminated`,
		"@",
		"a &&& b",
	}
	for _, src := range bad {
		if _, err := ParseExpr(src); err == nil {
			t.Errorf("ParseExpr(%q) succeeded, want error", src)
		}
	}
}

func TestExprStringReparses(t *testing.T) {
	srcs := []string{
		"1 + 2 * 3",
		"!defined(queue_file) && len(parts) > 0",
		`concat("p-", i)`,
		"[1, [2, 3], \"x\"][1][0]",
		"a.b + c",
		"-x % 7",
		"min(1, 2) <= max(3, 4) || flag",
	}
	for _, src := range srcs {
		e1, err := ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		e2, err := ParseExpr(e1.String())
		if err != nil {
			t.Fatalf("reparse %q (from %q): %v", e1.String(), src, err)
		}
		if e1.String() != e2.String() {
			t.Errorf("print/parse not stable: %q -> %q", e1.String(), e2.String())
		}
	}
}

func TestRefs(t *testing.T) {
	e, err := ParseExpr("a + b * a + t.out + len(c) + defined(d)")
	if err != nil {
		t.Fatal(err)
	}
	got := Refs(e)
	want := []string{"a", "b", "t.out", "c", "d"}
	if len(got) != len(want) {
		t.Fatalf("Refs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Refs = %v, want %v", got, want)
		}
	}
}

// Property: integer arithmetic in the expression language agrees with Go.
func TestArithmeticProperty(t *testing.T) {
	f := func(a, b int16) bool {
		env := MapEnv{"a": Int(int(a)), "b": Int(int(b))}
		sum := evalStr(t, "a + b", env).AsInt()
		diff := evalStr(t, "a - b", env).AsInt()
		prod := evalStr(t, "a * b", env).AsInt()
		lt := evalStr(t, "a < b", env).AsBool()
		return sum == int(a)+int(b) && diff == int(a)-int(b) &&
			prod == int(a)*int(b) && lt == (a < b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLexerComments(t *testing.T) {
	src := `
# line comment
1 + // another
/* block
comment */ 2`
	if got := evalStr(t, src, nil); got.AsNum() != 3 {
		t.Fatalf("with comments = %v", got)
	}
	if _, err := ParseExpr("1 /* unterminated"); err == nil {
		t.Fatal("unterminated block comment accepted")
	}
}

func TestSyntaxErrorPosition(t *testing.T) {
	_, err := ParseExpr("1 +\n  @")
	if err == nil {
		t.Fatal("want error")
	}
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if se.Line != 2 {
		t.Fatalf("error line = %d, want 2 (%s)", se.Line, err)
	}
	if !strings.Contains(err.Error(), "2:") {
		t.Fatalf("error message lacks position: %s", err)
	}
}

func TestLexerEscapeAtEOF(t *testing.T) {
	// Regression: a backslash escape at end of input must be a syntax
	// error, not a panic (found by FuzzParseExpr).
	for _, src := range []string{`"\`, `"\\\`, `"abc\`} {
		if _, err := ParseExpr(src); err == nil {
			t.Errorf("ParseExpr(%q) succeeded, want error", src)
		}
	}
}
