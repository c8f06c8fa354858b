package ocr

import (
	"fmt"
	"math"
	"strings"
)

// Expr is a parsed expression used in activation conditions and data
// bindings. Expressions are immutable and safe for concurrent evaluation.
type Expr interface {
	// Eval computes the expression's value in env.
	Eval(env Env) (Value, error)
	// String renders the expression in parseable OCR syntax.
	String() string
	// refs appends every name the expression reads to dst.
	refs(dst []string) []string
}

// EvalError reports a runtime evaluation failure.
type EvalError struct {
	Expr string
	Msg  string
}

// Error implements error.
func (e *EvalError) Error() string { return fmt.Sprintf("ocr: evaluating %s: %s", e.Expr, e.Msg) }

func evalErrf(e Expr, format string, args ...any) error {
	return &EvalError{Expr: e.String(), Msg: fmt.Sprintf(format, args...)}
}

// Refs returns the sorted, de-duplicated set of names an expression reads.
// Validation uses it to detect dangling references.
func Refs(e Expr) []string {
	names := e.refs(nil)
	seen := make(map[string]bool, len(names))
	var out []string
	for _, n := range names {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// litExpr is a literal value.
type litExpr struct{ v Value }

// Lit returns an expression that evaluates to v.
func Lit(v Value) Expr { return litExpr{v} }

func (e litExpr) Eval(Env) (Value, error)    { return e.v, nil }
func (e litExpr) String() string             { return e.v.String() }
func (e litExpr) refs(dst []string) []string { return dst }

// refExpr reads a name (whiteboard entry or "task.field").
type refExpr struct{ name string }

// Ref returns an expression that reads name from the environment.
// Undefined names evaluate to null (so conditions like `!queue_file` work
// for optional inputs, as in the paper's all-vs-all process).
func Ref(name string) Expr { return refExpr{name} }

func (e refExpr) Eval(env Env) (Value, error) {
	v, _ := env.Lookup(e.name)
	return v, nil
}
func (e refExpr) String() string             { return e.name }
func (e refExpr) refs(dst []string) []string { return append(dst, e.name) }

// listExpr builds a list from element expressions.
type listExpr struct{ elems []Expr }

func (e listExpr) Eval(env Env) (Value, error) {
	vs := make([]Value, len(e.elems))
	for i, el := range e.elems {
		v, err := el.Eval(env)
		if err != nil {
			return Null, err
		}
		vs[i] = v
	}
	return List(vs...), nil
}
func (e listExpr) String() string {
	parts := make([]string, len(e.elems))
	for i, el := range e.elems {
		parts[i] = el.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}
func (e listExpr) refs(dst []string) []string {
	for _, el := range e.elems {
		dst = el.refs(dst)
	}
	return dst
}

// unaryExpr is !x or -x.
type unaryExpr struct {
	op string
	x  Expr
}

func (e unaryExpr) Eval(env Env) (Value, error) {
	v, err := e.x.Eval(env)
	if err != nil {
		return Null, err
	}
	switch e.op {
	case "!":
		return Bool(!v.Truthy()), nil
	case "-":
		if v.Kind() != KindNumber {
			return Null, evalErrf(e, "cannot negate %s", v.Kind())
		}
		return Num(-v.AsNum()), nil
	}
	return Null, evalErrf(e, "unknown unary operator %q", e.op)
}
func (e unaryExpr) String() string             { return e.op + e.x.String() }
func (e unaryExpr) refs(dst []string) []string { return e.x.refs(dst) }

// binExpr is a binary operation.
type binExpr struct {
	op   string
	l, r Expr
}

func (e binExpr) Eval(env Env) (Value, error) {
	// Short-circuit logical operators.
	switch e.op {
	case "&&":
		lv, err := e.l.Eval(env)
		if err != nil {
			return Null, err
		}
		if !lv.Truthy() {
			return Bool(false), nil
		}
		rv, err := e.r.Eval(env)
		if err != nil {
			return Null, err
		}
		return Bool(rv.Truthy()), nil
	case "||":
		lv, err := e.l.Eval(env)
		if err != nil {
			return Null, err
		}
		if lv.Truthy() {
			return Bool(true), nil
		}
		rv, err := e.r.Eval(env)
		if err != nil {
			return Null, err
		}
		return Bool(rv.Truthy()), nil
	}

	lv, err := e.l.Eval(env)
	if err != nil {
		return Null, err
	}
	rv, err := e.r.Eval(env)
	if err != nil {
		return Null, err
	}
	switch e.op {
	case "==":
		return Bool(lv.Equal(rv)), nil
	case "!=":
		return Bool(!lv.Equal(rv)), nil
	case "<", "<=", ">", ">=":
		var cmp int
		switch {
		case lv.Kind() == KindNumber && rv.Kind() == KindNumber:
			a, b := lv.AsNum(), rv.AsNum()
			if math.IsNaN(a) || math.IsNaN(b) {
				return Bool(false), nil
			}
			cmp = compareFloat(a, b)
		case lv.Kind() == KindString && rv.Kind() == KindString:
			cmp = strings.Compare(lv.AsStr(), rv.AsStr())
		default:
			return Null, evalErrf(e, "cannot compare %s and %s", lv.Kind(), rv.Kind())
		}
		switch e.op {
		case "<":
			return Bool(cmp < 0), nil
		case "<=":
			return Bool(cmp <= 0), nil
		case ">":
			return Bool(cmp > 0), nil
		default:
			return Bool(cmp >= 0), nil
		}
	case "+":
		if lv.Kind() == KindString && rv.Kind() == KindString {
			return Str(lv.AsStr() + rv.AsStr()), nil
		}
		if lv.Kind() == KindList && rv.Kind() == KindList {
			return List(append(lv.AsList(), rv.AsList()...)...), nil
		}
		fallthrough
	case "-", "*", "/", "%":
		if lv.Kind() != KindNumber || rv.Kind() != KindNumber {
			return Null, evalErrf(e, "arithmetic on %s and %s", lv.Kind(), rv.Kind())
		}
		a, b := lv.AsNum(), rv.AsNum()
		switch e.op {
		case "+":
			return Num(a + b), nil
		case "-":
			return Num(a - b), nil
		case "*":
			return Num(a * b), nil
		case "/":
			if b == 0 {
				return Null, evalErrf(e, "division by zero")
			}
			return Num(a / b), nil
		default:
			if b == 0 {
				return Null, evalErrf(e, "modulo by zero")
			}
			return Num(math.Mod(a, b)), nil
		}
	}
	return Null, evalErrf(e, "unknown operator %q", e.op)
}

func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func (e binExpr) String() string {
	return "(" + e.l.String() + " " + e.op + " " + e.r.String() + ")"
}
func (e binExpr) refs(dst []string) []string { return e.r.refs(e.l.refs(dst)) }

// indexExpr is x[i].
type indexExpr struct {
	x, i Expr
}

func (e indexExpr) Eval(env Env) (Value, error) {
	xv, err := e.x.Eval(env)
	if err != nil {
		return Null, err
	}
	iv, err := e.i.Eval(env)
	if err != nil {
		return Null, err
	}
	if xv.Kind() != KindList {
		return Null, evalErrf(e, "indexing a %s", xv.Kind())
	}
	if iv.Kind() != KindNumber {
		return Null, evalErrf(e, "index must be a number, got %s", iv.Kind())
	}
	idx := iv.AsInt()
	if idx < 0 || idx >= xv.Len() {
		return Null, evalErrf(e, "index %d out of range (len %d)", idx, xv.Len())
	}
	return xv.At(idx), nil
}
func (e indexExpr) String() string             { return e.x.String() + "[" + e.i.String() + "]" }
func (e indexExpr) refs(dst []string) []string { return e.i.refs(e.x.refs(dst)) }

// callExpr is a builtin function call.
type callExpr struct {
	fn   string
	args []Expr
}

func (e callExpr) Eval(env Env) (Value, error) {
	// defined() inspects name presence instead of evaluating.
	if e.fn == "defined" {
		if len(e.args) != 1 {
			return Null, evalErrf(e, "defined takes 1 argument")
		}
		ref, ok := e.args[0].(refExpr)
		if !ok {
			return Null, evalErrf(e, "defined requires a name argument")
		}
		v, present := env.Lookup(ref.name)
		return Bool(present && !v.IsNull()), nil
	}
	args := make([]Value, len(e.args))
	for i, a := range e.args {
		v, err := a.Eval(env)
		if err != nil {
			return Null, err
		}
		args[i] = v
	}
	switch e.fn {
	case "len":
		if len(args) != 1 {
			return Null, evalErrf(e, "len takes 1 argument")
		}
		switch args[0].Kind() {
		case KindList:
			return Int(args[0].Len()), nil
		case KindString:
			return Int(len(args[0].AsStr())), nil
		default:
			return Null, evalErrf(e, "len of %s", args[0].Kind())
		}
	case "min", "max":
		if len(args) == 0 {
			return Null, evalErrf(e, "%s needs at least 1 argument", e.fn)
		}
		best := math.Inf(1)
		if e.fn == "max" {
			best = math.Inf(-1)
		}
		for _, a := range args {
			if a.Kind() != KindNumber {
				return Null, evalErrf(e, "%s of %s", e.fn, a.Kind())
			}
			if e.fn == "min" {
				best = math.Min(best, a.AsNum())
			} else {
				best = math.Max(best, a.AsNum())
			}
		}
		return Num(best), nil
	case "abs":
		if len(args) != 1 || args[0].Kind() != KindNumber {
			return Null, evalErrf(e, "abs takes 1 numeric argument")
		}
		return Num(math.Abs(args[0].AsNum())), nil
	case "floor":
		if len(args) != 1 || args[0].Kind() != KindNumber {
			return Null, evalErrf(e, "floor takes 1 numeric argument")
		}
		return Num(math.Floor(args[0].AsNum())), nil
	case "ceil":
		if len(args) != 1 || args[0].Kind() != KindNumber {
			return Null, evalErrf(e, "ceil takes 1 numeric argument")
		}
		return Num(math.Ceil(args[0].AsNum())), nil
	case "concat":
		var sb strings.Builder
		for _, a := range args {
			if a.Kind() == KindString {
				sb.WriteString(a.AsStr())
			} else {
				sb.WriteString(a.String())
			}
		}
		return Str(sb.String()), nil
	case "range":
		if len(args) != 1 || args[0].Kind() != KindNumber {
			return Null, evalErrf(e, "range takes 1 numeric argument")
		}
		n := args[0].AsInt()
		if n < 0 {
			return Null, evalErrf(e, "range of negative %d", n)
		}
		vs := make([]Value, n)
		for i := range vs {
			vs[i] = Int(i)
		}
		return List(vs...), nil
	case "contains":
		if len(args) != 2 || args[0].Kind() != KindList {
			return Null, evalErrf(e, "contains takes (list, value)")
		}
		for i := 0; i < args[0].Len(); i++ {
			if args[0].At(i).Equal(args[1]) {
				return Bool(true), nil
			}
		}
		return Bool(false), nil
	case "flatten":
		if len(args) != 1 || args[0].Kind() != KindList {
			return Null, evalErrf(e, "flatten takes 1 list argument")
		}
		var out []Value
		for i := 0; i < args[0].Len(); i++ {
			el := args[0].At(i)
			if el.Kind() == KindList {
				out = append(out, el.AsList()...)
			} else {
				out = append(out, el)
			}
		}
		return List(out...), nil
	}
	return Null, evalErrf(e, "unknown function %q", e.fn)
}

func (e callExpr) String() string {
	parts := make([]string, len(e.args))
	for i, a := range e.args {
		parts[i] = a.String()
	}
	return e.fn + "(" + strings.Join(parts, ", ") + ")"
}

func (e callExpr) refs(dst []string) []string {
	for _, a := range e.args {
		dst = a.refs(dst)
	}
	return dst
}

// builtins is the set of callable function names; used by the parser to
// distinguish calls from references and by validation.
var builtins = map[string]bool{
	"defined": true, "len": true, "min": true, "max": true, "abs": true,
	"floor": true, "ceil": true, "concat": true, "range": true,
	"contains": true, "flatten": true,
}

// exprParser is a recursive-descent parser over a token slice.
type exprParser struct {
	toks []token
	pos  int
}

func (p *exprParser) cur() token  { return p.toks[p.pos] }
func (p *exprParser) bump() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *exprParser) errorf(format string, args ...any) error {
	t := p.cur()
	return &SyntaxError{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *exprParser) eatPunct(s string) bool {
	if p.cur().kind == tokPunct && p.cur().text == s {
		p.pos++
		return true
	}
	return false
}

func (p *exprParser) expectPunct(s string) error {
	if !p.eatPunct(s) {
		return p.errorf("expected %q, found %s", s, p.cur())
	}
	return nil
}

// ParseExpr parses a standalone expression.
func ParseExpr(src string) (Expr, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &exprParser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tokEOF {
		return nil, p.errorf("unexpected %s after expression", p.cur())
	}
	return e, nil
}

func (p *exprParser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *exprParser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokPunct && p.cur().text == "||" {
		p.bump()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = binExpr{"||", l, r}
	}
	return l, nil
}

func (p *exprParser) parseAnd() (Expr, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokPunct && p.cur().text == "&&" {
		p.bump()
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = binExpr{"&&", l, r}
	}
	return l, nil
}

func (p *exprParser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if p.cur().kind == tokPunct {
		switch p.cur().text {
		case "==", "!=", "<", "<=", ">", ">=":
			op := p.bump().text
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return binExpr{op, l, r}, nil
		}
	}
	return l, nil
}

func (p *exprParser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokPunct && (p.cur().text == "+" || p.cur().text == "-") {
		op := p.bump().text
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = binExpr{op, l, r}
	}
	return l, nil
}

func (p *exprParser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokPunct && (p.cur().text == "*" || p.cur().text == "/" || p.cur().text == "%") {
		op := p.bump().text
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = binExpr{op, l, r}
	}
	return l, nil
}

func (p *exprParser) parseUnary() (Expr, error) {
	if p.cur().kind == tokPunct && (p.cur().text == "!" || p.cur().text == "-") {
		op := p.bump().text
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return unaryExpr{op, x}, nil
	}
	return p.parsePostfix()
}

func (p *exprParser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokPunct && p.cur().text == "[" {
		p.bump()
		i, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("]"); err != nil {
			return nil, err
		}
		x = indexExpr{x, i}
	}
	return x, nil
}

func (p *exprParser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.bump()
		return Lit(Num(t.num)), nil
	case tokString:
		p.bump()
		return Lit(Str(t.str)), nil
	case tokIdent:
		switch t.text {
		case "true":
			p.bump()
			return Lit(Bool(true)), nil
		case "false":
			p.bump()
			return Lit(Bool(false)), nil
		case "null":
			p.bump()
			return Lit(Null), nil
		}
		p.bump()
		// Function call.
		if builtins[t.text] && p.cur().kind == tokPunct && p.cur().text == "(" {
			p.bump()
			var args []Expr
			if !(p.cur().kind == tokPunct && p.cur().text == ")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if !p.eatPunct(",") {
						break
					}
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return callExpr{t.text, args}, nil
		}
		// Qualified reference task.field.
		name := t.text
		if p.cur().kind == tokPunct && p.cur().text == "." {
			p.bump()
			f := p.cur()
			if f.kind != tokIdent {
				return nil, p.errorf("expected field name after '.', found %s", f)
			}
			p.bump()
			name = name + "." + f.text
		}
		return Ref(name), nil
	case tokPunct:
		switch t.text {
		case "(":
			p.bump()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return e, nil
		case "[":
			p.bump()
			var elems []Expr
			if !(p.cur().kind == tokPunct && p.cur().text == "]") {
				for {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					elems = append(elems, e)
					if !p.eatPunct(",") {
						break
					}
				}
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			return listExpr{elems}, nil
		}
	}
	return nil, p.errorf("unexpected %s in expression", t)
}
