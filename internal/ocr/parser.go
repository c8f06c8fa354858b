package ocr

import (
	"fmt"
	"strings"
)

// keyword spellings (matched case-insensitively).
const (
	kwProcess     = "PROCESS"
	kwInput       = "INPUT"
	kwOutput      = "OUTPUT"
	kwData        = "DATA"
	kwActivity    = "ACTIVITY"
	kwBlock       = "BLOCK"
	kwSubprocess  = "SUBPROCESS"
	kwCall        = "CALL"
	kwOut         = "OUT"
	kwMap         = "MAP"
	kwRetry       = "RETRY"
	kwTimeout     = "TIMEOUT"
	kwPriority    = "PRIORITY"
	kwCost        = "COST"
	kwDoc         = "DOC"
	kwOn          = "ON"
	kwFailure     = "FAILURE"
	kwAbort       = "ABORT"
	kwIgnore      = "IGNORE"
	kwAlternative = "ALTERNATIVE"
	kwParallel    = "PARALLEL"
	kwOver        = "OVER"
	kwAs          = "AS"
	kwUses        = "USES"
	kwIf          = "IF"
	kwIn          = "IN"
	kwAtomic      = "ATOMIC"
	kwUndo        = "UNDO"
	kwAwait       = "AWAIT"
)

// procParser parses the OCR process syntax; it embeds the expression
// parser so conditions and bindings share the token stream.
type procParser struct {
	exprParser
}

func (p *procParser) isKw(kw string) bool {
	t := p.cur()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *procParser) eatKw(kw string) bool {
	if p.isKw(kw) {
		p.pos++
		return true
	}
	return false
}

func (p *procParser) expectKw(kw string) error {
	if !p.eatKw(kw) {
		return p.errorf("expected %s, found %s", kw, p.cur())
	}
	return nil
}

func (p *procParser) expectIdent() (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", p.errorf("expected identifier, found %s", t)
	}
	p.pos++
	return t.text, nil
}

func (p *procParser) expectString() (string, error) {
	t := p.cur()
	if t.kind != tokString {
		return "", p.errorf("expected string literal, found %s", t)
	}
	p.pos++
	return t.str, nil
}

func (p *procParser) expectNumber() (float64, error) {
	t := p.cur()
	if t.kind != tokNumber {
		return 0, p.errorf("expected number, found %s", t)
	}
	p.pos++
	return t.num, nil
}

// ParseProcess parses OCR source containing exactly one process.
func ParseProcess(src string) (*Process, error) {
	ps, err := ParseFile(src)
	if err != nil {
		return nil, err
	}
	if len(ps) != 1 {
		return nil, fmt.Errorf("ocr: expected 1 process, found %d", len(ps))
	}
	return ps[0], nil
}

// ParseFile parses OCR source containing one or more processes.
func ParseFile(src string) ([]*Process, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &procParser{exprParser{toks: toks}}
	var out []*Process
	for p.cur().kind != tokEOF {
		proc, err := p.parseProcess()
		if err != nil {
			return nil, err
		}
		out = append(out, proc)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("ocr: no process in input")
	}
	return out, nil
}

func (p *procParser) parseProcess() (*Process, error) {
	if err := p.expectKw(kwProcess); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	proc := &Process{Name: name}
	if p.cur().kind == tokString {
		proc.Doc = p.bump().str
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	for !(p.cur().kind == tokPunct && p.cur().text == "}") && p.cur().kind != tokEOF {
		if err := p.parseBodyItem(proc, false); err != nil {
			return nil, err
		}
	}
	return proc, p.expectPunct("}")
}

// parseBodyItem parses one declaration, task or connector into body: a
// process's when inBlock is false, a block's when it is true. A block
// declares no INPUT: it inherits the parent whiteboard.
func (p *procParser) parseBodyItem(body *Process, inBlock bool) error {
	t := p.cur()
	switch {
	case p.isKw(kwInput):
		if inBlock {
			return p.errorf("INPUT is not allowed inside a block (blocks inherit the parent whiteboard)")
		}
		p.pos++
		names, err := p.parseIdentList()
		if err != nil {
			return err
		}
		body.Inputs = append(body.Inputs, names...)
		return p.expectPunct(";")
	case p.isKw(kwOutput):
		p.pos++
		names, err := p.parseIdentList()
		if err != nil {
			return err
		}
		body.Outputs = append(body.Outputs, names...)
		return p.expectPunct(";")
	case p.isKw(kwData):
		p.pos++
		name, err := p.expectIdent()
		if err != nil {
			return err
		}
		decl := DataDecl{Name: name}
		if p.eatPunct("=") {
			e, err := p.parseExpr()
			if err != nil {
				return err
			}
			decl.Init = e
		}
		body.Data = append(body.Data, decl)
		return p.expectPunct(";")
	case p.isKw(kwActivity):
		return addTask(body, p.parseActivity)
	case p.isKw(kwBlock):
		return addTask(body, p.parseBlock)
	case p.isKw(kwSubprocess):
		return addTask(body, p.parseSubprocess)
	}
	// Connector: IDENT -> IDENT [IF expr] ;
	from, err := p.expectIdent()
	if err != nil {
		if inBlock {
			return p.errorf("expected task, declaration or connector in block")
		}
		return p.errorf("expected declaration, task or connector, found %s", t)
	}
	if err := p.expectPunct("->"); err != nil {
		return err
	}
	to, err := p.expectIdent()
	if err != nil {
		return err
	}
	conn := Connector{From: from, To: to}
	if p.eatKw(kwIf) {
		e, err := p.parseExpr()
		if err != nil {
			return err
		}
		conn.Cond = e
	}
	body.Connectors = append(body.Connectors, conn)
	return p.expectPunct(";")
}

// addTask parses one task and appends it to body.
func addTask(body *Process, parse func() (*Task, error)) error {
	task, err := parse()
	if err == nil {
		body.Tasks = append(body.Tasks, task)
	}
	return err
}

func (p *procParser) parseIdentList() ([]string, error) {
	var names []string
	for {
		n, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		names = append(names, n)
		if !p.eatPunct(",") {
			return names, nil
		}
	}
}

// parseCommonClause handles the clauses shared by all task kinds. It
// reports whether it consumed a clause.
func (p *procParser) parseCommonClause(t *Task) (bool, error) {
	switch {
	case p.isKw(kwMap):
		p.pos++
		for {
			from, err := p.expectIdent()
			if err != nil {
				return true, err
			}
			if err := p.expectPunct("->"); err != nil {
				return true, err
			}
			to, err := p.expectIdent()
			if err != nil {
				return true, err
			}
			t.Maps = append(t.Maps, Mapping{From: from, To: to})
			if !p.eatPunct(",") {
				break
			}
		}
		return true, p.expectPunct(";")
	case p.isKw(kwRetry):
		p.pos++
		n, err := p.expectNumber()
		if err != nil {
			return true, err
		}
		if n < 0 || n != float64(int(n)) {
			return true, p.errorf("RETRY count must be a non-negative integer")
		}
		t.Retries = int(n)
		return true, p.expectPunct(";")
	case p.isKw(kwTimeout):
		p.pos++
		n, err := p.expectNumber()
		if err != nil {
			return true, err
		}
		if n <= 0 {
			return true, p.errorf("TIMEOUT must be a positive number of seconds")
		}
		t.Timeout = n
		return true, p.expectPunct(";")
	case p.isKw(kwPriority):
		p.pos++
		n, err := p.expectNumber()
		if err != nil {
			return true, err
		}
		t.Priority = int(n)
		return true, p.expectPunct(";")
	case p.isKw(kwCost):
		p.pos++
		n, err := p.expectNumber()
		if err != nil {
			return true, err
		}
		t.Cost = n
		return true, p.expectPunct(";")
	case p.isKw(kwDoc):
		p.pos++
		s, err := p.expectString()
		if err != nil {
			return true, err
		}
		t.Doc = s
		return true, p.expectPunct(";")
	case p.isKw(kwOn):
		p.pos++
		if err := p.expectKw(kwFailure); err != nil {
			return true, err
		}
		switch {
		case p.eatKw(kwAbort):
			t.OnFail = FailAbort
		case p.eatKw(kwIgnore):
			t.OnFail = FailIgnore
		case p.eatKw(kwAlternative):
			t.OnFail = FailAlternative
			alt, err := p.expectIdent()
			if err != nil {
				return true, err
			}
			t.AltTask = alt
		default:
			return true, p.errorf("expected ABORT, IGNORE or ALTERNATIVE after ON FAILURE")
		}
		return true, p.expectPunct(";")
	}
	return false, nil
}

func (p *procParser) parseBindList(t *Task) error {
	if p.cur().kind == tokPunct && p.cur().text == ")" {
		return nil
	}
	for {
		name, err := p.expectIdent()
		if err != nil {
			return err
		}
		if err := p.expectPunct("="); err != nil {
			return err
		}
		e, err := p.parseExpr()
		if err != nil {
			return err
		}
		t.Args = append(t.Args, Binding{Name: name, Expr: e})
		if !p.eatPunct(",") {
			return nil
		}
	}
}

func (p *procParser) parseActivity() (*Task, error) {
	p.pos++ // ACTIVITY
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	t := &Task{Name: name, Kind: KindActivity}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	for !(p.cur().kind == tokPunct && p.cur().text == "}") {
		if p.cur().kind == tokEOF {
			return nil, p.errorf("unterminated ACTIVITY %s", name)
		}
		done, err := p.parseCommonClause(t)
		if err != nil {
			return nil, err
		}
		if done {
			continue
		}
		switch {
		case p.isKw(kwCall):
			p.pos++
			prog, err := p.parseDotted()
			if err != nil {
				return nil, err
			}
			t.Program = prog
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			if err := p.parseBindList(t); err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			if err := p.expectPunct(";"); err != nil {
				return nil, err
			}
		case p.isKw(kwOut):
			p.pos++
			names, err := p.parseIdentList()
			if err != nil {
				return nil, err
			}
			t.Outs = append(t.Outs, names...)
			if err := p.expectPunct(";"); err != nil {
				return nil, err
			}
		case p.isKw(kwUndo):
			p.pos++
			prog, err := p.parseDotted()
			if err != nil {
				return nil, err
			}
			t.Undo = prog
			if err := p.expectPunct(";"); err != nil {
				return nil, err
			}
		case p.isKw(kwAwait):
			p.pos++
			ev, err := p.expectString()
			if err != nil {
				return nil, err
			}
			t.Await = ev
			if err := p.expectPunct(";"); err != nil {
				return nil, err
			}
		default:
			return nil, p.errorf("unexpected %s in ACTIVITY %s", p.cur(), name)
		}
	}
	p.pos++ // }
	return t, nil
}

func (p *procParser) parseDotted() (string, error) {
	first, err := p.expectIdent()
	if err != nil {
		return "", err
	}
	parts := []string{first}
	for p.eatPunct(".") {
		next, err := p.expectIdent()
		if err != nil {
			return "", err
		}
		parts = append(parts, next)
	}
	return strings.Join(parts, "."), nil
}

func (p *procParser) parseBlock() (*Task, error) {
	p.pos++ // BLOCK
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	t := &Task{Name: name, Kind: KindBlock, Body: &Process{Name: name}}
	if p.eatKw(kwAtomic) {
		t.Atomic = true
	}
	if p.eatKw(kwParallel) {
		t.Parallel = true
		if err := p.expectKw(kwOver); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		t.Over = e
		if err := p.expectKw(kwAs); err != nil {
			return nil, err
		}
		as, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		t.As = as
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	for !(p.cur().kind == tokPunct && p.cur().text == "}") {
		if p.cur().kind == tokEOF {
			return nil, p.errorf("unterminated BLOCK %s", name)
		}
		// Block-level clauses (MAP/RETRY/...) attach to the block
		// task itself; everything else belongs to the body.
		done, err := p.parseCommonClause(t)
		if err != nil {
			return nil, err
		}
		if done {
			continue
		}
		if err := p.parseBodyItem(t.Body, true); err != nil {
			return nil, err
		}
	}
	p.pos++ // }
	return t, nil
}

func (p *procParser) parseSubprocess() (*Task, error) {
	p.pos++ // SUBPROCESS
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	t := &Task{Name: name, Kind: KindSubprocess}
	if err := p.expectKw(kwUses); err != nil {
		return nil, err
	}
	uses, err := p.expectString()
	if err != nil {
		return nil, err
	}
	t.Uses = uses
	if p.eatPunct(";") {
		return t, nil
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	for !(p.cur().kind == tokPunct && p.cur().text == "}") {
		if p.cur().kind == tokEOF {
			return nil, p.errorf("unterminated SUBPROCESS %s", name)
		}
		done, err := p.parseCommonClause(t)
		if err != nil {
			return nil, err
		}
		if done {
			continue
		}
		switch {
		case p.isKw(kwIn):
			p.pos++
			if err := p.parseBindList(t); err != nil {
				return nil, err
			}
			if err := p.expectPunct(";"); err != nil {
				return nil, err
			}
		case p.isKw(kwOut):
			p.pos++
			names, err := p.parseIdentList()
			if err != nil {
				return nil, err
			}
			t.Outs = append(t.Outs, names...)
			if err := p.expectPunct(";"); err != nil {
				return nil, err
			}
		default:
			return nil, p.errorf("unexpected %s in SUBPROCESS %s", p.cur(), name)
		}
	}
	p.pos++ // }
	return t, nil
}
