package core

import "bioopera/internal/ocr"

// This file is the compile step. A process is compiled once — when New loads
// the template space, when RegisterTemplate stores a new definition, or when
// recovery meets a stored text nothing registered has — and every scope that
// runs it points at that one compiledProc. Nothing writes through scope.Proc:
// what a scope mutates (whiteboard, task states, ConnIn) is its own, so
// sharing needs no lock, and an instance keeps the definition it started with
// simply by keeping its pointer (§3.2, late binding).

// compiledProc is a process with everything navigation and persistence derive
// from it worked out in advance. Immutable after compile.
type compiledProc struct {
	*ocr.Process
	text  string // ocr.Format(Process): the value of the proc/ record
	bytes []byte // text, as the store takes it: read-only, every proc/ put shares it
	hash  string // procHash(text): the proc/ key, and what a create record references
	tasks []compiledTask
	index map[string]*compiledTask
	// roots are the tasks a starting scope activates: no incoming connector,
	// and not a failure alternative (those run only when invoked).
	roots []*ocr.Task
	all   []*compiledProc // this process and every block body under it
}

// compiledTask is one task with its place in the graph.
type compiledTask struct {
	*ocr.Task
	incoming int           // connectors targeting the task: the length of its ConnIn
	out      []edge        // connectors leaving it, in declaration order
	body     *compiledProc // the compiled body of a block
	// standby marks a failure alternative no connector leads to: inactive
	// until invoked, it does not keep its scope from completing.
	standby bool
}

// edge is one outgoing connector: its condition, its target, and the slot in
// the target's ConnIn that holds its decision.
type edge struct {
	cond ocr.Expr // nil means TRUE
	to   *ocr.Task
	slot int
}

// compile builds the shared form of p, which must not change afterwards.
func compile(p *ocr.Process) *compiledProc {
	text := ocr.Format(p)
	cp := &compiledProc{
		Process: p,
		text:    text,
		bytes:   []byte(text),
		hash:    procHash(text),
		tasks:   make([]compiledTask, len(p.Tasks)),
		index:   make(map[string]*compiledTask, len(p.Tasks)),
	}
	cp.all = append(cp.all, cp)
	for i, t := range p.Tasks {
		ct := &cp.tasks[i]
		ct.Task = t
		if t.Body != nil {
			ct.body = compile(t.Body)
			cp.all = append(cp.all, ct.body.all...)
		}
		cp.index[t.Name] = ct
	}
	for _, c := range p.Connectors {
		from, to := cp.index[c.From], cp.index[c.To]
		if from == nil || to == nil {
			// Registered templates are validated; a text recovery parsed is
			// not, and a dangling connector there is ignored, not followed.
			continue
		}
		from.out = append(from.out, edge{cond: c.Cond, to: to.Task, slot: to.incoming})
		to.incoming++
	}
	alts := make(map[string]bool)
	for _, t := range p.Tasks {
		if t.OnFail == ocr.FailAlternative && t.AltTask != "" {
			alts[t.AltTask] = true
		}
	}
	for i := range cp.tasks {
		ct := &cp.tasks[i]
		if ct.incoming > 0 {
			continue
		}
		if alts[ct.Name] {
			ct.standby = true
		} else {
			cp.roots = append(cp.roots, ct.Task)
		}
	}
	return cp
}

// setTemplate binds name to cp in the template space and files cp and its
// bodies under their content hashes. Replacing a definition rebuilds the hash
// index from what is still registered, so it never outgrows the templates.
// Caller holds emu.
func (e *Engine) setTemplate(name string, cp *compiledProc) {
	_, replaced := e.templates[name]
	e.templates[name] = cp
	if !replaced {
		e.fileProc(cp)
		return
	}
	clear(e.byHash)
	for _, tpl := range e.templates {
		for _, p := range tpl.all {
			e.byHash[p.hash] = p
		}
	}
}

// fileProc enters cp and its bodies in the hash index. Equal hashes mean equal
// texts, so whichever entry a hash ends up with serves. Caller holds emu.
func (e *Engine) fileProc(cp *compiledProc) {
	for _, p := range cp.all {
		e.byHash[p.hash] = p
	}
}

// resolveProc returns the compiled form of a stored process text: the
// registered template or body with that content hash when there is one —
// the common case, which parses nothing — and otherwise the text parsed and
// compiled, then filed so the next scope with the same text shares it. hash
// may be empty (a create record that carries its text inline). text is
// read, never kept: recovery passes a stored record's bytes.
func (e *Engine) resolveProc(hash string, text []byte) (*compiledProc, error) {
	if hash == "" {
		hash = procHash(string(text))
	}
	e.emu.RLock()
	cp := e.byHash[hash]
	e.emu.RUnlock()
	if cp != nil {
		return cp, nil
	}
	p, err := ocr.ParseProcess(string(text))
	if err != nil {
		return nil, err
	}
	cp = compile(p)
	e.emu.Lock()
	defer e.emu.Unlock()
	if first := e.byHash[hash]; first != nil {
		return first, nil // another recovery worker compiled the same text meanwhile
	}
	e.fileProc(cp)
	// Also under the hash it was asked for: a text an older printer wrote
	// formats to a different one, and must not be parsed once per scope.
	e.byHash[hash] = cp
	return cp, nil
}
