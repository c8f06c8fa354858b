package core

import (
	"fmt"
	"slices"
	"strings"

	"bioopera/internal/ocr"
)

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
	bytes []byte // ocr.Format(Process), read-only: the value of its name and version records
	hash  string // procHash of the text: its version record's key, and what a create record references
	tasks []compiledTask
	index map[string]*compiledTask
	// byName lists the positions of tasks in name order: the order a delta
	// checkpoint writes a scope's dirty task records in.
	byName []int
	conns  int // connectors between tasks: the length of a scope's ConnIn array
	// roots are the tasks a starting scope activates: no incoming connector,
	// and not a failure alternative (those run only when invoked).
	roots []*ocr.Task
	all   []*compiledProc // this process and every block body under it
}

// compiledTask is one task with its place in the graph.
type compiledTask struct {
	*ocr.Task
	pos      int           // its index in tasks, and of its slot in a scope's tasks
	incoming int           // connectors targeting the task: the length of its ConnIn
	connOff  int           // where its ConnIn starts in the scope's ConnIn array
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
		bytes:   []byte(text),
		hash:    procHash(text),
		tasks:   make([]compiledTask, len(p.Tasks)),
		index:   make(map[string]*compiledTask, len(p.Tasks)),
	}
	cp.all = append(cp.all, cp)
	for i, t := range p.Tasks {
		ct := &cp.tasks[i]
		ct.Task = t
		ct.pos = i
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
	cp.byName = make([]int, len(cp.tasks))
	for i := range cp.tasks {
		ct := &cp.tasks[i]
		cp.byName[i] = i
		ct.connOff = cp.conns
		cp.conns += ct.incoming
		if ct.incoming > 0 {
			continue
		}
		if alts[ct.Name] {
			ct.standby = true
		} else {
			cp.roots = append(cp.roots, ct.Task)
		}
	}
	slices.SortFunc(cp.byName, func(a, b int) int { return strings.Compare(cp.tasks[a].Name, cp.tasks[b].Name) })
	return cp
}

// setTemplate binds name to cp, or to the entry already filed for its text,
// in the template space. Caller holds emu.
func (e *Engine) setTemplate(name string, cp *compiledProc) {
	e.templates[name] = e.fileProc(cp)
}

// fileProc returns the one compiledProc for cp's text: the entry the hash
// index already holds, or else cp, filed with its bodies, each body replaced
// by the entry filed for its text first. The index only grows — a hash, once
// filed, keeps its entry, so every scope of one text shares one pointer
// whatever was registered or recovered since. cp must not be published yet.
// Caller holds emu.
func (e *Engine) fileProc(cp *compiledProc) *compiledProc {
	if filed := e.byHash[cp.hash]; filed != nil {
		return filed
	}
	cp.all = cp.all[:1]
	for i := range cp.tasks {
		if ct := &cp.tasks[i]; ct.body != nil {
			ct.body = e.fileProc(ct.body)
			cp.all = append(cp.all, ct.body.all...)
		}
	}
	e.byHash[cp.hash] = cp
	return cp
}

// resolveProc returns the compiled form of the process a scope-create record
// names: the registered template or body with that content hash when there
// is one — the common case, which parses nothing — and otherwise the hash's
// version record as Recover read it (or the record's inline text, when it
// names no hash) parsed and compiled, then filed so the next scope with the
// same text shares it.
func (e *Engine) resolveProc(hash, inline string) (*compiledProc, error) {
	if hash == "" {
		hash = procHash(inline)
	}
	e.emu.RLock()
	cp, text := e.byHash[hash], e.versions[hash]
	e.emu.RUnlock()
	if cp != nil {
		return cp, nil
	}
	src := inline
	if text != nil {
		src = string(text)
	}
	if src == "" {
		return nil, fmt.Errorf("process %s has no version record in the template space", hash)
	}
	p, err := ocr.ParseProcess(src)
	if err != nil {
		return nil, fmt.Errorf("invalid process text: %w", err)
	}
	cp = compile(p)
	e.emu.Lock()
	defer e.emu.Unlock()
	if first := e.byHash[hash]; first != nil {
		return first, nil // another recovery worker compiled the same text meanwhile
	}
	cp = e.fileProc(cp)
	// Also under the hash it was asked for: a text an older printer wrote
	// formats to a different one, and must not be parsed once per scope.
	e.byHash[hash] = cp
	return cp, nil
}
