package core

import (
	"fmt"
	"sort"
	"strings"

	"bioopera/internal/ocr"
)

// This file implements lineage tracking (§6: "lineage tracking is done
// automatically and all dependencies are persistently recorded. This makes
// it possible for the system to recompute processes as data inputs or
// algorithms change").
//
// Lineage is derived from the executed instance: which task produced each
// whiteboard item (through its mapping phase) and which items each task
// read (through its argument bindings and activation conditions). Data
// items are addressed as "scope::name" with "" for the root scope.

// LineageNode describes one data item's provenance.
type LineageNode struct {
	// Item is the qualified data item ("scope::name").
	Item string
	// Producer is the qualified task that wrote it ("scope::task"),
	// or "" for process inputs and DATA initializers.
	Producer string
	// Consumers are the qualified tasks that read it.
	Consumers []string
}

// Lineage is the provenance graph of one instance.
type Lineage struct {
	// Items maps qualified item names to their provenance.
	Items map[string]*LineageNode
	// Reads maps qualified task names to the items they read.
	Reads map[string][]string
	// Writes maps qualified task names to the items they wrote.
	Writes map[string][]string
	// Programs maps qualified task names to their external binding, so
	// "which tasks ran algorithm X" is answerable.
	Programs map[string]string
}

func qualify(scopeID, name string) string { return scopeID + "::" + name }

// Lineage builds the provenance graph of an instance (running or
// finished). It holds the instance's shard lock while reading, so the
// graph is a consistent snapshot even under concurrent navigation. A stub
// hydrates first, which makes the read a turn: the checkpoints
// hydration produces flush when it ends.
func (e *Engine) Lineage(instanceID string) (*Lineage, error) {
	in, ok := e.lookup(instanceID)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownInstance, instanceID)
	}
	mu := e.shardFor(instanceID)
	mu.Lock()
	defer e.endTurn(in, mu)
	if in.stub != nil {
		e.beginTurn(in)
		if err := e.hydrateLocked(in); err != nil {
			return nil, err
		}
	}
	lg := &Lineage{
		Items:    make(map[string]*LineageNode),
		Reads:    make(map[string][]string),
		Writes:   make(map[string][]string),
		Programs: make(map[string]string),
	}
	ids := make([]string, 0, len(in.scopes))
	for id := range in.scopes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		lg.addScope(in.scopes[id])
	}
	return lg, nil
}

func (lg *Lineage) item(name string) *LineageNode {
	n, ok := lg.Items[name]
	if !ok {
		n = &LineageNode{Item: name}
		lg.Items[name] = n
	}
	return n
}

// addScope records the reads/writes of every executed task of a scope.
func (lg *Lineage) addScope(sc *scope) {
	for i, t := range sc.Proc.Tasks {
		ts := &sc.tasks[i]
		if ts.Status == TaskInactive || ts.Status == TaskDead {
			continue
		}
		taskQ := qualify(sc.ID, t.Name)
		if t.Program != "" {
			lg.Programs[taskQ] = t.Program
		}
		// Reads: names referenced by argument bindings.
		seen := map[string]bool{}
		for _, b := range t.Args {
			for _, r := range ocr.Refs(b.Expr) {
				if strings.Contains(r, ".") {
					// task.field reference: depends on that
					// task's output item.
					dot := strings.IndexByte(r, '.')
					src := qualify(sc.ID, "task:"+r[:dot])
					if !seen[src] {
						seen[src] = true
						lg.Reads[taskQ] = append(lg.Reads[taskQ], src)
						lg.item(src).Consumers = append(lg.item(src).Consumers, taskQ)
					}
					continue
				}
				item := qualify(sc.ID, r)
				if !seen[item] {
					seen[item] = true
					lg.Reads[taskQ] = append(lg.Reads[taskQ], item)
					lg.item(item).Consumers = append(lg.item(item).Consumers, taskQ)
				}
			}
		}
		// Writes: mapping targets plus the task's own output item.
		own := qualify(sc.ID, "task:"+t.Name)
		lg.Writes[taskQ] = append(lg.Writes[taskQ], own)
		lg.item(own).Producer = taskQ
		for _, m := range t.Maps {
			item := qualify(sc.ID, m.To)
			lg.Writes[taskQ] = append(lg.Writes[taskQ], item)
			lg.item(item).Producer = taskQ
		}
	}
}

// Producer returns the qualified task that produced a root-scope item, or
// "" when the item is a process input.
func (lg *Lineage) Producer(name string) string {
	if n, ok := lg.Items[qualify("", name)]; ok {
		return n.Producer
	}
	return ""
}

// Affected computes the transitive downstream closure of a root-scope
// data item: every task that must be recomputed if the item changes
// (directly or through intermediate items). Results are sorted.
func (lg *Lineage) Affected(name string) []string {
	return lg.affectedFrom(qualify("", name))
}

// AffectedByProgram computes the tasks to recompute if the named external
// program (algorithm) changes: the tasks bound to it plus everything
// downstream of their outputs (§6: "recompute processes as data inputs or
// algorithms change").
func (lg *Lineage) AffectedByProgram(program string) []string {
	seenTasks := map[string]bool{}
	var queue []string
	for task, prog := range lg.Programs {
		if prog == program {
			seenTasks[task] = true
			queue = append(queue, task)
		}
	}
	sort.Strings(queue)
	return lg.closure(queue, seenTasks)
}

func (lg *Lineage) affectedFrom(item string) []string {
	seenTasks := map[string]bool{}
	var queue []string
	if n, ok := lg.Items[item]; ok {
		for _, c := range n.Consumers {
			if !seenTasks[c] {
				seenTasks[c] = true
				queue = append(queue, c)
			}
		}
	}
	return lg.closure(queue, seenTasks)
}

// closure expands task → written items → consuming tasks until a fixpoint.
func (lg *Lineage) closure(queue []string, seenTasks map[string]bool) []string {
	for len(queue) > 0 {
		task := queue[0]
		queue = queue[1:]
		for _, item := range lg.Writes[task] {
			if n, ok := lg.Items[item]; ok {
				for _, c := range n.Consumers {
					if !seenTasks[c] {
						seenTasks[c] = true
						queue = append(queue, c)
					}
				}
			}
		}
	}
	out := make([]string, 0, len(seenTasks))
	for t := range seenTasks {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}
