package core

// CheckCompiled lets template_ext_test.go hold the compile step against its
// oracle for templates whose packages import this one.
var CheckCompiled = checkCompiled

// hydrateNow hydrates the stub of instance id at once, in a turn of its own:
// the state recovery would have built had it not deferred the instance.
func hydrateNow(e *Engine, id string) error {
	in, ok := e.lookup(id)
	if !ok {
		return ErrUnknownInstance
	}
	mu := e.shardFor(id)
	mu.Lock()
	defer e.endTurn(in, mu)
	e.beginTurn(in)
	return e.hydrateLocked(in)
}
