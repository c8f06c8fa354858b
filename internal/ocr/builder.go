package ocr

import "fmt"

// Builder constructs processes programmatically — the library counterpart
// of the paper's graphical process-creation element (§3.2: "the process
// creation element will allow users to create processes by simply
// selecting activities from the library management element, combining
// them ... and specifying the flow of control and data among them"). It
// accumulates definition errors and reports them all at Build.
//
//	p, err := ocr.NewBuilder("AllVsAll").
//	    Inputs("db", "queue").
//	    Outputs("result").
//	    Activity("Align", "darwin.align",
//	        ocr.Arg("db", "db"), ocr.Out("matches"), ocr.MapTo("matches", "result"),
//	        ocr.Retry(3)).
//	    Flow("Align", "Merge").
//	    Build()
type Builder struct {
	p    *Process
	errs []error
}

// NewBuilder starts a process definition.
func NewBuilder(name string) *Builder {
	return &Builder{p: &Process{Name: name}}
}

func (b *Builder) errorf(format string, args ...any) *Builder {
	b.errs = append(b.errs, fmt.Errorf("ocr: builder %s: "+format,
		append([]any{b.p.Name}, args...)...))
	return b
}

// Doc sets the process documentation string.
func (b *Builder) Doc(doc string) *Builder {
	b.p.Doc = doc
	return b
}

// Inputs declares process inputs.
func (b *Builder) Inputs(names ...string) *Builder {
	b.p.Inputs = append(b.p.Inputs, names...)
	return b
}

// Outputs declares process outputs.
func (b *Builder) Outputs(names ...string) *Builder {
	b.p.Outputs = append(b.p.Outputs, names...)
	return b
}

// Data declares a whiteboard entry; init may be an expression string or
// "" for an undefined entry.
func (b *Builder) Data(name, init string) *Builder {
	decl := DataDecl{Name: name}
	if init != "" {
		e, err := ParseExpr(init)
		if err != nil {
			return b.errorf("DATA %s: %v", name, err)
		}
		decl.Init = e
	}
	b.p.Data = append(b.p.Data, decl)
	return b
}

// TaskOption configures a task under construction.
type TaskOption func(b *Builder, t *Task)

// Arg binds an activity/subprocess argument to an expression.
func Arg(name, expr string) TaskOption {
	return func(b *Builder, t *Task) {
		e, err := ParseExpr(expr)
		if err != nil {
			b.errorf("task %s argument %s: %v", t.Name, name, err)
			return
		}
		t.Args = append(t.Args, Binding{Name: name, Expr: e})
	}
}

// Out declares output fields.
func Out(fields ...string) TaskOption {
	return func(_ *Builder, t *Task) { t.Outs = append(t.Outs, fields...) }
}

// MapTo adds a mapping-phase entry (output field → whiteboard name).
func MapTo(from, to string) TaskOption {
	return func(_ *Builder, t *Task) { t.Maps = append(t.Maps, Mapping{From: from, To: to}) }
}

// Retry sets the retry count.
func Retry(n int) TaskOption {
	return func(_ *Builder, t *Task) { t.Retries = n }
}

// Timeout bounds one attempt's wall-clock run time in seconds; on expiry
// the dispatcher kills the job and requeues the activity.
func Timeout(seconds float64) TaskOption {
	return func(_ *Builder, t *Task) { t.Timeout = seconds }
}

// Priority sets the scheduling priority.
func Priority(n int) TaskOption {
	return func(_ *Builder, t *Task) { t.Priority = n }
}

// Cost sets the scheduler cost hint in seconds.
func Cost(seconds float64) TaskOption {
	return func(_ *Builder, t *Task) { t.Cost = seconds }
}

// OnFailureIgnore makes permanent failure non-fatal (null outputs).
func OnFailureIgnore() TaskOption {
	return func(_ *Builder, t *Task) { t.OnFail = FailIgnore }
}

// OnFailureAlternative runs alt when the task permanently fails.
func OnFailureAlternative(alt string) TaskOption {
	return func(_ *Builder, t *Task) {
		t.OnFail = FailAlternative
		t.AltTask = alt
	}
}

// Undo names the compensation program (spheres of atomicity).
func Undo(program string) TaskOption {
	return func(_ *Builder, t *Task) { t.Undo = program }
}

// Atomic marks a block as a sphere of atomicity.
func Atomic() TaskOption {
	return func(b *Builder, t *Task) {
		if t.Kind != KindBlock {
			b.errorf("task %s: Atomic applies to blocks", t.Name)
			return
		}
		t.Atomic = true
	}
}

// Activity adds an activity bound to a program.
func (b *Builder) Activity(name, program string, opts ...TaskOption) *Builder {
	t := &Task{Name: name, Kind: KindActivity, Program: program}
	for _, o := range opts {
		o(b, t)
	}
	b.p.Tasks = append(b.p.Tasks, t)
	return b
}

// Await adds an event-wait activity (§3.1 event handling).
func (b *Builder) Await(name, event string, opts ...TaskOption) *Builder {
	t := &Task{Name: name, Kind: KindActivity, Await: event}
	for _, o := range opts {
		o(b, t)
	}
	b.p.Tasks = append(b.p.Tasks, t)
	return b
}

// Block adds a plain block whose body is built by body.
func (b *Builder) Block(name string, body func(*Builder), opts ...TaskOption) *Builder {
	inner := NewBuilder(name)
	body(inner)
	b.errs = append(b.errs, inner.errs...)
	t := &Task{Name: name, Kind: KindBlock, Body: inner.p}
	for _, o := range opts {
		o(b, t)
	}
	b.p.Tasks = append(b.p.Tasks, t)
	return b
}

// ParallelBlock adds a parallel task expanding over the list expression,
// binding each element to elemVar inside the body.
func (b *Builder) ParallelBlock(name, over, elemVar string, body func(*Builder), opts ...TaskOption) *Builder {
	e, err := ParseExpr(over)
	if err != nil {
		return b.errorf("block %s OVER: %v", name, err)
	}
	inner := NewBuilder(name)
	body(inner)
	b.errs = append(b.errs, inner.errs...)
	t := &Task{Name: name, Kind: KindBlock, Parallel: true, Over: e, As: elemVar, Body: inner.p}
	for _, o := range opts {
		o(b, t)
	}
	b.p.Tasks = append(b.p.Tasks, t)
	return b
}

// Subprocess adds a late-bound subprocess reference.
func (b *Builder) Subprocess(name, uses string, opts ...TaskOption) *Builder {
	t := &Task{Name: name, Kind: KindSubprocess, Uses: uses}
	for _, o := range opts {
		o(b, t)
	}
	b.p.Tasks = append(b.p.Tasks, t)
	return b
}

// Flow adds an unconditional control connector.
func (b *Builder) Flow(from, to string) *Builder {
	b.p.Connectors = append(b.p.Connectors, Connector{From: from, To: to})
	return b
}

// FlowIf adds a conditional control connector.
func (b *Builder) FlowIf(from, to, cond string) *Builder {
	e, err := ParseExpr(cond)
	if err != nil {
		return b.errorf("connector %s -> %s: %v", from, to, err)
	}
	b.p.Connectors = append(b.p.Connectors, Connector{From: from, To: to, Cond: e})
	return b
}

// Build validates and returns the process. Definition errors accumulated
// along the way are reported together with validation errors.
func (b *Builder) Build() (*Process, error) {
	if len(b.errs) > 0 {
		return nil, joinErrors(b.errs)
	}
	if err := b.p.Validate(); err != nil {
		return nil, err
	}
	return b.p, nil
}

// MustBuild is Build that panics on error, for tests and static process
// definitions.
func (b *Builder) MustBuild() *Process {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

func joinErrors(errs []error) error {
	if len(errs) == 1 {
		return errs[0]
	}
	msg := errs[0].Error()
	for _, e := range errs[1:] {
		msg += "\n" + e.Error()
	}
	return fmt.Errorf("%s", msg)
}
