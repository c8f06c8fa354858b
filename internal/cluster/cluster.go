package cluster

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"bioopera/internal/ocr"
	"bioopera/internal/sim"
)

// Errors reported to the engine.
var (
	// ErrNodeDown means the target node is unavailable.
	ErrNodeDown = errors.New("cluster: node down")
	// ErrNoFreeCPU means every CPU slot of the node is taken.
	ErrNoFreeCPU = errors.New("cluster: no free cpu")
	// ErrNodeFailed is the failure delivered for jobs lost to a crash.
	ErrNodeFailed = errors.New("cluster: node failed while running job")
	// ErrJobKilled is delivered when the engine kills a job (migration).
	ErrJobKilled = errors.New("cluster: job killed")
	// ErrUnknownNode names a node outside the configuration.
	ErrUnknownNode = errors.New("cluster: unknown node")
)

// JobID identifies a running job (the engine uses activity instance IDs).
type JobID string

// Completion reports the outcome of a job to the engine.
type Completion struct {
	Job     JobID
	Node    string
	CPUTime time.Duration // CPU actually consumed on the node
	Err     error         // infrastructure failure (nil on success)

	// Outputs and ProgramErr are set by executors that ran the
	// external program on the node itself (the local real-time pool);
	// the simulated cluster leaves them nil and the engine runs the
	// program at completion time instead.
	Outputs    map[string]ocr.Value
	ProgramErr error
}

// EventType classifies infrastructure events for the awareness model.
type EventType uint8

// Infrastructure event types.
const (
	EvNodeDown EventType = iota
	EvNodeUp
	EvCPUChange
	EvLoadChange
	EvJobStart
	EvJobEnd
	EvJobFail
)

// String names the event type.
func (t EventType) String() string {
	switch t {
	case EvNodeDown:
		return "node-down"
	case EvNodeUp:
		return "node-up"
	case EvCPUChange:
		return "cpu-change"
	case EvLoadChange:
		return "load-change"
	case EvJobStart:
		return "job-start"
	case EvJobEnd:
		return "job-end"
	case EvJobFail:
		return "job-fail"
	}
	return fmt.Sprintf("event(%d)", uint8(t))
}

// Event is one infrastructure occurrence.
type Event struct {
	At     sim.Time
	Type   EventType
	Node   string
	Detail string
}

// minNiceRate keeps nice jobs progressing even under full external load,
// mirroring OS scheduling (nice never means starved forever).
const minNiceRate = 0.03

// runningJob tracks one job's progress on a node.
type runningJob struct {
	id        JobID
	node      *node
	remaining float64 // reference-CPU seconds of work left
	rate      float64 // reference-units per wall second = speed × share
	share     float64 // fraction of a CPU the job receives
	updated   sim.Time
	cpuUsed   time.Duration
	nice      bool
	timer     sim.Stopper
}

// node is the runtime state of one machine.
type node struct {
	spec    NodeSpec
	cpus    int // current CPU count (upgrades change it)
	up      bool
	extLoad float64 // fraction of the node consumed by other users [0,1]
	jobs    map[JobID]*runningJob
}

// Cluster is the simulated infrastructure. It must only be used from the
// simulation goroutine (the DES is single-threaded by design).
type Cluster struct {
	S     *sim.Sim
	nodes map[string]*node
	order []string // deterministic iteration order

	onCompletion func(Completion)
	onEvent      func(Event)
}

// Options configure a simulated cluster.
type Options struct {
	// InitialCPUs overrides the per-node CPU count at startup (used by
	// the Fig. 6 upgrade scenario: start at 1, upgrade to spec).
	InitialCPUs int
}

// New builds a simulated cluster on s.
func New(s *sim.Sim, spec Spec, opts Options) *Cluster {
	c := &Cluster{
		S:     s,
		nodes: make(map[string]*node, len(spec.Nodes)),
	}
	for _, ns := range spec.Nodes {
		cpus := ns.CPUs
		if opts.InitialCPUs > 0 && opts.InitialCPUs < cpus {
			cpus = opts.InitialCPUs
		}
		c.nodes[ns.Name] = &node{spec: ns, cpus: cpus, up: true, jobs: make(map[JobID]*runningJob)}
		c.order = append(c.order, ns.Name)
	}
	return c
}

// SetHandlers installs the completion callback, required before Start, and
// the infrastructure-event callback (may be nil). They are set after
// construction because the engine and cluster reference each other.
func (c *Cluster) SetHandlers(onCompletion func(Completion), onEvent func(Event)) {
	c.onCompletion = onCompletion
	c.onEvent = onEvent
}

func (c *Cluster) emit(t EventType, nodeName, detail string) {
	if c.onEvent != nil {
		c.onEvent(Event{At: c.S.Now(), Type: t, Node: nodeName, Detail: detail})
	}
}

// NodeView is a scheduler-facing snapshot of one node.
type NodeView struct {
	Name    string
	OS      string
	Up      bool
	CPUs    int
	Speed   float64
	Running int     // BioOpera jobs currently on the node
	ExtLoad float64 // external (non-BioOpera) load fraction
}

// FreeSlots returns how many more jobs the node can take.
func (v NodeView) FreeSlots() int {
	if !v.Up {
		return 0
	}
	return v.CPUs - v.Running
}

// EffectiveSpeed estimates the rate a new nice job would get.
func (v NodeView) EffectiveSpeed() float64 {
	share := 1 - v.ExtLoad
	if share < minNiceRate {
		share = minNiceRate
	}
	return v.Speed * share
}

// Nodes returns a deterministic snapshot of every node.
func (c *Cluster) Nodes() []NodeView { return c.AppendNodes(nil) }

// AppendNodes appends that snapshot to dst (see Directory.AppendNodes).
func (c *Cluster) AppendNodes(dst []NodeView) []NodeView {
	if dst == nil {
		dst = make([]NodeView, 0, len(c.order))
	}
	for _, name := range c.order {
		dst = append(dst, c.view(c.nodes[name]))
	}
	return dst
}

func (c *Cluster) view(n *node) NodeView {
	return NodeView{
		Name:    n.spec.Name,
		OS:      n.spec.OS,
		Up:      n.up,
		CPUs:    n.cpus,
		Speed:   n.spec.Speed,
		Running: len(n.jobs),
		ExtLoad: n.extLoad,
	}
}

// Node returns the view of one node.
func (c *Cluster) Node(name string) (NodeView, error) {
	n, ok := c.nodes[name]
	if !ok {
		return NodeView{}, fmt.Errorf("%w: %s", ErrUnknownNode, name)
	}
	return c.view(n), nil
}

// AvailableCPUs returns the number of CPU slots on nodes that are up.
func (c *Cluster) AvailableCPUs() int {
	var n int
	for _, name := range c.order {
		if node := c.nodes[name]; node.up {
			n += node.cpus
		}
	}
	return n
}

// BusyCPUs returns the number of CPU slots running BioOpera jobs.
func (c *Cluster) BusyCPUs() int {
	var n int
	for _, name := range c.order {
		n += len(c.nodes[name].jobs)
	}
	return n
}

// EffectiveBusy returns the number of processors *actually computing*
// BioOpera jobs: each running job contributes its current CPU share
// (nice jobs under competing load contribute little). This is the
// "processor utilization" series of the paper's Figs. 5 and 6.
func (c *Cluster) EffectiveBusy() float64 {
	var sum float64
	for _, name := range c.order {
		for _, j := range c.nodes[name].jobs {
			sum += j.shareNow()
		}
	}
	return sum
}

// Start launches a job of the given reference-CPU cost on a node. nice
// jobs yield to external load (the paper ran everything in nice mode on
// the shared cluster).
func (c *Cluster) Start(id JobID, nodeName string, cost time.Duration, nice bool) error {
	n, ok := c.nodes[nodeName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, nodeName)
	}
	if !n.up {
		return fmt.Errorf("%w: %s", ErrNodeDown, nodeName)
	}
	if len(n.jobs) >= n.cpus {
		return fmt.Errorf("%w: %s", ErrNoFreeCPU, nodeName)
	}
	if _, dup := n.jobs[id]; dup {
		return fmt.Errorf("cluster: job %s already running on %s", id, nodeName)
	}
	j := &runningJob{
		id:        id,
		node:      n,
		remaining: cost.Seconds(),
		updated:   c.S.Now(),
		nice:      nice,
	}
	n.jobs[id] = j
	c.reschedule(j)
	c.emit(EvJobStart, nodeName, string(id))
	return nil
}

// share returns the CPU fraction a job receives on its node right now.
func (j *runningJob) shareNow() float64 {
	if !j.nice {
		return 1
	}
	s := 1 - j.node.extLoad
	if s < minNiceRate {
		s = minNiceRate
	}
	return s
}

// settle accrues progress since the last update.
func (c *Cluster) settle(j *runningJob) {
	now := c.S.Now()
	elapsed := now.Sub(j.updated).Seconds()
	if elapsed > 0 && j.rate > 0 {
		done := elapsed * j.rate
		if done > j.remaining {
			done = j.remaining
		}
		j.remaining -= done
		// CPU consumed = wall × share.
		j.cpuUsed += time.Duration(elapsed * j.share * float64(time.Second))
	}
	j.updated = now
}

// reschedule recomputes the job's rate and (re)arms its completion timer.
func (c *Cluster) reschedule(j *runningJob) {
	if j.timer != nil {
		j.timer.Stop()
	}
	j.share = j.shareNow()
	j.rate = j.node.spec.Speed * j.share
	eta := time.Duration(j.remaining / j.rate * float64(time.Second))
	if eta < 0 {
		eta = 0
	}
	j.timer = c.S.AtFunc(c.S.Now().Add(eta), func() { c.finish(j, nil) })
}

// finish settles and completes a job (err non-nil for failures).
func (c *Cluster) finish(j *runningJob, err error) {
	c.settle(j)
	if j.timer != nil {
		j.timer.Stop()
		j.timer = nil
	}
	delete(j.node.jobs, j.id)
	if err == nil {
		c.emit(EvJobEnd, j.node.spec.Name, string(j.id))
	} else {
		c.emit(EvJobFail, j.node.spec.Name, fmt.Sprintf("%s: %v", j.id, err))
	}
	if c.onCompletion != nil {
		c.onCompletion(Completion{
			Job:     j.id,
			Node:    j.node.spec.Name,
			CPUTime: j.cpuUsed,
			Err:     err,
		})
	}
}

// Kill aborts a running job (the kill-and-restart migration strategy).
func (c *Cluster) Kill(id JobID, nodeName string) error {
	n, ok := c.nodes[nodeName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, nodeName)
	}
	j, ok := n.jobs[id]
	if !ok {
		return fmt.Errorf("cluster: job %s not on %s", id, nodeName)
	}
	c.finish(j, ErrJobKilled)
	return nil
}

// RunningOn lists the jobs currently executing on a node, in job order: a
// caller that kills some of them kills the same ones on every run.
func (c *Cluster) RunningOn(nodeName string) []JobID {
	n, ok := c.nodes[nodeName]
	if !ok {
		return nil
	}
	ids := make([]JobID, 0, len(n.jobs))
	for id := range n.jobs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// CrashNode takes a node down, failing its jobs. The PEC reports the
// failures to the server (the engine), which reschedules them.
func (c *Cluster) CrashNode(name string) error {
	n, ok := c.nodes[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, name)
	}
	if !n.up {
		return nil
	}
	n.up = false
	c.emit(EvNodeDown, name, "crash")
	// Fail jobs after marking down (handlers see consistent state).
	for _, j := range snapshotJobs(n) {
		c.finish(j, ErrNodeFailed)
	}
	return nil
}

// RestoreNode brings a node back.
func (c *Cluster) RestoreNode(name string) error {
	n, ok := c.nodes[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, name)
	}
	if n.up {
		return nil
	}
	n.up = true
	c.emit(EvNodeUp, name, "restored")
	return nil
}

// SetCPUs changes a node's processor count (hardware upgrades, §5.5: "from
// day 25 a second processor was added to each node, and BioOpera was able
// to take advantage of this"). Reducing below the number of running jobs
// is allowed; running jobs finish, but no new ones start until slots free
// up.
func (c *Cluster) SetCPUs(name string, cpus int) error {
	n, ok := c.nodes[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, name)
	}
	if cpus < 1 {
		return fmt.Errorf("cluster: node %s cannot have %d cpus", name, cpus)
	}
	n.cpus = cpus
	c.emit(EvCPUChange, name, fmt.Sprintf("cpus=%d", cpus))
	return nil
}

// SetExternalLoad sets the fraction of a node consumed by competing users;
// nice jobs slow down accordingly.
func (c *Cluster) SetExternalLoad(name string, load float64) error {
	n, ok := c.nodes[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, name)
	}
	load = min(max(load, 0), 1)
	if load == n.extLoad {
		return nil
	}
	// Settle all jobs at the old rate before switching.
	for _, j := range snapshotJobs(n) {
		c.settle(j)
	}
	n.extLoad = load
	for _, j := range snapshotJobs(n) {
		c.reschedule(j)
	}
	c.emit(EvLoadChange, name, fmt.Sprintf("ext=%.2f", load))
	return nil
}

// ExternalLoad returns the current competing load of a node.
func (c *Cluster) ExternalLoad(name string) float64 {
	if n, ok := c.nodes[name]; ok {
		return n.extLoad
	}
	return 0
}

// Load returns the total load of a node as its PEC measures it: external
// load plus the share of CPUs running BioOpera jobs, in [0,1].
func (c *Cluster) Load(name string) float64 {
	n, ok := c.nodes[name]
	if !ok || !n.up {
		return 0
	}
	l := n.extLoad + float64(len(n.jobs))/float64(n.cpus)
	if l > 1 {
		l = 1
	}
	return l
}

func snapshotJobs(n *node) []*runningJob {
	jobs := make([]*runningJob, 0, len(n.jobs))
	for _, j := range n.jobs {
		jobs = append(jobs, j)
	}
	// Deterministic order by id.
	for i := 1; i < len(jobs); i++ {
		for k := i; k > 0 && jobs[k].id < jobs[k-1].id; k-- {
			jobs[k], jobs[k-1] = jobs[k-1], jobs[k]
		}
	}
	return jobs
}
