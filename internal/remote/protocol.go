// Package remote takes the engine over the wire: a server-side Executor
// dispatches activities to worker agents on other machines, mirroring the
// paper's split between the BioOpera server and the program execution
// clients (PECs) running on cluster nodes (§3.2, §3.4).
//
// The protocol runs over internal/transport: one frame per message. The
// frame kind (internal/codec) names the message and the body is one codec
// record of that same kind — magic, version, kind, then the fields below in
// order (s = interned string, u = uvarint, i = zigzag varint, b = one byte,
// f = 8-byte float, raw = length-prefixed bytes outside the intern table,
// map = counted key/value pairs in key order):
//
//	worker → server   FrameHello 56       s worker, u n, n × (s name, s os, i cpus, f speed)
//	server → worker   FrameWelcome 57     u incarnation, i heartbeatMs
//	server → worker   FrameLaunch 58      s job, s node, u lease, u incarnation, s program,
//	                                      s instance, s task, i attempt, b nice, i costMs,
//	                                      i timeoutMs, map inputs
//	server → worker   FrameKill 59        s job, u lease — stop caring about the outcome
//	worker → server   FrameCompletion 61  raw job, u lease, u incarnation, i cpuNanos,
//	                                      s error, map outputs
//
// A body that is not a record of its frame's kind, or has bytes left over,
// hangs the link up. Kinds 33–38 carried the same messages as JSON and are
// retired: the transport refuses a peer that still sends them
// (transport.ErrRetiredKind). Kind 60 carried a heartbeat with a load no
// program filled; it is unassigned and never reused. Nothing travels that the
// receiver already holds: a completion names its job only so the server can
// find the lease, which knows the node.
//
// Failure model: liveness is the transport's. The agent keeps its link alive
// at the welcome's heartbeatMs (transport keep-alive frames on an idle link,
// any bytes counting), and the server arms a silence deadline of its
// HeartbeatTimeout on each worker's connection. When that deadline passes, or
// the connection drops, the server declares the worker dead, marks its nodes
// down, and fails the worker's running jobs with
// cluster.ErrNodeFailed — driving the engine's ordinary failover/requeue
// path. Every launch carries a fresh lease and the worker's incarnation;
// a completion whose lease or incarnation does not match the server's
// current record (a worker declared dead that was merely partitioned, or
// a pre-crash incarnation delivering late) is dropped, exactly like the
// engine's own stale-completion checks.
package remote

import (
	"bioopera/internal/codec"
	"bioopera/internal/core"
	"bioopera/internal/ocr"
	"bioopera/internal/transport"
)

// NodeInfo is one CPU slot a worker offers. The server namespaces node
// names with the worker name ("w1/cpu0"), so workers may pick any local
// names without colliding.
type NodeInfo struct {
	Name  string
	OS    string
	CPUs  int
	Speed float64
}

// Hello is the worker's first frame: its name and the nodes it offers.
type Hello struct {
	Worker string
	Nodes  []NodeInfo
}

// Welcome answers a hello: the connection's incarnation tag and the
// heartbeat cadence the server expects.
type Welcome struct {
	Incarnation uint64
	HeartbeatMs int64
}

// Launch ships one job: the resolved external binding plus scheduling
// hints, under a fresh lease.
type Launch struct {
	Job         string
	Lease       uint64
	Incarnation uint64
	Program     string
	Ctx         core.ProgramCtx // what the program's invocation receives, node included
	Nice        bool
	CostMs      int64
	TimeoutMs   int64
	Inputs      map[string]ocr.Value
}

// Kill tells the worker to discard one lease's result.
type Kill struct {
	Job   string
	Lease uint64
}

// Completion is a job's outputs or program error, tagged with the lease
// and incarnation it ran under.
type Completion struct {
	Job         string // Decode hands it back as a view of the frame instead
	Lease       uint64
	Incarnation uint64
	CPUNanos    int64
	Error       string
	Outputs     map[string]ocr.Value // empty travels as absent
}

// Encode appends the message to e as one record.
func (m *Hello) Encode(e *codec.Encoder) {
	e.Begin(codec.FrameHello)
	e.String(m.Worker)
	e.Uvarint(uint64(len(m.Nodes)))
	for _, n := range m.Nodes {
		e.String(n.Name)
		e.String(n.OS)
		e.Int(int64(n.CPUs))
		e.Float(n.Speed)
	}
	e.End()
}

// Decode reads the message from a decoder opened on its frame and checks
// the body was consumed exactly.
func (m *Hello) Decode(d *codec.Decoder) error {
	*m = Hello{Worker: d.String()}
	// The list grows as nodes are read, so a corrupt count costs nothing.
	for n := d.Count("node list"); n > 0 && d.Err() == nil; n-- {
		m.Nodes = append(m.Nodes, NodeInfo{Name: d.String(), OS: d.String(), CPUs: int(d.Int()), Speed: d.Float()})
	}
	return d.Finish()
}

func (m *Welcome) Encode(e *codec.Encoder) {
	e.Begin(codec.FrameWelcome)
	e.Uvarint(m.Incarnation)
	e.Int(m.HeartbeatMs)
	e.End()
}

func (m *Welcome) Decode(d *codec.Decoder) error {
	*m = Welcome{Incarnation: d.Uvarint(), HeartbeatMs: d.Int()}
	return d.Finish()
}

func (m *Launch) Encode(e *codec.Encoder) {
	e.Begin(codec.FrameLaunch)
	e.String(m.Job)
	e.String(m.Ctx.Node)
	e.Uvarint(m.Lease)
	e.Uvarint(m.Incarnation)
	e.String(m.Program)
	e.String(m.Ctx.Instance)
	e.String(m.Ctx.Task)
	e.Int(int64(m.Ctx.Attempt))
	e.Bool(m.Nice)
	e.Int(m.CostMs)
	e.Int(m.TimeoutMs)
	e.ValueMap(m.Inputs)
	e.End()
}

func (m *Launch) Decode(d *codec.Decoder) error {
	job, node := d.String(), d.String()
	*m = Launch{
		Job:         job,
		Lease:       d.Uvarint(),
		Incarnation: d.Uvarint(),
		Program:     d.String(),
		Ctx:         core.ProgramCtx{Instance: d.String(), Task: d.String(), Attempt: int(d.Int()), Node: node},
		Nice:        d.Bool(),
		CostMs:      d.Int(),
		TimeoutMs:   d.Int(),
		Inputs:      d.ValueMap(),
	}
	return d.Finish()
}

func (m *Kill) Encode(e *codec.Encoder) {
	e.Begin(codec.FrameKill)
	e.String(m.Job)
	e.Uvarint(m.Lease)
	e.End()
}

func (m *Kill) Decode(d *codec.Decoder) error {
	*m = Kill{Job: d.String(), Lease: d.Uvarint()}
	return d.Finish()
}

func (m *Completion) Encode(e *codec.Encoder) {
	e.Begin(codec.FrameCompletion)
	e.RawString(m.Job)
	e.Uvarint(m.Lease)
	e.Uvarint(m.Incarnation)
	e.Int(m.CPUNanos)
	e.String(m.Error)
	e.ValueMap(m.Outputs)
	e.End()
}

// Decode reads everything but Job into m and returns the job as a view of
// the frame body: the server's lease already holds that string, so it is
// looked up from the frame's bytes, not allocated per completion.
func (m *Completion) Decode(d *codec.Decoder) (job []byte, err error) {
	job = d.Bytes()
	*m = Completion{
		Lease:       d.Uvarint(),
		Incarnation: d.Uvarint(),
		CPUNanos:    d.Int(),
		Error:       d.String(),
		Outputs:     d.ValueMap(),
	}
	return job, d.Finish()
}

// send queues e's one record as a frame of the given kind without blocking
// (transport.Conn.Send) and recycles e.
func send(c *transport.Conn, kind byte, e *codec.Encoder) error {
	err := c.Send(kind, e.Buf)
	codec.Put(e)
	return err
}

// sendWait is send with back-pressure (transport.Conn.SendWait).
func sendWait(c *transport.Conn, kind byte, e *codec.Encoder) error {
	err := c.SendWait(kind, e.Buf)
	codec.Put(e)
	return err
}
