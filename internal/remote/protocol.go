// Package remote takes the engine over the wire: a server-side Executor
// dispatches activities to worker agents on other machines, mirroring the
// paper's split between the BioOpera server and the program execution
// clients (PECs) running on cluster nodes (§3.2, §3.4).
//
// The protocol runs over internal/transport: one frame per message, the
// frame kind (internal/codec) naming the message and the body carrying a
// JSON Message:
//
//	worker → server   FrameHello       worker name + offered node slots
//	server → worker   FrameWelcome     incarnation tag + heartbeat cadence
//	server → worker   FrameLaunch      job + lease + program + inputs
//	worker → server   FrameHeartbeat   liveness (any bytes also count)
//	worker → server   FrameCompletion  outputs or program error, lease-tagged
//	server → worker   FrameKill        stop caring about a job's outcome
//
// Failure model: the server declares a worker dead when its heartbeats go
// silent past the configured timeout (or its connection drops), marks the
// worker's nodes down, and fails the worker's running jobs with
// cluster.ErrNodeFailed — driving the engine's ordinary failover/requeue
// path. Every launch carries a fresh lease and the worker's incarnation;
// a completion whose lease or incarnation does not match the server's
// current record (a worker declared dead that was merely partitioned, or
// a pre-crash incarnation delivering late) is dropped, exactly like the
// engine's own stale-completion checks.
package remote

import (
	"bioopera/internal/ocr"
)

// NodeInfo is one CPU slot a worker offers. The server namespaces node
// names with the worker name ("w1/cpu0"), so workers may pick any local
// names without colliding.
type NodeInfo struct {
	Name  string  `json:"name"`
	OS    string  `json:"os"`
	CPUs  int     `json:"cpus"`
	Speed float64 `json:"speed"`
}

// Message is the body of every worker-protocol frame; the frame kind says
// which fields are meaningful.
type Message struct {
	// hello
	Worker string     `json:"worker,omitempty"`
	Nodes  []NodeInfo `json:"nodes,omitempty"`

	// welcome; completion echoes Incarnation back
	Incarnation uint64 `json:"incarnation,omitempty"`
	HeartbeatMs int64  `json:"heartbeatMs,omitempty"`

	// launch / kill / completion
	Job   string `json:"job,omitempty"`
	Node  string `json:"node,omitempty"`
	Lease uint64 `json:"lease,omitempty"`

	// launch: the resolved external binding plus scheduling hints
	Program   string               `json:"program,omitempty"`
	Inputs    map[string]ocr.Value `json:"inputs,omitempty"`
	Instance  string               `json:"instance,omitempty"`
	Task      string               `json:"task,omitempty"`
	Attempt   int                  `json:"attempt,omitempty"`
	Nice      bool                 `json:"nice,omitempty"`
	CostMs    int64                `json:"costMs,omitempty"`
	TimeoutMs int64                `json:"timeoutMs,omitempty"`

	// heartbeat: observed external (non-BioOpera) load on the worker's
	// machine, 0..1; feeds the scheduler's granularity autotuning
	Load float64 `json:"load,omitempty"`

	// completion
	Outputs  map[string]ocr.Value `json:"outputs,omitempty"`
	Error    string               `json:"error,omitempty"`
	CPUNanos int64                `json:"cpuNanos,omitempty"`
}
