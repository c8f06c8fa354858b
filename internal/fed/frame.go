package fed

import (
	"encoding/json"

	"bioopera/internal/transport"
)

// Federation frames ride internal/transport on the federation listener of
// each member; the frame kind (internal/codec) names the message and the
// body is a JSON Frame. Two conversations share the listener, told apart by
// the kind of a connection's first frame:
//
//	member ↔ member   FrameFedHello    sender identity on dial, and back
//	member ↔ member   FrameFedGossip   heartbeat + piggybacked membership view
//	client  → member  FrameFedRequest  routed engine RPC (start/resume/abort/
//	                                   signal/setparam/status/wait/lineage/
//	                                   members)
//	member  → client  FrameFedResponse result, error, or a redirect naming the
//	                                   owning member when the route was stale
//
// The gateway speaks both sides: it answers requests from drivers and
// forwards them as requests to the owning member, refreshing its routing
// table and retrying when a response carries Redirect.

// MemberInfo is one engine server in the federation's membership view, as
// gossiped between members and served to gateways and monitors.
type MemberInfo struct {
	Name string `json:"name"`
	Addr string `json:"addr"`
	// Incarnation is the member's boot epoch from the lease table; lease
	// claims under an older incarnation than the recorded one are stale
	// and rejected (split-brain fencing).
	Incarnation uint64 `json:"incarnation"`
	// Up reflects the sender's failure detector, not ground truth.
	Up bool `json:"up"`
	// Partitions this member owned when the view was assembled.
	Partitions []int `json:"partitions,omitempty"`
}

// Frame is the body of every federation frame; the frame kind says which
// fields are meaningful. Params and Result stay raw so the frame layer needs
// no knowledge of individual RPC payloads.
type Frame struct {
	// hello / gossip: the sender and (gossip) its current view.
	From    MemberInfo   `json:"from,omitempty"`
	Members []MemberInfo `json:"members,omitempty"`

	// request / response: ID correlates a response to its request on a
	// multiplexed connection.
	ID       uint64          `json:"id,omitempty"`
	Method   string          `json:"method,omitempty"`
	Instance string          `json:"instance,omitempty"`
	Params   json.RawMessage `json:"params,omitempty"`

	// response.
	OK     bool            `json:"ok,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	// Redirect names the member the sender believes owns the instance;
	// the caller refreshes its route for the instance's partition and
	// retries there.
	Redirect string `json:"redirect,omitempty"`
	// RedirectAddr is the dial address for Redirect, when the sender
	// knows it, saving the caller a membership round-trip.
	RedirectAddr string `json:"redirectAddr,omitempty"`
}

// sendFrame marshals f into one frame of the given kind. It never blocks;
// wait selects back-pressure for callers that hold no lock.
func sendFrame(c *transport.Conn, kind byte, f *Frame, wait bool) error {
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	if wait {
		return c.SendWait(kind, data)
	}
	return c.Send(kind, data)
}
