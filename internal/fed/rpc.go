package fed

import (
	"time"

	"bioopera/internal/core"
	"bioopera/internal/ocr"
)

// RPC method names carried in Request.Method. Instance-scoped
// methods route by the request's Instance field; "start" goes to any live
// member (the member mints an ID in a partition it owns) and "members"
// answers from whoever is asked.
const (
	MethodStart    = "start"
	MethodStatus   = "status"
	MethodWait     = "wait"
	MethodResume   = "resume"
	MethodSuspend  = "suspend"
	MethodAbort    = "abort"
	MethodSignal   = "signal"
	MethodSetParam = "setparam"
	MethodLineage  = "lineage"
	MethodMembers  = "members"
)

// StartReq asks a member to instantiate a template.
type StartReq struct {
	Template string
	Inputs   map[string]ocr.Value
	Priority int
	Nice     bool
	Tenant   string
}

// StateRes is the result of status and wait: the instance's current (or
// final) state.
type StateRes struct {
	Status  string
	Outputs map[string]ocr.Value
	Failure string
}

// MembersView is the federation's membership and routing snapshot: the
// partition count every member agreed on and each member's identity,
// liveness, and owned partitions. Gateways derive their routing table
// from it.
type MembersView struct {
	Partitions int
	Members    []MemberInfo
}

// rpcMethods is the typed federation RPC surface, written once over the
// one thing its two carriers differ in: how a request reaches the member
// that answers it. Client sends it down its connection; Gateway routes it to
// the owner. Both embed rpcMethods, so both export exactly these methods.
type rpcMethods struct {
	// roundTrip sends one request — the carrier sets its ID — and returns
	// the response, or the error it reports; a zero timeout means the
	// carrier's default.
	roundTrip func(req Request, timeout time.Duration) (Response, error)
}

// Start instantiates a template somewhere in the federation and returns
// the minted instance ID.
func (r rpcMethods) Start(req StartReq) (string, error) {
	res, err := r.roundTrip(Request{Method: MethodStart, Start: req}, 0)
	return res.Started, err
}

// Status reads an instance's current state.
func (r rpcMethods) Status(id string) (StateRes, error) {
	res, err := r.roundTrip(Request{Method: MethodStatus, Instance: id}, 0)
	return res.State, err
}

// Wait blocks until the instance is terminal or the timeout elapses. Through
// a gateway, a wait interrupted by owner failover re-routes and resumes at
// the new owner.
func (r rpcMethods) Wait(id string, timeout time.Duration) (StateRes, error) {
	res, err := r.roundTrip(Request{Method: MethodWait, Instance: id, TimeoutMs: timeout.Milliseconds()},
		timeout+DefaultCallTimeout)
	return res.State, err
}

// Resume restarts a suspended instance.
func (r rpcMethods) Resume(id string) error {
	_, err := r.roundTrip(Request{Method: MethodResume, Instance: id}, 0)
	return err
}

// Suspend stops dispatching an instance's activities.
func (r rpcMethods) Suspend(id string, graceful bool) error {
	_, err := r.roundTrip(Request{Method: MethodSuspend, Instance: id, Graceful: graceful}, 0)
	return err
}

// Abort fails an instance on user request.
func (r rpcMethods) Abort(id, reason string) error {
	_, err := r.roundTrip(Request{Method: MethodAbort, Instance: id, Reason: reason}, 0)
	return err
}

// Signal delivers an external event to an instance.
func (r rpcMethods) Signal(id, event string, payload map[string]ocr.Value) error {
	_, err := r.roundTrip(Request{Method: MethodSignal, Instance: id, Event: event, Payload: payload}, 0)
	return err
}

// SetParameter changes one whiteboard value.
func (r rpcMethods) SetParameter(id, name string, v ocr.Value) error {
	_, err := r.roundTrip(Request{Method: MethodSetParam, Instance: id, Name: name, Value: v}, 0)
	return err
}

// Lineage fetches an instance's provenance graph.
func (r rpcMethods) Lineage(id string) (*core.Lineage, error) {
	res, err := r.roundTrip(Request{Method: MethodLineage, Instance: id}, 0)
	return res.Lineage, err
}

// Members fetches the membership and routing snapshot.
func (r rpcMethods) Members() (MembersView, error) {
	res, err := r.roundTrip(Request{Method: MethodMembers}, 0)
	return res.View, err
}
