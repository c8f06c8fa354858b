package fed

import (
	"encoding/json"
	"time"

	"bioopera/internal/ocr"
)

// RPC method names carried in Frame.Method. Instance-scoped
// methods route by the frame's Instance field; "start" goes to any live
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
	Template string               `json:"template"`
	Inputs   map[string]ocr.Value `json:"inputs,omitempty"`
	Priority int                  `json:"priority,omitempty"`
	Nice     bool                 `json:"nice,omitempty"`
	Tenant   string               `json:"tenant,omitempty"`
}

// StartRes returns the minted instance ID.
type StartRes struct {
	ID string `json:"id"`
}

// StateRes is the result of status and wait: the instance's current (or
// final) state.
type StateRes struct {
	Status  string               `json:"status"`
	Outputs map[string]ocr.Value `json:"outputs,omitempty"`
	Failure string               `json:"failure,omitempty"`
}

// WaitReq bounds a wait call; the serving member also caps it.
type WaitReq struct {
	TimeoutMs int64 `json:"timeoutMs"`
}

// SuspendReq carries the graceful flag of a suspend call.
type SuspendReq struct {
	Graceful bool `json:"graceful"`
}

// AbortReq carries the user-visible abort reason.
type AbortReq struct {
	Reason string `json:"reason,omitempty"`
}

// SignalReq delivers an external event to an instance.
type SignalReq struct {
	Event   string               `json:"event"`
	Payload map[string]ocr.Value `json:"payload,omitempty"`
}

// SetParamReq changes one whiteboard value.
type SetParamReq struct {
	Name  string    `json:"name"`
	Value ocr.Value `json:"value"`
}

// MembersView is the federation's membership and routing snapshot: the
// partition count every member agreed on and each member's identity,
// liveness, and owned partitions. Gateways derive their routing table
// from it.
type MembersView struct {
	Partitions int          `json:"partitions"`
	Members    []MemberInfo `json:"members"`
}

// rpcMethods is the typed federation RPC surface, written once over the
// one thing its two carriers differ in: how a request frame reaches the
// member that answers it. Client sends it down its connection; Gateway
// routes it to the owner. Both embed rpcMethods, so both export exactly
// these methods.
type rpcMethods struct {
	// raw sends one request and returns its response frame; a zero
	// timeout means the carrier's default.
	raw func(method, instance string, params json.RawMessage, timeout time.Duration) (Frame, error)
}

// call marshals params, sends the request, and unmarshals the result into
// out (skipped when out is nil).
func (r rpcMethods) call(method, instance string, params, out any, timeout time.Duration) error {
	var raw json.RawMessage
	if params != nil {
		data, err := json.Marshal(params)
		if err != nil {
			return err
		}
		raw = data
	}
	resp, err := r.raw(method, instance, raw, timeout)
	if err != nil {
		return err
	}
	if out != nil && len(resp.Result) > 0 {
		return json.Unmarshal(resp.Result, out)
	}
	return nil
}

// Start instantiates a template somewhere in the federation and returns
// the minted instance ID.
func (r rpcMethods) Start(req StartReq) (string, error) {
	var res StartRes
	if err := r.call(MethodStart, "", req, &res, 0); err != nil {
		return "", err
	}
	return res.ID, nil
}

// Status reads an instance's current state.
func (r rpcMethods) Status(id string) (StateRes, error) {
	var res StateRes
	err := r.call(MethodStatus, id, nil, &res, 0)
	return res, err
}

// Wait blocks until the instance is terminal or the timeout elapses. Through
// a gateway, a wait interrupted by owner failover re-routes and resumes at
// the new owner.
func (r rpcMethods) Wait(id string, timeout time.Duration) (StateRes, error) {
	var res StateRes
	err := r.call(MethodWait, id, WaitReq{TimeoutMs: timeout.Milliseconds()}, &res,
		timeout+DefaultCallTimeout)
	return res, err
}

// Resume restarts a suspended instance.
func (r rpcMethods) Resume(id string) error {
	return r.call(MethodResume, id, nil, nil, 0)
}

// Suspend stops dispatching an instance's activities.
func (r rpcMethods) Suspend(id string, graceful bool) error {
	return r.call(MethodSuspend, id, SuspendReq{Graceful: graceful}, nil, 0)
}

// Abort fails an instance on user request.
func (r rpcMethods) Abort(id, reason string) error {
	return r.call(MethodAbort, id, AbortReq{Reason: reason}, nil, 0)
}

// Signal delivers an external event to an instance.
func (r rpcMethods) Signal(id, event string, payload map[string]ocr.Value) error {
	return r.call(MethodSignal, id, SignalReq{Event: event, Payload: payload}, nil, 0)
}

// SetParameter changes one whiteboard value.
func (r rpcMethods) SetParameter(id, name string, v ocr.Value) error {
	return r.call(MethodSetParam, id, SetParamReq{Name: name, Value: v}, nil, 0)
}

// Lineage fetches an instance's provenance graph as raw JSON.
func (r rpcMethods) Lineage(id string) (json.RawMessage, error) {
	resp, err := r.raw(MethodLineage, id, nil, 0)
	if err != nil {
		return nil, err
	}
	return resp.Result, nil
}

// Members fetches the membership and routing snapshot.
func (r rpcMethods) Members() (MembersView, error) {
	var res MembersView
	err := r.call(MethodMembers, "", nil, &res, 0)
	return res, err
}
