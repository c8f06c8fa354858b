package fed

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"bioopera/internal/codec"
	"bioopera/internal/core"
	"bioopera/internal/transport"
)

// maxWait caps a remote wait so a lost client cannot pin a serving
// goroutine forever.
const maxWait = 10 * time.Minute

// requestConn is the handler for one connection that carries requests, at
// a member or a gateway. Each request runs answer in its own goroutine — a
// long wait must not block the next frame — and its response waits for room
// in the send queue. Closed returns once every in-flight answer is written,
// so the endpoint's Close joins them.
type requestConn struct {
	c        *transport.Conn
	answer   func(Frame) Frame
	inflight sync.WaitGroup
}

// acceptRequests starts serving a connection whose first frame is (kind,
// body); anything but a request refuses the peer.
func acceptRequests(c *transport.Conn, answer func(Frame) Frame, kind byte, body []byte) (transport.Handler, error) {
	r := &requestConn{c: c, answer: answer}
	if err := r.Frame(kind, body); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *requestConn) Frame(kind byte, body []byte) error {
	if kind != codec.FrameFedRequest {
		return fmt.Errorf("fed: frame kind %d on a request connection", kind)
	}
	var req Frame
	if err := json.Unmarshal(body, &req); err != nil {
		return fmt.Errorf("fed: request: %w", err)
	}
	r.inflight.Add(1)
	go func() {
		defer r.inflight.Done()
		resp := r.answer(req)
		_ = sendFrame(r.c, codec.FrameFedResponse, &resp, true) // a broken conn ends in Closed
	}()
	return nil
}

func (r *requestConn) Closed(error) { r.inflight.Wait() }

// answer executes one routed RPC and builds its response frame. Methods
// scoped to an instance this member does not own come back as redirects
// carrying the owner's identity, so the caller can re-route.
func (m *Member) answer(req Frame) Frame {
	res := Frame{ID: req.ID}
	if req.Method != MethodStart && req.Method != MethodMembers {
		if !m.ownsInstance(req.Instance) {
			owner, addr := m.ownerOf(PartitionOf(req.Instance, m.cfg.Partitions))
			res.Redirect, res.RedirectAddr = owner, addr
			res.Error = fmt.Sprintf("fed: %s does not own instance %s", m.cfg.Name, req.Instance)
			return res
		}
	}
	result, err := m.dispatch(req)
	if err != nil {
		// The engine's own ownership gate can still fire when a lease is
		// lost between the check above and the call — same redirect.
		if errors.Is(err, core.ErrNotOwner) {
			owner, addr := m.ownerOf(PartitionOf(req.Instance, m.cfg.Partitions))
			res.Redirect, res.RedirectAddr = owner, addr
		}
		res.Error = err.Error()
		return res
	}
	res.OK = true
	res.Result = result
	return res
}

// dispatch maps one method to the engine.
func (m *Member) dispatch(req Frame) (json.RawMessage, error) {
	eng := m.rt.Engine()
	switch req.Method {
	case MethodStart:
		var r StartReq
		if err := json.Unmarshal(req.Params, &r); err != nil {
			return nil, err
		}
		id, err := m.startInstance(r)
		if err != nil {
			return nil, err
		}
		return json.Marshal(StartRes{ID: id})
	case MethodStatus:
		return m.stateOf(req.Instance)
	case MethodWait:
		var r WaitReq
		if err := json.Unmarshal(req.Params, &r); err != nil {
			return nil, err
		}
		d := time.Duration(r.TimeoutMs) * time.Millisecond
		if d <= 0 || d > maxWait {
			d = maxWait
		}
		if _, err := m.rt.Wait(req.Instance, d); err != nil {
			return nil, err
		}
		return m.stateOf(req.Instance)
	case MethodResume:
		return nil, eng.Resume(req.Instance)
	case MethodSuspend:
		var r SuspendReq
		if err := json.Unmarshal(req.Params, &r); err != nil {
			return nil, err
		}
		return nil, eng.Suspend(req.Instance, r.Graceful)
	case MethodAbort:
		var r AbortReq
		if err := json.Unmarshal(req.Params, &r); err != nil {
			return nil, err
		}
		return nil, eng.Abort(req.Instance, r.Reason)
	case MethodSignal:
		var r SignalReq
		if err := json.Unmarshal(req.Params, &r); err != nil {
			return nil, err
		}
		return nil, eng.Signal(req.Instance, r.Event, r.Payload)
	case MethodSetParam:
		var r SetParamReq
		if err := json.Unmarshal(req.Params, &r); err != nil {
			return nil, err
		}
		return nil, eng.SetParameter(req.Instance, r.Name, r.Value)
	case MethodLineage:
		lin, err := eng.Lineage(req.Instance)
		if err != nil {
			return nil, err
		}
		return json.Marshal(lin)
	case MethodMembers:
		return json.Marshal(MembersView{
			Partitions: m.cfg.Partitions,
			Members:    m.memberViews(true),
		})
	default:
		return nil, fmt.Errorf("fed: unknown method %q", req.Method)
	}
}

// startInstance mints an ID in an owned partition and starts the process
// under it.
func (m *Member) startInstance(r StartReq) (string, error) {
	id, err := m.mintID()
	if err != nil {
		return "", err
	}
	return m.rt.Engine().StartProcess(r.Template, r.Inputs, core.StartOptions{
		Priority:   r.Priority,
		Nice:       r.Nice,
		Tenant:     r.Tenant,
		InstanceID: id,
	})
}

// stateOf snapshots one instance into the wire representation.
func (m *Member) stateOf(id string) (json.RawMessage, error) {
	eng := m.rt.Engine()
	st, out, err := eng.InstanceState(id)
	if err != nil {
		return nil, err
	}
	res := StateRes{Status: st.String(), Outputs: out}
	if st == core.InstanceFailed {
		if in, ok := eng.Instance(id); ok {
			res.Failure = in.FailureReason
		}
	}
	return json.Marshal(res)
}
