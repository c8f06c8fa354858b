package fed

import (
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
	dec      codec.Decoder // the reader goroutine's
	answer   func(Request) Response
	inflight sync.WaitGroup
}

// acceptRequests starts serving a connection whose first frame is (kind,
// body); anything but a request refuses the peer.
func acceptRequests(c *transport.Conn, answer func(Request) Response, kind byte, body []byte) (transport.Handler, error) {
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
	var req Request
	if err := decode(&r.dec, kind, body, &req); err != nil {
		return fmt.Errorf("fed: request: %w", err)
	}
	r.inflight.Add(1)
	go func() {
		defer r.inflight.Done()
		resp := r.answer(req)
		_ = send(r.c, codec.FrameFedResponse, &resp, true) // a broken conn ends in Closed
	}()
	return nil
}

func (r *requestConn) Closed(error) { r.inflight.Wait() }

// answer executes one routed RPC and builds its response. A call on an
// instance this member does not serve comes back as a redirect naming the
// owner, or as not ready while the instance's partition changes hands.
func (m *Member) answer(req Request) Response {
	res := Response{ID: req.ID}
	err := m.serves(req)
	if err == nil {
		err = m.dispatch(&req, &res)
	}
	if errors.Is(err, core.ErrNotOwner) || errors.Is(err, core.ErrUnknownInstance) {
		// The partition may have moved between the check above and the
		// call's end: the engine's own ownership gate fired, or a lost
		// lease evicted the instance under a waiter. Where it went is the
		// answer; an unknown instance of a partition still served is final.
		if moved := m.serves(req); moved != nil {
			err = moved
		} else if errors.Is(err, core.ErrNotOwner) {
			err = ErrNoPartition
		}
	}
	if err != nil {
		res.fail(err)
	}
	return res
}

// serves reports whether this member answers req now: nil for a start, a
// members call or an instance in a partition it owns and has adopted; a
// *RedirectError naming the owner it knows; or ErrNoPartition, the one
// not-ready answer, while the partition is being adopted here or its owner
// is unknown.
func (m *Member) serves(req Request) error {
	if req.Method == MethodStart || req.Method == MethodMembers {
		return nil
	}
	p := PartitionOf(req.Instance, m.cfg.Partitions)
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case m.adopting[p]:
		return fmt.Errorf("%w: %s is adopting partition %d", ErrNoPartition, m.cfg.Name, p)
	case m.owned[p]:
		return nil
	}
	owner, addr := m.ownerLocked(p)
	if owner == "" {
		return fmt.Errorf("%w: %s knows no owner of partition %d", ErrNoPartition, m.cfg.Name, p)
	}
	return &RedirectError{Member: owner, Addr: addr}
}

// dispatch maps one method to the engine, filling its result into res.
func (m *Member) dispatch(req *Request, res *Response) error {
	eng := m.rt.Engine()
	switch req.Method {
	case MethodStart:
		id, err := m.startInstance(req.Start)
		res.Started = id
		return err
	case MethodStatus:
		return m.stateOf(req.Instance, &res.State)
	case MethodWait:
		d := time.Duration(req.TimeoutMs) * time.Millisecond
		if d <= 0 || d > maxWait {
			d = maxWait
		}
		if _, err := m.rt.Wait(req.Instance, d); err != nil {
			return err
		}
		return m.stateOf(req.Instance, &res.State)
	case MethodResume:
		return eng.Resume(req.Instance)
	case MethodSuspend:
		return eng.Suspend(req.Instance, req.Graceful)
	case MethodAbort:
		return eng.Abort(req.Instance, req.Reason)
	case MethodSignal:
		return eng.Signal(req.Instance, req.Event, req.Payload)
	case MethodSetParam:
		return eng.SetParameter(req.Instance, req.Name, req.Value)
	case MethodLineage:
		lg, err := eng.Lineage(req.Instance)
		res.Lineage = lg
		return err
	case MethodMembers:
		res.View = MembersView{Partitions: m.cfg.Partitions, Members: m.memberViews(true)}
		return nil
	}
	return fmt.Errorf("fed: unknown method %q", req.Method)
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

// stateOf snapshots one instance into its wire representation.
func (m *Member) stateOf(id string, out *StateRes) error {
	eng := m.rt.Engine()
	st, outputs, err := eng.InstanceState(id)
	if err != nil {
		return err
	}
	*out = StateRes{Status: st.String(), Outputs: outputs}
	if st == core.InstanceFailed {
		if in, ok := eng.Instance(id); ok {
			out.Failure = in.FailureReason
		}
	}
	return nil
}
