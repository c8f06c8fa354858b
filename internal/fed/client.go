// Federation RPC runs in real time: dial and call deadlines here bound
// waits on remote servers, never the deterministic trace.
//bioopera:allow walltime file-wide: federation RPC deadlines are wall-clock by contract

package fed

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"bioopera/internal/remote"
)

// ErrClientClosed fails calls on a closed (or failed) client connection.
var ErrClientClosed = errors.New("fed: client connection closed")

// RedirectError reports that the called member does not own the instance;
// Member names the owner it believes is current (Addr when known). The
// gateway turns it into a route refresh and retry.
type RedirectError struct {
	Member string
	Addr   string
}

func (e *RedirectError) Error() string {
	return fmt.Sprintf("fed: not the owner; redirected to %q", e.Member)
}

// DefaultCallTimeout bounds a Call when the caller passes zero.
const DefaultCallTimeout = 10 * time.Second

// Client is one multiplexed federation connection — to a member or to a
// gateway (both speak the same frames). Calls are correlated by frame ID,
// so many goroutines may call concurrently over the one connection.
type Client struct {
	rpcMethods // Start, Status, Wait, ... over CallRaw

	conn net.Conn

	wmu sync.Mutex // serializes frame writes
	enc *json.Encoder

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan remote.FedFrame
	err     error // set once the read loop exits
	closed  bool

	done chan struct{} // closed when the read loop exits
}

// DialClient connects to a federation endpoint.
func DialClient(addr string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = DefaultCallTimeout
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:    conn,
		enc:     json.NewEncoder(conn),
		pending: make(map[uint64]chan remote.FedFrame),
		done:    make(chan struct{}),
	}
	c.rpcMethods = rpcMethods{raw: c.CallRaw}
	go c.readLoop()
	return c, nil
}

// readLoop demultiplexes responses to their waiting calls; any decode or
// connection error fails every pending and future call.
func (c *Client) readLoop() {
	dec := json.NewDecoder(c.conn)
	for {
		var f remote.FedFrame
		if err := dec.Decode(&f); err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrClientClosed, err))
			return
		}
		if f.Type != remote.MsgFedResponse {
			continue
		}
		c.mu.Lock()
		ch := c.pending[f.ID]
		delete(c.pending, f.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- f
		}
	}
}

func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	for id, ch := range c.pending {
		delete(c.pending, id)
		close(ch)
	}
	c.mu.Unlock()
	close(c.done)
}

// Close tears the connection down; in-flight calls fail with
// ErrClientClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	return c.conn.Close()
}

// CallRaw sends one request frame and waits for its response, leaving the
// params and result encoding to the caller — the gateway forwards frames
// it never decodes. A response with OK unset maps to *RedirectError or a
// plain error.
func (c *Client) CallRaw(method, instance string, params json.RawMessage, timeout time.Duration) (remote.FedFrame, error) {
	if timeout <= 0 {
		timeout = DefaultCallTimeout
	}
	ch := make(chan remote.FedFrame, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return remote.FedFrame{}, err
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.mu.Unlock()

	f := remote.FedFrame{
		Type: remote.MsgFedRequest, ID: id,
		Method: method, Instance: instance, Params: params,
	}
	c.wmu.Lock()
	err := c.enc.Encode(f)
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return remote.FedFrame{}, fmt.Errorf("%w: %v", ErrClientClosed, err)
	}

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case resp, ok := <-ch:
		if !ok {
			c.mu.Lock()
			err := c.err
			c.mu.Unlock()
			return remote.FedFrame{}, err
		}
		if !resp.OK {
			if resp.Redirect != "" {
				return resp, &RedirectError{Member: resp.Redirect, Addr: resp.RedirectAddr}
			}
			return resp, errors.New(resp.Error)
		}
		return resp, nil
	case <-timer.C:
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return remote.FedFrame{}, fmt.Errorf("fed: %s call timed out after %v", method, timeout)
	}
}
