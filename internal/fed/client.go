// Federation RPC runs in real time: dial and call deadlines here bound
// waits on remote servers, never the deterministic trace.
//bioopera:allow walltime file-wide: federation RPC deadlines are wall-clock by contract

package fed

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"bioopera/internal/codec"
	"bioopera/internal/transport"
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
// so many goroutines may call concurrently over the one connection. It is
// the transport handler for that connection.
type Client struct {
	rpcMethods // Start, Status, Wait, ... over CallRaw

	conn *transport.Conn

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan Frame
	err     error // set once the connection is gone
}

// DialClient connects to a federation endpoint.
func DialClient(addr string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = DefaultCallTimeout
	}
	c := &Client{pending: make(map[uint64]chan Frame)}
	c.rpcMethods = rpcMethods{raw: c.CallRaw}
	_, err := transport.Dial(addr, timeout, func(tc *transport.Conn) transport.Handler {
		c.conn = tc
		return c
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Frame demultiplexes one response to its waiting call.
func (c *Client) Frame(kind byte, body []byte) error {
	if kind != codec.FrameFedResponse {
		return nil
	}
	var f Frame
	if err := json.Unmarshal(body, &f); err != nil {
		return fmt.Errorf("fed: response: %w", err)
	}
	c.mu.Lock()
	ch := c.pending[f.ID]
	delete(c.pending, f.ID)
	c.mu.Unlock()
	if ch != nil {
		ch <- f
	}
	return nil
}

// Closed fails every pending and future call.
func (c *Client) Closed(err error) {
	c.mu.Lock()
	c.err = fmt.Errorf("%w: %v", ErrClientClosed, err)
	for id, ch := range c.pending {
		delete(c.pending, id)
		close(ch)
	}
	c.mu.Unlock()
}

// Close tears the connection down and joins its goroutines; in-flight
// calls fail with ErrClientClosed.
func (c *Client) Close() error { return c.conn.Close() }

// CallRaw sends one request frame and waits for its response, leaving the
// params and result encoding to the caller — the gateway forwards frames
// it never decodes. A response with OK unset maps to *RedirectError or a
// plain error.
func (c *Client) CallRaw(method, instance string, params json.RawMessage, timeout time.Duration) (Frame, error) {
	if timeout <= 0 {
		timeout = DefaultCallTimeout
	}
	ch := make(chan Frame, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return Frame{}, err
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.mu.Unlock()

	// Send, not SendWait: a link with a full queue of unsent requests is
	// as good as down, and the caller's retry logic should see it now.
	f := Frame{ID: id, Method: method, Instance: instance, Params: params}
	if err := sendFrame(c.conn, codec.FrameFedRequest, &f, false); err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return Frame{}, fmt.Errorf("%w: %v", ErrClientClosed, err)
	}

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case resp, ok := <-ch:
		if !ok {
			c.mu.Lock()
			err := c.err
			c.mu.Unlock()
			return Frame{}, err
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
		return Frame{}, fmt.Errorf("fed: %s call timed out after %v", method, timeout)
	}
}
