// Package transport is the one link layer under the worker protocol
// (internal/remote), federation gossip and RPC (internal/fed) and WAL log
// shipping (internal/wal): listening, the first-frame handshake and its
// deadline, framing, the per-connection send queue, liveness stamps and a
// Close that joins every goroutine. It knows nothing about payloads — it
// hands (kind, body) to the owner's Handler and sends what it is given.
//
// A frame is
//
//	codec.Magic  codec.Version  kind(1)  uvarint body length  body
//
// with kind in the transport namespace of internal/codec. Every connection
// runs two goroutines: a reader, on which the Handler is called, and a
// writer, which drains the send queue and owns every timer (handshake
// deadline, keep-alive, silence). Time comes from one package-level
// sim.Clock, a wall clock unless a test swaps in one it drives.
//
// Liveness is the transport's: KeepAlive proves a sender alive on an idle
// link, and a watcher's silence deadline either hangs up (HangUpAfter) or
// hands the verdict to its owner (OnSilence).
package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"bioopera/internal/codec"
	"bioopera/internal/sim"
)

const (
	// DefaultHandshakeTimeout is how long an accepted connection — or a
	// dialed one that called ExpectReply — may take to deliver its first
	// frame before it is hung up.
	DefaultHandshakeTimeout = 10 * time.Second

	// sendQueueDepth bounds each connection's outbound queue. The traffic
	// is one or two small frames per unit of work, so the bound is hit only
	// when the peer's stream has stalled for hundreds of frames — at which
	// point failing the send (and letting the owner reschedule) beats
	// queueing more.
	sendQueueDepth = 256

	writeBuf = 16 << 10
)

var (
	// ErrGone fails a send on a connection that has ended; Err says why.
	ErrGone = errors.New("transport: connection is gone")
	// ErrQueueFull fails a Send whose peer has stopped draining.
	ErrQueueFull = errors.New("transport: send queue full")
	// ErrClosed is the reason recorded by a local Close.
	ErrClosed = errors.New("transport: closed locally")
	// ErrHandshakeTimeout hangs up a connection whose first frame did not
	// arrive within DefaultHandshakeTimeout.
	ErrHandshakeTimeout = errors.New("transport: no first frame within the handshake deadline")
	// ErrSilent hangs up a connection that stayed silent past the limit its
	// owner set with HangUpAfter.
	ErrSilent = errors.New("transport: peer silent")
)

// Handler is the owner's side of one connection. Both methods run on the
// connection's reader goroutine, so they never run concurrently.
type Handler interface {
	// Frame receives one inbound frame; body is valid until it returns. A
	// non-nil error hangs the connection up with that reason.
	Frame(kind byte, body []byte) error
	// Closed is called exactly once, after the last Frame, with the reason
	// the connection ended (ErrClosed after a local Close).
	Closed(err error)
}

// AcceptFunc sees an accepted connection's first frame and returns the
// handler for the rest, or an error to refuse the peer. It may Send on c.
type AcceptFunc func(c *Conn, kind byte, body []byte) (Handler, error)

// clk is the package's one source of time.
var clk = sim.NewWall()

// outBuf is one encoded frame waiting in a send queue.
type outBuf struct{ b []byte }

var outPool = sync.Pool{New: func() any { return new(outBuf) }}

// Conn is one framed connection.
type Conn struct {
	nc  net.Conn
	ep  *Endpoint // nil for a standalone Dial
	h   Handler   // reader goroutine only; nil until accepted
	out chan *outBuf

	gone     chan struct{} // closed by hangUp
	hangOnce sync.Once
	err      error // why the connection ended; written before gone closes
	closeErr error
	wdone    chan struct{} // closed when the writer has exited
	rdone    chan struct{} // closed when the reader — the last one out — has

	// Clock readings (nanoseconds) and limits, shared between the reader,
	// the writer's timer and the owner.
	waiting     atomic.Int64           // since when the reader has been blocked on the peer; notWaiting while it has bytes to work on
	sent        atomic.Int64           // last outbound frame
	handshakeBy atomic.Int64           // first frame due; 0 once it has arrived
	silentLimit atomic.Int64           // HangUpAfter or OnSilence; 0 = none
	onSilence   atomic.Pointer[func()] // OnSilence's action; nil hangs up
	keepAlive   atomic.Int64           // KeepAlive; 0 = none
	wake        chan struct{}
}

func newConn(nc net.Conn, ep *Endpoint) *Conn {
	c := &Conn{
		nc: nc, ep: ep,
		out:   make(chan *outBuf, sendQueueDepth),
		gone:  make(chan struct{}),
		wdone: make(chan struct{}),
		rdone: make(chan struct{}),
		wake:  make(chan struct{}, 1),
	}
	now := int64(clk.Now())
	c.waiting.Store(now)
	c.sent.Store(now)
	return c
}

// Dial connects to addr and delivers inbound frames to the handler bind
// returns. bind runs before any frame can arrive, so the owner can store the
// Conn where its handler will look for it. The caller sends the first frame.
func Dial(addr string, timeout time.Duration, bind func(*Conn) Handler) (*Conn, error) {
	return dial(nil, addr, timeout, bind)
}

func dial(ep *Endpoint, addr string, timeout time.Duration, bind func(*Conn) Handler) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return attach(nc, ep, bind)
}

// attach runs a connection that was dialed: over TCP above, over net.Pipe
// in tests.
func attach(nc net.Conn, ep *Endpoint, bind func(*Conn) Handler) (*Conn, error) {
	c := newConn(nc, ep)
	c.h = bind(c)
	if ep != nil && !ep.adopt(c) {
		return nil, ErrClosed
	}
	c.start()
	return c, nil
}

func (c *Conn) start() {
	go c.reader()
	go c.writer()
}

// RemoteAddr names the peer.
func (c *Conn) RemoteAddr() string { return c.nc.RemoteAddr().String() }

// Done is closed once the connection has ended.
func (c *Conn) Done() <-chan struct{} { return c.gone }

// Err reports why the connection ended; nil while it is up.
func (c *Conn) Err() error {
	select {
	case <-c.gone:
		return c.err
	default:
		return nil
	}
}

// notWaiting is the waiting stamp of a reader that is not blocked.
const notWaiting = -1

// SilentFor reports how long the reader has been waiting for the peer to
// say something. Any bytes count, and a reader still working through what
// it received — a handler applying a large frame — is not waiting: silence
// is the peer's, never ours.
func (c *Conn) SilentFor() time.Duration {
	now := time.Duration(clk.Now()) // before the stamp: a reading that races a fresh stamp must not overstate the silence
	since := c.waiting.Load()
	if since == notWaiting {
		return 0
	}
	return max(now-time.Duration(since), 0)
}

// ExpectReply arms the handshake deadline: unless a frame arrives within
// DefaultHandshakeTimeout from now the connection is hung up with
// ErrHandshakeTimeout. Accepted connections start with it armed; a dialer
// that has sent a hello and needs the answer calls it too.
func (c *Conn) ExpectReply() {
	c.handshakeBy.Store(int64(clk.Now().Add(DefaultHandshakeTimeout)))
	c.poke()
}

// HangUpAfter hangs the connection up with ErrSilent once SilentFor
// reaches d; zero disarms.
func (c *Conn) HangUpAfter(d time.Duration) {
	c.onSilence.Store(nil)
	c.silentLimit.Store(int64(d))
	c.poke()
}

// OnSilence is HangUpAfter with the owner's verdict: once SilentFor reaches
// d, fn runs once, on the writer goroutine, and the connection stays up — a
// frame that arrives later still reaches the handler. fn may Send on c but
// must not Close it. Zero disarms.
func (c *Conn) OnSilence(d time.Duration, fn func()) {
	c.onSilence.Store(&fn)
	c.silentLimit.Store(int64(d))
	c.poke()
}

// KeepAlive makes the writer send an empty keep-alive frame whenever
// nothing else has been sent for every, so an idle link still proves the
// sender alive.
func (c *Conn) KeepAlive(every time.Duration) {
	c.keepAlive.Store(int64(every))
	c.poke()
}

// poke makes the writer recompute its timer.
func (c *Conn) poke() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// Send queues one frame whose body is the concatenation of parts, without
// ever blocking: ErrGone if the connection has ended, ErrQueueFull if the
// peer has stopped draining. It is what a caller holding a lock uses.
func (c *Conn) Send(kind byte, parts ...[]byte) error {
	b, err := c.encode(kind, parts)
	if err != nil {
		return err
	}
	select {
	case c.out <- b:
		return nil
	default:
		recycle(b)
		return ErrQueueFull
	}
}

// SendWait is Send with back-pressure: it blocks while the queue is full
// and returns ErrGone as soon as the connection ends. Callers hold no lock.
func (c *Conn) SendWait(kind byte, parts ...[]byte) error {
	b, err := c.encode(kind, parts)
	if err != nil {
		return err
	}
	select {
	case c.out <- b:
		return nil
	case <-c.gone:
		recycle(b)
		return ErrGone
	}
}

// encode builds the frame in a pooled buffer, unless the connection has
// already ended.
func (c *Conn) encode(kind byte, parts [][]byte) (*outBuf, error) {
	select {
	case <-c.gone:
		return nil, ErrGone
	default:
	}
	b := outPool.Get().(*outBuf)
	b.b = appendFrame(b.b[:0], kind, parts...)
	return b, nil
}

func recycle(b *outBuf) {
	if cap(b.b) <= maxRetain {
		outPool.Put(b)
	}
}

// hangUp ends the connection with the given reason, once, without waiting
// for its goroutines. Safe from any goroutine.
func (c *Conn) hangUp(reason error) {
	c.hangOnce.Do(func() {
		c.err = reason
		close(c.gone)
		c.closeErr = c.nc.Close()
	})
}

// Close hangs up and waits for the connection's goroutines — and so for
// the handler's Closed call — to finish. It must not be called from the
// handler; a handler ends its connection by returning an error from Frame.
func (c *Conn) Close() error {
	c.hangUp(ErrClosed)
	<-c.rdone
	return c.closeErr
}

// stampReader stamps waiting around every read from the connection, so a
// large frame arriving slowly still counts as a live peer.
type stampReader struct{ c *Conn }

func (s stampReader) Read(p []byte) (int, error) {
	if s.c.waiting.Load() == notWaiting { // else: still waiting since the connection began
		s.c.waiting.Store(int64(clk.Now()))
	}
	n, err := s.c.nc.Read(p)
	if n > 0 {
		s.c.waiting.Store(notWaiting)
	}
	return n, err
}

// reader decodes frames and hands them to the handler until the stream
// ends, then joins the writer and reports why.
func (c *Conn) reader() {
	defer close(c.rdone)
	br := bufio.NewReader(stampReader{c})
	var (
		buf  []byte
		kind byte
		err  error
	)
	for {
		if kind, buf, err = readFrame(br, buf); err != nil {
			break
		}
		if c.handshakeBy.Load() != 0 {
			c.handshakeBy.Store(0)
		}
		switch {
		case kind == codec.FrameKeepAlive:
		case c.h == nil:
			c.h, err = c.ep.accept(c, kind, buf)
		default:
			err = c.h.Frame(kind, buf)
		}
		if err != nil {
			break
		}
		if cap(buf) > maxRetain {
			buf = nil
		}
	}
	c.hangUp(err)
	<-c.wdone
	if c.h != nil {
		c.h.Closed(c.err)
	} else if c.ep.refused != nil && c.err != ErrClosed { // our own Close refuses nobody
		c.ep.refused(c.RemoteAddr(), c.err)
	}
	if c.ep != nil {
		c.ep.forget(c)
	}
}

// writer drains the send queue onto the connection, flushing whenever the
// queue runs empty, and runs the connection's timer.
func (c *Conn) writer() {
	defer close(c.wdone)
	bw := bufio.NewWriterSize(c.nc, writeBuf)
	var (
		tick  <-chan struct{}
		timer sim.Stopper
	)
	arm := func() {
		if timer != nil {
			timer.Stop()
		}
		tick, timer = nil, nil
		if at, armed := c.nextDeadline(); armed {
			fired := make(chan struct{}, 1) // the timer's one send never blocks
			tick, timer = fired, clk.AtFunc(at, func() { fired <- struct{}{} })
		}
	}
	arm()
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		var err error
		select {
		case b := <-c.out:
			_, err = bw.Write(b.b)
			recycle(b)
			if err == nil && len(c.out) == 0 {
				err = bw.Flush()
			}
			if c.keepAlive.Load() != 0 {
				c.sent.Store(int64(clk.Now()))
			}
		case <-c.wake:
			arm()
		case <-tick:
			err = c.onTick(bw)
			arm()
		case <-c.gone:
			return
		}
		if err != nil {
			c.hangUp(err)
			return
		}
	}
}

// nextDeadline reports the earliest armed deadline, as a clock reading.
func (c *Conn) nextDeadline() (sim.Time, bool) {
	next, armed := int64(0), false
	consider := func(at int64) {
		if !armed || at < next {
			next, armed = at, true
		}
	}
	if by := c.handshakeBy.Load(); by != 0 {
		consider(by)
	}
	if lim := c.silentLimit.Load(); lim != 0 {
		if since := c.waiting.Load(); since != notWaiting {
			consider(since + lim)
		} else {
			consider(int64(clk.Now()) + lim) // busy now; look again later
		}
	}
	if ka := c.keepAlive.Load(); ka != 0 {
		consider(c.sent.Load() + ka)
	}
	return sim.Time(next), armed
}

// onTick acts on whichever deadlines have passed.
func (c *Conn) onTick(bw *bufio.Writer) error {
	now := int64(clk.Now())
	if by := c.handshakeBy.Load(); by != 0 && now >= by {
		return ErrHandshakeTimeout
	}
	if lim := c.silentLimit.Load(); lim != 0 && c.SilentFor() >= time.Duration(lim) {
		fn := c.onSilence.Load()
		if fn == nil {
			return fmt.Errorf("%w for %v", ErrSilent, time.Duration(lim))
		}
		c.silentLimit.Store(0) // the verdict is given once
		(*fn)()
	}
	if ka := c.keepAlive.Load(); ka != 0 && now-c.sent.Load() >= ka {
		c.sent.Store(now)
		var hdr [8]byte
		if _, err := bw.Write(appendFrame(hdr[:0], codec.FrameKeepAlive)); err != nil {
			return err
		}
		return bw.Flush()
	}
	return nil
}

// Endpoint is a listener plus every connection accepted on it or dialed
// through it; Close ends them all.
type Endpoint struct {
	ln      net.Listener
	accept  AcceptFunc
	refused func(remote string, err error)
	wg      sync.WaitGroup // the accept loop and every connection's reader

	mu     sync.Mutex
	conns  map[*Conn]struct{}
	closed bool
}

// Listen binds addr (":0" picks a free port; Addr reports it). Nothing is
// accepted until Serve, so the owner can store the Endpoint where its accept
// callback will look for it.
func Listen(addr string) (*Endpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newEndpoint(ln), nil
}

func newEndpoint(ln net.Listener) *Endpoint {
	return &Endpoint{ln: ln, conns: make(map[*Conn]struct{})}
}

// Serve starts accepting. Each connection's first frame must arrive within
// DefaultHandshakeTimeout and goes to accept; a connection that fails
// before accept returned a handler — deadline, malformed frame,
// pre-transport JSON peer, accept's own refusal — is reported to refused
// (which may be nil).
func (ep *Endpoint) Serve(accept AcceptFunc, refused func(remote string, err error)) {
	ep.accept, ep.refused = accept, refused
	ep.wg.Add(1)
	go ep.acceptLoop()
}

// Addr reports the bound listen address.
func (ep *Endpoint) Addr() string { return ep.ln.Addr().String() }

func (ep *Endpoint) acceptLoop() {
	defer ep.wg.Done()
	for {
		nc, err := ep.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c := newConn(nc, ep)
		c.ExpectReply() // the peer's first frame
		if ep.adopt(c) {
			c.start()
		}
	}
}

// Dial is the package-level Dial for a connection the endpoint's Close
// should also end: the caller's to use, the endpoint's to close.
func (ep *Endpoint) Dial(addr string, timeout time.Duration, bind func(*Conn) Handler) (*Conn, error) {
	return dial(ep, addr, timeout, bind)
}

// adopt registers c, or drops it when the endpoint has closed.
func (ep *Endpoint) adopt(c *Conn) bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		//bioopera:allow droppederr the endpoint is closing; dropping the late connection is best-effort
		c.nc.Close()
		return false
	}
	ep.conns[c] = struct{}{}
	ep.wg.Add(1)
	return true
}

// forget is the last thing a connection's reader does.
func (ep *Endpoint) forget(c *Conn) {
	ep.mu.Lock()
	delete(ep.conns, c)
	ep.mu.Unlock()
	ep.wg.Done()
}

// Close closes the listener and every connection, and returns once every
// goroutine the endpoint started has exited — every handler has seen its
// Closed. It returns the listener's close error.
func (ep *Endpoint) Close() error {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return nil
	}
	ep.closed = true
	conns := make([]*Conn, 0, len(ep.conns))
	for c := range ep.conns {
		conns = append(conns, c)
	}
	ep.mu.Unlock()
	err := ep.ln.Close()
	for _, c := range conns {
		c.hangUp(ErrClosed)
	}
	ep.wg.Wait()
	return err
}
