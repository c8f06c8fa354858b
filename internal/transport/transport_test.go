package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"bioopera/internal/codec"
)

// pipeListener is the in-memory side of the transport: Accept hands out
// the server ends of net.Pipe connections.
type pipeListener struct {
	conns chan net.Conn
	once  sync.Once
	done  chan struct{}
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// dial returns the client end of a fresh connection to the listener.
func (l *pipeListener) dial() net.Conn {
	client, server := net.Pipe()
	l.conns <- server
	return client
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// recorder is a Handler that forwards what it sees to channels.
type recorder struct {
	frames chan []byte
	closed chan error
}

func newRecorder() *recorder {
	return &recorder{frames: make(chan []byte, 16), closed: make(chan error, 1)}
}

func (r *recorder) Frame(kind byte, body []byte) error {
	r.frames <- append([]byte{kind}, body...)
	return nil
}

func (r *recorder) Closed(err error) { r.closed <- err }

func bindTo(h Handler) func(*Conn) Handler { return func(*Conn) Handler { return h } }

// TestSendNeverBlocksSendWaitDoes: against a peer that reads nothing, Send
// fills the queue and then fails with ErrQueueFull instead of blocking;
// SendWait blocks, and Close releases it with ErrGone.
func TestSendNeverBlocksSendWaitDoes(t *testing.T) {
	client, server := net.Pipe() // unbuffered: the unread peer stalls the writer at once
	defer server.Close()
	c, err := attach(client, nil, bindTo(newRecorder()))
	if err != nil {
		t.Fatal(err)
	}
	// Frames as large as the writer's buffer, so the first one already
	// blocks on the unread peer instead of being coalesced.
	big := make([]byte, writeBuf)
	sent := 0
	for err == nil {
		if err = c.Send(codec.FrameCompletion, big); err == nil {
			sent++
		}
		if sent > sendQueueDepth+2 {
			t.Fatalf("%d sends accepted by a queue of %d", sent, sendQueueDepth)
		}
	}
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Send on a stalled peer = %v, want ErrQueueFull", err)
	}
	if sent < sendQueueDepth {
		t.Fatalf("queue took %d frames, want at least %d", sent, sendQueueDepth)
	}

	waited := make(chan error, 1)
	go func() { waited <- c.SendWait(codec.FrameCompletion, []byte("beat")) }()
	select {
	case err := <-waited:
		t.Fatalf("SendWait returned %v on a full queue before Close", err)
	default:
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-waited; !errors.Is(err, ErrGone) {
		t.Fatalf("SendWait released by Close = %v, want ErrGone", err)
	}
	if err := c.Send(codec.FrameCompletion); !errors.Is(err, ErrGone) {
		t.Fatalf("Send after Close = %v, want ErrGone", err)
	}
}

// TestReadFrameErrors: every kind of malformed input has its own error, and
// none of them allocates a body the input did not pay for.
func TestReadFrameErrors(t *testing.T) {
	hdr := func(kind byte, n uint64) []byte {
		return binary.AppendUvarint([]byte{codec.Magic, codec.Version, kind}, n)
	}
	cases := []struct {
		name  string
		input []byte
		want  error
	}{
		{"empty", nil, io.EOF},
		{"json peer", []byte(`{"type":"hello"}` + "\n"), ErrJSONPeer},
		{"bad magic", []byte{0x00, codec.Version, codec.FrameHello, 0}, ErrBadMagic},
		{"bad version", []byte{codec.Magic, codec.Version + 1, codec.FrameHello, 0}, ErrBadVersion},
		{"persist kind", hdr(1, 0), ErrUnknownKind},
		{"wal kind", hdr(17, 0), ErrUnknownKind},
		{"retired worker kind", hdr(33, 0), ErrRetiredKind},
		{"retired fed kind", hdr(40, 0), ErrRetiredKind},
		{"oversize", hdr(codec.FrameShipSnapshot, MaxFrame+1), ErrFrameTooLarge},
		{"truncated header", []byte{codec.Magic, codec.Version}, ErrTruncated},
		{"truncated length", []byte{codec.Magic, codec.Version, codec.FrameHello, 0x80}, ErrTruncated},
		{"truncated body", append(hdr(codec.FrameShipSnapshot, MaxFrame), "ten bytes!"...), ErrTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, buf, err := readFrame(bufio.NewReader(bytes.NewReader(tc.input)), nil)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if cap(buf) > growStep {
				t.Fatalf("allocated %d bytes for %d bytes of input", cap(buf), len(tc.input))
			}
		})
	}
}

// TestFrameRoundTripGrowsAsBytesArrive: a large body round-trips, and the
// buffer it lands in is bounded by what arrived, not by what was declared.
func TestFrameRoundTripGrowsAsBytesArrive(t *testing.T) {
	body := bytes.Repeat([]byte("snapshot"), 100_000)
	wire := appendFrame(nil, codec.FrameShipSnapshot, body[:5], body[5:])
	kind, got, err := readFrame(bufio.NewReader(bytes.NewReader(wire)), nil)
	if err != nil || kind != codec.FrameShipSnapshot || !bytes.Equal(got, body) {
		t.Fatalf("round trip: kind %d, %d bytes, err %v", kind, len(got), err)
	}
	if cap(got) > 2*len(body)+growStep {
		t.Fatalf("buffer grew to %d for a %d-byte body", cap(got), len(body))
	}
}

// TestCloseJoinsEveryGoroutine: an endpoint with accepted and dialed
// connections, frames in flight both ways, leaves no goroutine behind.
func TestCloseJoinsEveryGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()

	ln := newPipeListener()
	ep := newEndpoint(ln)
	accepted := make(chan *recorder, 8)
	ep.Serve(func(c *Conn, kind byte, body []byte) (Handler, error) {
		r := newRecorder()
		accepted <- r
		return r, c.Send(kind, body) // echo the first frame
	}, nil)

	var clients []*recorder
	for range 3 {
		r := newRecorder()
		c, err := attach(ln.dial(), ep, bindTo(r))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SendWait(codec.FrameHello, []byte("hi")); err != nil {
			t.Fatal(err)
		}
		if echo := <-r.frames; string(echo[1:]) != "hi" {
			t.Fatalf("echo = %q", echo)
		}
		clients = append(clients, r)
	}
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
	for range 3 {
		<-(<-accepted).closed
	}
	for _, r := range clients {
		// ErrClosed, or EOF when the accepted end went first.
		if err := <-r.closed; !errors.Is(err, ErrClosed) && err != io.EOF {
			t.Fatalf("dialed connection ended with %v", err)
		}
	}
	// Close has joined every goroutine; the last of them may still be
	// between its final instruction and exit, so yield rather than sleep.
	for guard := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(guard); {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines before, %d after Close", before, n)
	}
}

// TestKeepAliveAndSilence: an idle sender with KeepAlive keeps a watching
// receiver's connection up for as long as time passes; once the sender is
// gone quiet the receiver hangs up with ErrSilent, or — under OnSilence —
// gives its owner the verdict once and stays up; and a receiver busy in its
// handler is not mistaken for a silent peer.
func TestKeepAliveAndSilence(t *testing.T) {
	clock := UseFakeClock(t)
	const every, limit = time.Second, 3 * time.Second
	// The two ways to watch a link, and the suffix of their subtests: each
	// verdict OnSilence hands over is one value on the channel, whose buffer
	// lets a wrong extra verdict be counted instead of blocking the writer.
	watches := []struct {
		suffix string
		watch  func(c *Conn, verdicts chan<- struct{})
	}{
		{"", func(c *Conn, _ chan<- struct{}) { c.HangUpAfter(limit) }},
		{" (OnSilence)", func(c *Conn, v chan<- struct{}) { c.OnSilence(limit, func() { v <- struct{}{} }) }},
	}

	t.Run("keep-alive frame on an idle link", func(t *testing.T) {
		local, peer := net.Pipe()
		c, _ := attach(local, nil, bindTo(newRecorder()))
		defer c.Close()
		base := clock.Armed()
		c.KeepAlive(every)
		clock.WaitArmed(base + 1)
		clock.Advance(every)
		want := appendFrame(nil, codec.FrameKeepAlive)
		got := make([]byte, len(want))
		if _, err := io.ReadFull(peer, got); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("idle link carried %x (%v), want keep-alive %x", got, err, want)
		}
	})

	for _, w := range watches {
		t.Run("keep-alives keep a watched link up"+w.suffix, func(t *testing.T) {
			sender, watcher := net.Pipe()
			a, _ := attach(sender, nil, bindTo(newRecorder()))
			defer a.Close()
			b, _ := attach(watcher, nil, bindTo(newRecorder()))
			defer b.Close()
			verdicts := make(chan struct{}, 16)
			a.KeepAlive(every)
			w.watch(b, verdicts)
			for range 4 * int(limit/every) {
				clock.Advance(every)
				// The watcher has consumed this beat's keep-alive once it is
				// back waiting on the peer, as of now.
				for b.waiting.Load() != int64(clock.Now()) {
					runtime.Gosched()
				}
			}
			if err := b.Err(); err != nil {
				t.Fatalf("watched link ended with %v despite keep-alives", err)
			}
			if n := len(verdicts); n != 0 {
				t.Fatalf("%d silence verdicts despite keep-alives", n)
			}
		})
	}

	t.Run("silent peer is hung up", func(t *testing.T) {
		local, peer := net.Pipe()
		defer peer.Close()
		r := newRecorder()
		c, _ := attach(local, nil, bindTo(r))
		defer c.Close()
		base := clock.Armed()
		c.HangUpAfter(limit)
		clock.WaitArmed(base + 1)
		clock.Advance(limit)
		if err := <-r.closed; !errors.Is(err, ErrSilent) {
			t.Fatalf("connection ended with %v, want ErrSilent", err)
		}
	})

	t.Run("silent peer gets one verdict and stays up", func(t *testing.T) {
		local, peer := net.Pipe()
		defer peer.Close()
		r := newRecorder()
		c, _ := attach(local, nil, bindTo(r))
		verdicts := make(chan struct{}, 16)
		base := clock.Armed()
		c.OnSilence(limit, func() { verdicts <- struct{}{} })
		clock.WaitArmed(base + 1)
		clock.Advance(limit - 1)
		if n := len(verdicts); n != 0 {
			t.Fatalf("%d verdicts before the deadline", n)
		}
		clock.Advance(1)
		<-verdicts
		// A frame from the peer after the verdict still reaches the
		// handler, and more silence gives no second verdict.
		if _, err := peer.Write(appendFrame(nil, codec.FrameCompletion, []byte("late"))); err != nil {
			t.Fatal(err)
		}
		if got := <-r.frames; !bytes.Equal(got, append([]byte{codec.FrameCompletion}, "late"...)) {
			t.Fatalf("handler got %q after the verdict", got)
		}
		clock.Advance(10 * limit)
		if err := c.Err(); err != nil {
			t.Fatalf("the verdict hung the link up: %v", err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if n := len(verdicts); n != 0 {
			t.Fatalf("%d more verdicts after the first", n)
		}
	})

	for _, w := range watches {
		t.Run("busy reader is not silence"+w.suffix, func(t *testing.T) {
			local, peer := net.Pipe()
			defer peer.Close()
			h := &blockingHandler{entered: make(chan struct{}), release: make(chan struct{}), closed: make(chan error, 1)}
			c, _ := attach(local, nil, bindTo(h))
			defer c.Close()
			verdicts := make(chan struct{}, 16)
			base := clock.Armed()
			w.watch(c, verdicts)
			clock.WaitArmed(base + 1)
			if _, err := peer.Write(appendFrame(nil, codec.FrameShipSnapshot, []byte("big"))); err != nil {
				t.Fatal(err)
			}
			<-h.entered // the handler is applying the frame
			clock.Advance(10 * limit)
			clock.WaitArmed(base + 2) // the writer looked, found a busy reader, re-armed
			if err := c.Err(); err != nil {
				t.Fatalf("connection hung up with %v while its handler was busy", err)
			}
			if n := len(verdicts); n != 0 {
				t.Fatalf("%d silence verdicts while the handler was busy", n)
			}
			close(h.release)
		})
	}
}

type blockingHandler struct {
	entered, release chan struct{}
	closed           chan error
}

func (h *blockingHandler) Frame(byte, []byte) error {
	close(h.entered)
	<-h.release
	return nil
}

func (h *blockingHandler) Closed(err error) { h.closed <- err }
