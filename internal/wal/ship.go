// Log shipping: a Shipper streams committed WAL batches over TCP to one
// or more Followers, which replay them into their own log. This is the
// wire layer of the hot-standby story — the paper leaned on a replicated
// DBMS for durable process state; we ship our own WAL instead.
//
// The protocol runs over internal/transport; the frame kind
// (internal/codec) names the message and bodies are uvarints and raw bytes:
//
//	follower → shipper   FrameShipSync      from
//	shipper  → follower  FrameShipSnapshot  seq, base file            bootstrap
//	shipper  → follower  FrameShipRecords   first, the batch's frames  per batch
//	shipper  → follower  FrameShipError     text                      terminal refusal
//
// Records are shipped post-fsync and batch-aligned, in the log's own
// framing: the shipper only reads records below the committed frontier
// (WaitCommitted), and each records frame carries exactly one atomic batch
// as AppendBatch wrote it, checksums included, so the follower checks it
// with the walk that checks the log and re-appends the primary's commit
// units verbatim; a crash on either side rolls back to the same batch
// boundary. A follower whose cursor has fallen behind the oldest retained
// segment is bootstrapped with the base file; otherwise the shipper pins
// the retention floor (SetRetainFloor) at its slowest follower's cursor so
// snapshots on the primary cannot truncate records a standby still needs.
//
// Liveness: an idle shipper sends the transport's keep-alive frame every
// DefaultHeartbeatEvery, and a follower that has heard nothing for
// DefaultHeartbeatTimeout gives the primary up for dead — a half-open TCP
// path must not keep a standby from promoting.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"bioopera/internal/codec"
	"bioopera/internal/transport"
)

// The shipping link's failure detector: constants, the same on every
// primary and standby.
const (
	DefaultHeartbeatEvery   = time.Second
	DefaultHeartbeatTimeout = 3 * time.Second
)

// ShipperOptions configure a Shipper.
type ShipperOptions struct {
	// Log is the log to ship from. Required.
	Log *Log
	// Logf receives protocol diagnostics. May be nil.
	Logf func(format string, args ...any)
}

// Shipper serves the primary side of log shipping. It is safe for
// concurrent use alongside appends and truncation on the same Log.
type Shipper struct {
	ep   *transport.Endpoint
	log  *Log
	opts ShipperOptions

	mu      sync.Mutex
	cursors map[*transport.Conn]uint64 // next sequence each follower needs
	wg      sync.WaitGroup             // one serve goroutine per follower
}

// NewShipper listens on addr and serves the log to connecting followers.
func NewShipper(addr string, opts ShipperOptions) (*Shipper, error) {
	if opts.Log == nil {
		return nil, fmt.Errorf("wal: ShipperOptions needs a Log")
	}
	ep, err := transport.Listen(addr)
	if err != nil {
		return nil, fmt.Errorf("wal: ship listen: %w", err)
	}
	s := &Shipper{
		ep:      ep,
		log:     opts.Log,
		opts:    opts,
		cursors: make(map[*transport.Conn]uint64),
	}
	ep.Serve(s.accept, func(remote string, err error) {
		s.logf("wal: ship %s: bad handshake: %v", remote, err)
	})
	return s, nil
}

// Addr returns the bound listen address (handy with ":0").
func (s *Shipper) Addr() string { return s.ep.Addr() }

func (s *Shipper) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// setCursor records a follower's progress and re-pins the retention floor
// at the minimum across followers, so Compact keeps what the
// slowest standby still needs.
func (s *Shipper) setCursor(c *transport.Conn, cursor uint64) {
	s.mu.Lock()
	s.cursors[c] = cursor
	s.refloorLocked()
	s.mu.Unlock()
}

func (s *Shipper) dropCursor(c *transport.Conn) {
	s.mu.Lock()
	delete(s.cursors, c)
	s.refloorLocked()
	s.mu.Unlock()
}

func (s *Shipper) refloorLocked() {
	var floor uint64
	for _, c := range s.cursors {
		if floor == 0 || c < floor {
			floor = c
		}
	}
	s.log.SetRetainFloor(floor) // 0 with no followers: unconstrained
}

// followerConn is the handler for one follower's connection. Followers say
// nothing after their sync; the connection ending is what matters, and the
// serve goroutine sees that through Done.
type followerConn struct{}

func (followerConn) Frame(kind byte, _ []byte) error {
	return fmt.Errorf("wal: ship: unexpected frame kind %d from a follower", kind)
}

func (followerConn) Closed(error) {}

// accept is the shipper's handshake: the first frame must be a sync naming
// the first sequence the follower needs. The stream is served from a
// goroutine of its own, which may block on the follower's pace.
func (s *Shipper) accept(c *transport.Conn, kind byte, body []byte) (transport.Handler, error) {
	cursor, n := binary.Uvarint(body)
	if kind != codec.FrameShipSync || n <= 0 {
		return nil, errors.New("wal: ship: first frame is not a sync")
	}
	if cursor == 0 {
		cursor = 1
	}
	// Register before the first read so the retention floor protects the
	// cursor from a concurrent truncation.
	s.setCursor(c, cursor)
	c.KeepAlive(DefaultHeartbeatEvery)
	s.logf("wal: ship %s: follower syncing from %d", c.RemoteAddr(), cursor)
	s.wg.Add(1)
	go s.serve(c, cursor)
	return followerConn{}, nil
}

// serve streams the log to one follower until it disconnects or the
// shipper closes (which closes the connection). SendWait gives the stream
// back-pressure: a slow follower slows this goroutine, nothing else.
func (s *Shipper) serve(c *transport.Conn, cursor uint64) {
	defer s.wg.Done()
	defer s.dropCursor(c)
	refuse := func(err error) {
		s.logf("wal: ship %s: %v", c.RemoteAddr(), err)
		_ = c.SendWait(codec.FrameShipError, []byte(err.Error())) // the follower hangs up on it
	}
	var body []byte // one batch's frame body, reused
	for {
		committed, ok := s.log.WaitCommitted(cursor-1, c.Done())
		if !ok {
			return
		}
		if oldest := s.log.OldestSeq(); cursor < oldest {
			// The records the follower needs are gone — bootstrap it.
			seq, base, err := s.log.baseBytes()
			if err == nil && seq == 0 {
				err = errors.New("no base")
			}
			if err != nil {
				refuse(fmt.Errorf("records from %d truncated (oldest %d): %w", cursor, oldest, err))
				return
			}
			if err := c.SendWait(codec.FrameShipSnapshot, binary.AppendUvarint(body[:0], seq), base); err != nil {
				return
			}
			cursor = seq
			s.setCursor(c, cursor)
			s.logf("wal: ship %s: bootstrapped to %d (%d base bytes)", c.RemoteAddr(), seq, len(base))
			continue
		}
		if committed < cursor {
			continue // woke for a frontier we already shipped
		}
		err := s.log.ReplayBatches(cursor, func(first uint64, records [][]byte) error {
			if first+uint64(len(records)) > committed+1 {
				return io.EOF // past the frontier captured above; ship next round
			}
			body = appendFrames(binary.AppendUvarint(body[:0], first), records, false)
			if err := c.SendWait(codec.FrameShipRecords, body); err != nil {
				return err
			}
			cursor = first + uint64(len(records))
			s.setCursor(c, cursor)
			return nil
		})
		if err != nil && err != io.EOF {
			refuse(err) // a log that cannot be read (ErrCorrupt) ends the stream, it does not stall it
			return
		}
	}
}

// Close stops serving: the listener closes, follower connections drop, and
// the retention floor is released.
func (s *Shipper) Close() error {
	err := s.ep.Close()
	s.wg.Wait()
	s.log.SetRetainFloor(0)
	if err != nil {
		return fmt.Errorf("wal: ship close: %w", err)
	}
	return nil
}

// FollowerOptions configure a Follower.
type FollowerOptions struct {
	// From is the first sequence this follower needs (its own log's
	// NextSeq). Zero means from the beginning.
	From uint64
	// ApplyBatch ingests one shipped batch: first is the sequence of
	// records[0]. Required. An error stops Run.
	ApplyBatch func(first uint64, records [][]byte) error
	// ApplySnapshot installs the records of the primary's base, the state
	// of every sequence < seq. Required if the primary may have truncated
	// past From.
	ApplySnapshot func(seq uint64, records [][]byte) error
}

// Follower is the standby side of log shipping: it dials a Shipper and
// applies what arrives, on the connection's reader goroutine. It is the
// transport handler for that connection.
type Follower struct {
	conn *transport.Conn
	opts FollowerOptions
	done chan struct{} // closed by Closed, after err is set
	err  error
}

// DialFollower connects to a Shipper at addr and requests the stream. Call
// Run to wait for it to end.
func DialFollower(addr string, opts FollowerOptions) (*Follower, error) {
	if opts.ApplyBatch == nil {
		return nil, fmt.Errorf("wal: FollowerOptions needs ApplyBatch")
	}
	f := &Follower{opts: opts, done: make(chan struct{})}
	conn, err := transport.Dial(addr, transport.DefaultHandshakeTimeout, func(c *transport.Conn) transport.Handler {
		f.conn = c
		return f
	})
	if err != nil {
		return nil, fmt.Errorf("wal: follow dial: %w", err)
	}
	conn.HangUpAfter(DefaultHeartbeatTimeout)
	if err := conn.Send(codec.FrameShipSync, binary.AppendUvarint(nil, opts.From)); err != nil {
		//bioopera:allow droppederr the handshake failure is returned; closing the dead connection is best-effort
		conn.Close()
		return nil, fmt.Errorf("wal: follow sync: %w", err)
	}
	return f, nil
}

// Frame applies one shipped message; an error ends the stream with it. A
// records or base frame that fails the log's own checks is ErrCorrupt.
func (f *Follower) Frame(kind byte, body []byte) error {
	seq, n := binary.Uvarint(body)
	apply, seal := f.opts.ApplyBatch, []byte(nil)
	switch kind {
	case codec.FrameShipError:
		return fmt.Errorf("primary refused: %s", body)
	case codec.FrameShipSnapshot:
		apply, seal = f.opts.ApplySnapshot, baseSeal(seq)
	case codec.FrameShipRecords:
	default:
		return fmt.Errorf("unknown frame kind %d", kind)
	}
	if n <= 0 || apply == nil {
		return fmt.Errorf("malformed or unexpected frame of kind %d", kind)
	}
	records, err := readBatch(body[n:], seal)
	if err == nil {
		err = apply(seq, records)
	}
	if err != nil {
		return fmt.Errorf("apply %d: %w", seq, err)
	}
	return nil
}

// Closed records why the stream ended and releases Run.
func (f *Follower) Closed(err error) {
	switch {
	case errors.Is(err, transport.ErrClosed):
		err = nil
	case err == io.EOF:
		err = errors.New("wal: follow: primary closed the stream")
	case errors.Is(err, transport.ErrSilent):
		err = fmt.Errorf("wal: follow: primary silent for %v", DefaultHeartbeatTimeout)
	default:
		err = fmt.Errorf("wal: follow: %w", err)
	}
	f.err = err
	close(f.done)
}

// Run blocks until the stream ends: nil after a local Close; otherwise why
// — the primary closed the stream, went silent past
// DefaultHeartbeatTimeout, or an apply callback failed — which is the
// standby's cue to promote.
func (f *Follower) Run() error {
	<-f.done
	return f.err
}

// Close drops the connection; a concurrent Run returns nil.
func (f *Follower) Close() error { return f.conn.Close() }
