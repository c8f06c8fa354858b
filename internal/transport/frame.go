package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"bioopera/internal/codec"
)

// MaxFrame bounds a frame body. The one large frame is log shipping's
// bootstrap snapshot; everything else is a few hundred bytes. The bound is
// checked before any of the body is read, and the body buffer grows only as
// bytes arrive, so a peer declaring a huge length costs nothing.
const MaxFrame = 1 << 30

// Frame errors. Each malformed input has its own, so a log line names what
// arrived.
var (
	// ErrJSONPeer refuses a peer that still speaks the newline-JSON
	// protocols this package replaced: its first byte is '{'.
	ErrJSONPeer = errors.New("transport: pre-transport JSON peer — upgrade both ends")
	// ErrBadMagic means the stream does not start a frame where one is due.
	ErrBadMagic = errors.New("transport: bad frame magic")
	// ErrBadVersion means the peer frames with a layout this build does
	// not know.
	ErrBadVersion = errors.New("transport: unknown frame version")
	// ErrUnknownKind means the kind byte lies outside the transport
	// namespace — a persist or WAL record sent down a connection.
	ErrUnknownKind = errors.New("transport: frame kind outside the transport namespace")
	// ErrRetiredKind refuses a pre-codec peer: it sends a kind whose body was
	// JSON before its message became a codec record (codec.RetiredFrameKind).
	ErrRetiredKind = errors.New("transport: retired frame kind: the peer is a pre-codec build (JSON bodies) — upgrade both ends")
	// ErrFrameTooLarge means the declared body length exceeds MaxFrame.
	ErrFrameTooLarge = errors.New("transport: frame exceeds MaxFrame")
	// ErrTruncated means the stream ended inside a frame.
	ErrTruncated = errors.New("transport: truncated frame")
)

const (
	// growStep is the least the body buffer grows by; beyond it the buffer
	// doubles, so its capacity never exceeds twice the bytes that actually
	// arrived plus one step.
	growStep = 4 << 10
	// maxRetain is the largest buffer kept for reuse, on either direction:
	// a snapshot-sized buffer is dropped after its one use.
	maxRetain = 64 << 10
)

// appendFrame appends one frame — magic, version, kind, uvarint body
// length, body — to dst. The body is the concatenation of parts.
func appendFrame(dst []byte, kind byte, parts ...[]byte) []byte {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	dst = append(dst, codec.Magic, codec.Version, kind)
	dst = binary.AppendUvarint(dst, uint64(n))
	for _, p := range parts {
		dst = append(dst, p...)
	}
	return dst
}

// readFrame reads one frame from r and returns its kind and body. The body
// is buf, grown as needed and reused across calls. A clean end of stream
// between frames is io.EOF.
func readFrame(r *bufio.Reader, buf []byte) (kind byte, body []byte, err error) {
	magic, err := r.ReadByte()
	if err != nil {
		return 0, buf, err
	}
	switch magic {
	case codec.Magic:
	case '{':
		return 0, buf, ErrJSONPeer
	default:
		return 0, buf, fmt.Errorf("%w: 0x%02x", ErrBadMagic, magic)
	}
	version, err := r.ReadByte()
	if err != nil {
		return 0, buf, truncated(err)
	}
	if version != codec.Version {
		return 0, buf, fmt.Errorf("%w: %d", ErrBadVersion, version)
	}
	if kind, err = r.ReadByte(); err != nil {
		return 0, buf, truncated(err)
	}
	if !codec.IsFrameKind(kind) {
		return 0, buf, fmt.Errorf("%w: %d", ErrUnknownKind, kind)
	}
	if codec.RetiredFrameKind(kind) {
		return 0, buf, fmt.Errorf("%w: got frame kind %d", ErrRetiredKind, kind)
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, buf, truncated(err)
	}
	if n > MaxFrame {
		return 0, buf, fmt.Errorf("%w: %d bytes declared", ErrFrameTooLarge, n)
	}
	buf = buf[:0]
	for want := int(n); len(buf) < want; {
		step := min(want-len(buf), max(len(buf), growStep))
		if cap(buf)-len(buf) < step {
			buf = append(make([]byte, 0, len(buf)+step), buf...)
		}
		got, err := io.ReadFull(r, buf[len(buf):len(buf)+step])
		buf = buf[:len(buf)+got]
		if err != nil {
			return 0, buf, truncated(err)
		}
	}
	return kind, buf, nil
}

// truncated names an end of stream inside a frame; any other read error
// (a reset, a closed connection) passes through.
func truncated(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrTruncated
	}
	return err
}
