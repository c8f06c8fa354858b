package codec

// Kind namespaces. The kind byte after Magic and Version says what a record
// is, and every decode context accepts only its own range, so a record
// misfiled across contexts fails loudly instead of misparsing:
//
//	 1–5    core records      (internal/core: meta, create, dyn, task, event)
//	 8      lease record      (internal/fed, declared below)
//	16–18   WAL records       (internal/store: put, del, event)
//	32–63   transport frames  (internal/transport, declared below)
//
// A frame kind names one message of one protocol, so a message can move
// from a JSON body to a codec body by taking a new kind, one at a time. The
// worker protocol did (33–38 carried its six messages as JSON) and so did the
// federation (40–43 carried its four): those kinds are retired and are never
// reused — a peer that sends one is a pre-codec build, and the transport
// refuses it by name (RetiredFrameKind).
const (
	// RecordLease is a federation partition lease in the store's
	// configuration space: s owner, u incarnation (layout in fed/lease.go).
	RecordLease byte = 8

	// FrameKeepAlive has an empty body; the transport sends and consumes
	// it itself (liveness on an otherwise idle link).
	FrameKeepAlive byte = 32

	// Federation (internal/fed); each body is one codec record whose kind
	// is the frame's own (layouts in fed/frame.go).
	FrameFedHello    byte = 44
	FrameFedGossip   byte = 45
	FrameFedRequest  byte = 46
	FrameFedResponse byte = 47

	// Log shipping (internal/wal); bodies are uvarints and raw records.
	FrameShipSync     byte = 48
	FrameShipRecords  byte = 49
	FrameShipSnapshot byte = 50
	FrameShipError    byte = 51

	// Worker protocol (internal/remote); each body is one codec record
	// whose kind is the frame's own (layouts in remote/protocol.go).
	FrameHello      byte = 56
	FrameWelcome    byte = 57
	FrameLaunch     byte = 58
	FrameKill       byte = 59
	FrameHeartbeat  byte = 60
	FrameCompletion byte = 61

	frameMin byte = 32
	frameMax byte = 63
)

// IsFrameKind reports whether kind lies in the transport-frame namespace.
func IsFrameKind(kind byte) bool { return kind >= frameMin && kind <= frameMax }

// RetiredFrameKind reports whether kind carried a JSON body before its
// message moved to a codec record: the worker protocol's 33–38 or the
// federation's 40–43, what a pre-codec peer still sends.
func RetiredFrameKind(kind byte) bool {
	return (kind >= 33 && kind <= 38) || (kind >= 40 && kind <= 43)
}
