package codec

// Kind namespaces. The kind byte after Magic and Version says what a record
// is, and every decode context accepts only its own range, so a record
// misfiled across contexts fails loudly instead of misparsing:
//
//	 1–4    persist records   (internal/core: meta, create, dyn, task)
//	16–18   WAL records       (internal/store: put, del, event)
//	32–63   transport frames  (internal/transport, declared below)
//
// A frame kind names one message of one protocol, so a message can move
// from a JSON body to a codec body by taking a new kind, one at a time. The
// worker protocol did: 33–38 carried its six messages as JSON, are retired
// and are never reused — a peer that sends one is a pre-codec build and is
// told so (RetiredFrameKind).
const (
	// FrameKeepAlive has an empty body; the transport sends and consumes
	// it itself (liveness on an otherwise idle link).
	FrameKeepAlive byte = 32

	// Federation (internal/fed); bodies are fed.Frame JSON.
	FrameFedHello    byte = 40
	FrameFedGossip   byte = 41
	FrameFedRequest  byte = 42
	FrameFedResponse byte = 43

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

// RetiredFrameKind reports whether kind is one of the worker protocol's
// JSON-bodied kinds, 33–38: what a pre-codec worker or server still sends.
func RetiredFrameKind(kind byte) bool { return kind >= 33 && kind <= 38 }
