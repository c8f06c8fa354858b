package transport_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"bioopera/internal/codec"
	"bioopera/internal/core"
	"bioopera/internal/fed"
	"bioopera/internal/ocr"
	"bioopera/internal/remote"
	"bioopera/internal/store"
	"bioopera/internal/transport"
	"bioopera/internal/wal"
)

// testGuard bounds how long a test waits on a real socket before calling
// the behaviour under test missing. Nothing sleeps for it: it only expires
// when the test is about to fail.
const testGuard = 5 * time.Second

// listeners starts the four protocol owners' listeners and returns their
// addresses by name.
func listeners(t *testing.T) map[string]string {
	t.Helper()
	addrs := make(map[string]string)

	srv, err := remote.Listen("127.0.0.1:0", remote.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	addrs["remote.Server"] = srv.Addr()

	m, err := fed.NewMember(fed.Config{
		Name: "alpha", ListenAddr: "127.0.0.1:0",
		Store: store.NewMem(), Library: core.NewLibrary(), Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	addrs["fed.Member"] = m.Addr()

	g, err := fed.NewGateway(fed.GatewayConfig{ListenAddr: "127.0.0.1:0", Members: []string{m.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	addrs["fed.Gateway"] = g.Addr()

	log, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	sh, err := wal.NewShipper("127.0.0.1:0", wal.ShipperOptions{Log: log})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sh.Close() })
	addrs["wal.Shipper"] = sh.Addr()

	return addrs
}

// TestSilentConnectionIsHungUp: a peer that connects and says nothing is
// hung up at the handshake deadline by every one of the four listeners.
func TestSilentConnectionIsHungUp(t *testing.T) {
	clock := transport.UseFakeClock(t)
	for name, addr := range listeners(t) {
		t.Run(name, func(t *testing.T) {
			armed := clock.Armed()
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			clock.WaitArmed(armed + 1) // accepted: the handshake deadline is running
			nc.SetReadDeadline(time.Now().Add(testGuard))
			clock.Advance(transport.DefaultHandshakeTimeout)
			if _, err := nc.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("read on a connection past its handshake deadline = %v, want EOF", err)
			}
		})
	}
}

// TestJSONPeerIsRefused: a peer still speaking newline-JSON is hung up at
// its first byte by every listener — not parsed, not waited for.
func TestJSONPeerIsRefused(t *testing.T) {
	for name, addr := range listeners(t) {
		t.Run(name, func(t *testing.T) {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			nc.SetDeadline(time.Now().Add(testGuard))
			if _, err := nc.Write([]byte(`{"type":"hello","worker":"old"}` + "\n")); err != nil {
				t.Fatal(err)
			}
			if _, err := nc.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("read after a JSON hello = %v, want EOF", err)
			}
		})
	}
}

// TestRetiredKindIsRefused: a peer from before the codec bodies — here a
// member's JSON hello under the retired kind 40 — is hung up by every
// listener at the frame's header, before its body is read.
func TestRetiredKindIsRefused(t *testing.T) {
	hello := transport.AppendFrame(nil, 40, []byte(`{"from":{"name":"old","up":true}}`))
	for name, addr := range listeners(t) {
		t.Run(name, func(t *testing.T) {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			nc.SetDeadline(time.Now().Add(testGuard))
			if _, err := nc.Write(hello); err != nil {
				t.Fatal(err)
			}
			if _, err := nc.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("read after a retired-kind hello = %v, want EOF", err)
			}
		})
	}
}

// TestFollowerGivesUpOnSilentPrimary: a primary that accepts the
// connection and then sends nothing — not even keep-alives — while keeping
// the socket open is declared silent after wal.DefaultHeartbeatTimeout,
// which is the standby's cue to promote.
func TestFollowerGivesUpOnSilentPrimary(t *testing.T) {
	clock := transport.UseFakeClock(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	held := make(chan net.Conn, 1)
	go func() {
		nc, err := ln.Accept()
		if err == nil {
			held <- nc // accepted, never read, never written, never closed
		}
	}()
	armed := clock.Armed()
	f, err := wal.DialFollower(ln.Addr().String(), wal.FollowerOptions{
		ApplyBatch: func(uint64, [][]byte) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	defer func() { (<-held).Close() }()
	clock.WaitArmed(armed + 1) // the follower is watching for silence
	clock.Advance(wal.DefaultHeartbeatTimeout)
	if err := f.Run(); err == nil || !strings.Contains(err.Error(), "primary silent") {
		t.Fatalf("Run = %v, want a primary-silent error", err)
	}
}

// TestIdleShipperSendsKeepAlives: a shipper with nothing to ship still puts
// a keep-alive frame on the wire every wal.DefaultHeartbeatEvery — what the
// follower's silence limit is measured against.
func TestIdleShipperSendsKeepAlives(t *testing.T) {
	clock := transport.UseFakeClock(t)
	log, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	sh, err := wal.NewShipper("127.0.0.1:0", wal.ShipperOptions{Log: log})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	armed := clock.Armed()
	nc, err := net.Dial("tcp", sh.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(testGuard))
	if _, err := nc.Write(transport.AppendFrame(nil, codec.FrameShipSync, binary.AppendUvarint(nil, 1))); err != nil {
		t.Fatal(err)
	}
	clock.WaitArmed(armed + 1) // accepted; its clock readings predate the Advance below
	want := transport.AppendFrame(nil, codec.FrameKeepAlive)
	for beat := range 3 {
		clock.Advance(wal.DefaultHeartbeatEvery)
		got := make([]byte, len(want))
		if _, err := io.ReadFull(nc, got); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("beat %d: idle shipper sent %x (%v), want keep-alive %x", beat, got, err, want)
		}
	}
}

// workerFrames is one frame of each worker-protocol message, built by the
// encoders internal/remote sends with.
func workerFrames() map[byte][]byte {
	vals := map[string]ocr.Value{"x": ocr.Str("payload")}
	frames := make(map[byte][]byte)
	for kind, m := range map[byte]interface{ Encode(*codec.Encoder) }{
		codec.FrameHello:      &remote.Hello{Worker: "w1", Nodes: []remote.NodeInfo{{Name: "cpu0", OS: "linux", CPUs: 1, Speed: 1}}},
		codec.FrameWelcome:    &remote.Welcome{Incarnation: 3, HeartbeatMs: 1000},
		codec.FrameLaunch:     &remote.Launch{Job: "p0001/A#1", Lease: 7, Incarnation: 3, Program: "lab.step", Ctx: core.ProgramCtx{Instance: "p0001", Task: "A", Attempt: 1, Node: "w1/cpu0"}, Inputs: vals},
		codec.FrameKill:       &remote.Kill{Job: "p0001/A#1", Lease: 7},
		codec.FrameCompletion: &remote.Completion{Job: "p0001/A#1", Lease: 7, Incarnation: 3, Outputs: vals, CPUNanos: 1234},
	} {
		e := codec.Get()
		m.Encode(e)
		frames[kind] = transport.AppendFrame(nil, kind, e.Buf)
		codec.Put(e)
	}
	return frames
}

// TestWorkerFramesGolden pins the worker protocol's bytes: frame header
// (magic, version, kind, body length), then the body — a codec record of the
// same kind. A layout change shows up here as a diff to review, and means a
// new frame kind (DESIGN §13), not an edit to these strings.
func TestWorkerFramesGolden(t *testing.T) {
	golden := map[byte]string{
		codec.FrameHello:      "bf01381b" + "bf0138" + "047731" + "01" + "0863707530" + "0a6c696e7578" + "02" + "000000000000f03f",
		codec.FrameWelcome:    "bf013906" + "bf0139" + "03" + "d00f",
		codec.FrameLaunch:     "bf013a38" + "bf013a" + "1270303030312f412331" + "0e77312f63707530" + "07" + "03" + "106c61622e73746570" + "0a7030303031" + "0241" + "02" + "00" + "00" + "00" + "01" + "0278" + "03" + "0e7061796c6f6164",
		codec.FrameKill:       "bf013b0e" + "bf013b" + "1270303030312f412331" + "07",
		codec.FrameCompletion: "bf013d1e" + "bf013d" + "0970303030312f412331" + "07" + "03" + "a413" + "00" + "01" + "0278" + "03" + "0e7061796c6f6164",
	}
	frames := workerFrames()
	if len(frames) != len(golden) {
		t.Fatalf("%d worker frames, %d goldens", len(frames), len(golden))
	}
	for kind, want := range golden {
		if got := hex.EncodeToString(frames[kind]); got != want {
			t.Errorf("kind %d on the wire:\n got  %s\n want %s", kind, got, want)
		}
	}
}

// walFrame is one WAL frame of data, its length word or'ed with flag: the
// shipping bodies carry records in the log's own framing.
func walFrame(flag uint32, data string) []byte {
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(data))|flag)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE([]byte(data)))
	return append(frame, data...)
}

// everyKind is one real frame of every kind, as the owners encode them.
func everyKind() [][]byte {
	vals := map[string]ocr.Value{"x": ocr.Str("payload")}
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	record := func(kind byte, m interface{ Encode(*codec.Encoder) }) []byte {
		e := codec.Get()
		defer codec.Put(e)
		e.Begin(kind)
		m.Encode(e)
		e.End()
		return bytes.Clone(e.Buf)
	}
	frames := map[byte][]byte{
		codec.FrameKeepAlive:    nil,
		codec.FrameFedHello:     record(codec.FrameFedHello, &fed.Beat{From: fed.MemberInfo{Name: "alpha", Addr: "127.0.0.1:7000", Incarnation: 2, Up: true, Partitions: []int{0, 3}}}),
		codec.FrameFedGossip:    record(codec.FrameFedGossip, &fed.Beat{From: fed.MemberInfo{Name: "alpha", Up: true}, Members: []fed.MemberInfo{{Name: "beta", Addr: "127.0.0.1:7001", Up: true}}}),
		codec.FrameFedRequest:   record(codec.FrameFedRequest, &fed.Request{ID: 9, Method: fed.MethodStart, Start: fed.StartReq{Template: "Chain8", Inputs: vals}}),
		codec.FrameFedResponse:  record(codec.FrameFedResponse, &fed.Response{ID: 9, Started: "f03-alpha.2-000001"}),
		codec.FrameShipSync:     uv(42),
		codec.FrameShipRecords:  append(uv(42), walFrame(0, "abc")...),
		codec.FrameShipSnapshot: slices.Concat(uv(42), walFrame(1<<31, "abc"), walFrame(0, string(binary.LittleEndian.AppendUint64(nil, 42)))), // a record, then the seal
		codec.FrameShipError:    []byte("records from 1 truncated (oldest 40): no base"),
	}
	var out [][]byte
	for kind, body := range frames {
		out = append(out, transport.AppendFrame(nil, kind, body))
	}
	for _, frame := range workerFrames() {
		out = append(out, frame)
	}
	return out
}

// FuzzReadFrame: the frame decoder never panics, never holds a buffer the
// input did not pay for, reads back whatever the encoder wrote, and refuses a
// retired kind by name.
func FuzzReadFrame(f *testing.F) {
	for _, frame := range everyKind() {
		f.Add(frame)
	}
	// A heartbeat from an agent built when kind 60 carried one: kind 60 is
	// unassigned now, and its frame reads like any other.
	f.Add([]byte("\xbf\x01\x3c\x0b\xbf\x01\x3c\x00\x00\x00\x00\x00\x00\xd0\x3f"))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, body, _ := transport.ReadFrame(bufio.NewReader(bytes.NewReader(data)), nil)
		if cap(body) > 2*len(data)+transport.GrowStep {
			t.Fatalf("%d-byte buffer for %d bytes of input", cap(body), len(data))
		}
		kind := codec.FrameKeepAlive + byte(len(data)%32)
		wire := transport.AppendFrame(nil, kind, data)
		gotKind, got, err := transport.ReadFrame(bufio.NewReader(bytes.NewReader(wire)), body)
		if codec.RetiredFrameKind(kind) {
			if !errors.Is(err, transport.ErrRetiredKind) {
				t.Fatalf("retired kind %d read back with err %v", kind, err)
			}
			return
		}
		if err != nil || gotKind != kind || !bytes.Equal(got, data) {
			t.Fatalf("round trip of kind %d, %d bytes: kind %d, %d bytes, err %v", kind, len(data), gotKind, len(got), err)
		}
	})
}
