package fed

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"bioopera/internal/codec"
	"bioopera/internal/core"
	"bioopera/internal/ocr"
	"bioopera/internal/store"
	"bioopera/internal/transport"
)

// wireMessages is one message of each federation frame kind.
func wireMessages() map[byte]message {
	return map[byte]message{
		codec.FrameFedHello: &Beat{From: MemberInfo{Name: "alpha", Addr: "127.0.0.1:7000", Incarnation: 2, Up: true, Partitions: []int{0, 3}}},
		codec.FrameFedGossip: &Beat{From: MemberInfo{Name: "alpha", Up: true},
			Members: []MemberInfo{{Name: "beta", Addr: "127.0.0.1:7001", Incarnation: 3, Up: true, Partitions: []int{1}}}},
		codec.FrameFedRequest: &Request{ID: 9, Method: MethodStart,
			Start: StartReq{Template: "Chain8", Inputs: map[string]ocr.Value{"x": ocr.Str("payload")}, Priority: 2, Tenant: "lab"}},
		codec.FrameFedResponse: &Response{ID: 9, Started: "f03-alpha.2-000001"},
	}
}

// encodeAny encodes a body the way its sender does: a frame body as a
// record of the frame's kind, a lease as the lease table writes it.
func encodeAny(kind byte, m any) []byte {
	if l, ok := m.(*Lease); ok {
		return appendLease(nil, *l)
	}
	e := codec.Get()
	defer codec.Put(e)
	e.Begin(kind)
	m.(message).Encode(e)
	e.End()
	return bytes.Clone(e.Buf)
}

// frameOf is one transport frame as it travels: magic, version, kind, body
// length, body.
func frameOf(kind byte, body []byte) []byte {
	b := binary.AppendUvarint([]byte{codec.Magic, codec.Version, kind}, uint64(len(body)))
	return append(b, body...)
}

// TestFedFramesGolden pins the federation's bytes: one frame of each kind —
// header, then the body, a codec record of the same kind — and one lease
// record as the store keeps it. A layout change shows up here as a diff to
// review, and means a new kind (DESIGN §13), not an edit to these strings.
func TestFedFramesGolden(t *testing.T) {
	golden := map[byte]string{
		codec.FrameFedHello: "bf012c1e" + "bf012c" + "0a616c706861" + "1c3132372e302e302e313a37303030" + "02" + "01" + "020003" + "00",
		codec.FrameFedGossip: "bf012d26" + "bf012d" + "0a616c706861" + "00" + "00" + "01" + "00" +
			"01" + "0862657461" + "1c3132372e302e302e313a37303031" + "03" + "01" + "0101",
		codec.FrameFedRequest: "bf012e2b" + "bf012e" + "09" + "0a7374617274" + "00" + "0c436861696e38" +
			"01" + "0278" + "03" + "0e7061796c6f6164" + "04" + "00" + "066c6162" +
			"00" + "00" + "03" + "03" + "00" + "03" + "00",
		codec.FrameFedResponse: "bf012f21" + "bf012f" + "09" + "00" + "00" + "01" + "01" +
			"246630332d616c7068612e322d303030303031" + "01" + "00" + "01" + "00" + "00" + "00",
	}
	msgs := wireMessages()
	if len(msgs) != len(golden) {
		t.Fatalf("%d fed messages, %d goldens", len(msgs), len(golden))
	}
	for kind, want := range golden {
		if got := hex.EncodeToString(frameOf(kind, encodeAny(kind, msgs[kind]))); got != want {
			t.Errorf("kind %d on the wire:\n got  %s\n want %s", kind, got, want)
		}
	}
	lease := appendLease(nil, Lease{Partition: 3, Owner: "alpha", Incarnation: 7})
	if got, want := hex.EncodeToString(lease), "bf0108"+"0a616c706861"+"07"; got != want {
		t.Errorf("lease record:\n got  %s\n want %s", got, want)
	}
}

// decodeAny reads a body the way its receiver does: a frame body by the
// frame's kind, a lease record by its own.
func decodeAny(kind byte, body []byte) (any, error) {
	var m message
	switch kind {
	case codec.FrameFedHello, codec.FrameFedGossip:
		m = new(Beat)
	case codec.FrameFedRequest:
		m = new(Request)
	case codec.FrameFedResponse:
		m = new(Response)
	case codec.RecordLease:
		l, err := decodeLease(body, 0)
		return &l, err
	default:
		return nil, errors.New("not a fed kind")
	}
	var d codec.Decoder
	return m, decode(&d, kind, body, m)
}

// elements counts what a decoded message made the decoder allocate per
// item: members, partitions, map entries, list items at every depth and
// lineage entries.
func elements(m any) int {
	var value func(v ocr.Value) int
	value = func(v ocr.Value) int {
		n := 1
		for i := 0; i < v.Len(); i++ {
			n += value(v.At(i))
		}
		return n
	}
	values := func(vs map[string]ocr.Value) (n int) {
		for _, v := range vs {
			n += value(v)
		}
		return n
	}
	members := func(ms []MemberInfo) int {
		n := len(ms)
		for _, mi := range ms {
			n += len(mi.Partitions)
		}
		return n
	}
	switch m := m.(type) {
	case *Beat:
		return len(m.From.Partitions) + members(m.Members)
	case *Request:
		return values(m.Start.Inputs) + values(m.Payload) + value(m.Value)
	case *Response:
		n := values(m.State.Outputs) + members(m.View.Members)
		if lg := m.Lineage; lg != nil {
			n += len(lg.Items) + len(lg.Reads) + len(lg.Writes) + len(lg.Programs)
			for _, it := range lg.Items {
				n += len(it.Consumers)
			}
			for _, edges := range []map[string][]string{lg.Reads, lg.Writes} {
				for _, e := range edges {
					n += len(e)
				}
			}
		}
		return n
	}
	return 0
}

// FuzzFedMessage: decoding a federation body or lease record never panics,
// makes no more items than the body has bytes (a corrupt count is an error,
// not an allocation), accepts a body only when it consumed it exactly, and
// reads back what the encoder writes.
func FuzzFedMessage(f *testing.F) {
	for kind, m := range wireMessages() {
		f.Add(kind, encodeAny(kind, m))
	}
	lg := &core.Lineage{
		Items:    map[string]*core.LineageNode{"::x": {Item: "::x", Consumers: []string{"::A"}}, "::task:A": {Item: "::task:A", Producer: "::A"}},
		Reads:    map[string][]string{"::A": {"::x"}},
		Writes:   map[string][]string{"::A": {"::task:A"}},
		Programs: map[string]string{"::A": "lab.step"},
	}
	f.Add(codec.FrameFedResponse, encodeAny(codec.FrameFedResponse, &Response{ID: 4, Code: codeRedirect, Error: "moved", Redirect: "beta",
		State: StateRes{Status: "done", Outputs: map[string]ocr.Value{"r": ocr.List(ocr.Num(1), ocr.Null)}},
		View:  MembersView{Partitions: 8, Members: []MemberInfo{{Name: "alpha", Partitions: []int{2}}}}, Lineage: lg}))
	f.Add(codec.FrameFedRequest, encodeAny(codec.FrameFedRequest, &Request{ID: 5, Method: MethodSignal, Instance: "f01-a.1-000001",
		Event: "go", Payload: map[string]ocr.Value{"y": ocr.Bool(true)}, Name: "p", Value: ocr.Num(5)}))
	f.Add(codec.RecordLease, appendLease(nil, Lease{Owner: "alpha", Incarnation: 7}))
	f.Add(codec.RecordLease, []byte(`{"partition":3,"owner":"alpha"}`))
	f.Fuzz(func(t *testing.T, kind byte, body []byte) {
		m, err := decodeAny(kind, body)
		if err != nil {
			return
		}
		if n := elements(m); n > len(body) {
			t.Fatalf("%d items decoded from %d bytes", n, len(body))
		}
		if _, err := decodeAny(kind, append(bytes.Clone(body), 0)); err == nil {
			t.Fatal("the body was accepted with a byte to spare: Finish did not run")
		}
		// The encoder's bytes are canonical (sorted keys, interned
		// strings); the input's need not be. Once through the encoder, a
		// second trip must change nothing — compared as bytes, so NaN
		// payloads count as equal to themselves.
		again := encodeAny(kind, m)
		m2, err := decodeAny(kind, again)
		if err != nil {
			t.Fatalf("re-encoded message does not decode: %v", err)
		}
		if third := encodeAny(kind, m2); !bytes.Equal(again, third) {
			t.Fatalf("round trip changed the message:\n %x\n %x", again, third)
		}
	})
}

// TestJSONLeaseRefusedAtBoot: a store holding a lease written before the
// codec records is refused by name when the member boots — not reported as
// a corrupt lease on every heartbeat after it.
func TestJSONLeaseRefusedAtBoot(t *testing.T) {
	st := store.NewMem()
	if err := st.Put(store.Configuration, leaseKey(3), []byte(`{"partition":3,"owner":"alpha","incarnation":2}`)); err != nil {
		t.Fatal(err)
	}
	_, err := NewMember(Config{Name: "alpha", ListenAddr: "127.0.0.1:0", Store: st, Library: fedLib(), Partitions: 8})
	if !errors.Is(err, codec.ErrCorrupt) || !strings.Contains(err.Error(), "pre-codec JSON record") ||
		!strings.Contains(err.Error(), "partition 3") {
		t.Fatalf("NewMember over a JSON lease = %v, want a named refusal", err)
	}
}

// TestRetiredFedKindRefused: a member from before the codec bodies — its
// JSON hello under the retired kind 40 — is hung up, and the member reports
// the transport's named error for it.
func TestRetiredFedKindRefused(t *testing.T) {
	refused := make(chan error, 8)
	m, err := NewMember(Config{Name: "alpha", ListenAddr: "127.0.0.1:0", Store: store.NewMem(), Library: fedLib(),
		Partitions: 8, OnError: func(err error) {
			select {
			case refused <- err:
			default:
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	nc, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write(frameOf(40, []byte(`{"from":{"name":"old","up":true}}`))); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case err := <-refused:
			if errors.Is(err, transport.ErrRetiredKind) {
				return
			}
			t.Logf("other error: %v", err)
		case <-deadline:
			t.Fatal("the member never reported the retired kind")
		}
	}
}
