package remote

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"bioopera/internal/cluster"
	"bioopera/internal/codec"
	"bioopera/internal/core"
	"bioopera/internal/ocr"
	"bioopera/internal/transport"
)

// wireCase is one message as its sender fills it and as its receiver reads
// it back; the two differ only where the wire says they may.
type wireCase struct {
	name string
	kind byte
	in   message
	want message
}

// message is what the six wire structs share on the send side.
type message interface{ Encode(*codec.Encoder) }

// wireCases has every field of every message set.
func wireCases() []wireCase {
	vals := map[string]ocr.Value{
		"flag":  ocr.Bool(true),
		"list":  ocr.List(ocr.Num(1), ocr.Str("two"), ocr.List(), ocr.Null),
		"none":  ocr.Null,
		"num":   ocr.Num(-2.5),
		"text":  ocr.Str("p0001/A#1"), // repeats the job: a back-reference on the wire
		"empty": ocr.Str(""),
	}
	hello := Hello{Worker: "w1", Nodes: []NodeInfo{
		{Name: "cpu0", OS: "linux", CPUs: 1, Speed: 1},
		{Name: "cpu1", OS: "plan9", CPUs: 4, Speed: 2.5},
	}}
	welcome := Welcome{Incarnation: 3, HeartbeatMs: 1000}
	launch := Launch{
		Job: "p0001/A#1", Lease: 7, Incarnation: 3, Program: "lab.step",
		Ctx:  core.ProgramCtx{Instance: "p0001", Task: "A", Attempt: 2, Node: "w1/cpu0"},
		Nice: true, CostMs: 1500, TimeoutMs: -1, Inputs: vals,
	}
	kill := Kill{Job: "p0001/A#1", Lease: 7}
	beat := Heartbeat{Load: 0.25}
	done := Completion{Job: "p0001/A#1", Lease: 7, Incarnation: 3, CPUNanos: 1234, Outputs: vals}
	failed := Completion{Job: "p0001/A#1", Lease: 8, Incarnation: 3, CPUNanos: 99, Error: "exit status 2"}
	noOutputs := Completion{Job: "j", Lease: 9, Incarnation: 3}
	emptyOutputs := noOutputs
	emptyOutputs.Outputs = map[string]ocr.Value{}
	return []wireCase{
		{"hello", codec.FrameHello, &hello, &hello},
		{"welcome", codec.FrameWelcome, &welcome, &welcome},
		{"launch", codec.FrameLaunch, &launch, &launch},
		{"launch, no inputs", codec.FrameLaunch, &Launch{Job: "j", Lease: 1}, &Launch{Job: "j", Lease: 1}},
		{"kill", codec.FrameKill, &kill, &kill},
		{"heartbeat", codec.FrameHeartbeat, &beat, &beat},
		{"completion", codec.FrameCompletion, &done, &done},
		{"completion, program error", codec.FrameCompletion, &failed, &failed},
		{"completion, absent outputs", codec.FrameCompletion, &noOutputs, &noOutputs},
		// An empty map travels as an absent one; handleCompletion makes
		// either the empty map the engine needs.
		{"completion, empty outputs", codec.FrameCompletion, &emptyOutputs, &noOutputs},
	}
}

func encodeBody(m message) []byte {
	e := codec.Get()
	defer codec.Put(e)
	m.Encode(e)
	return bytes.Clone(e.Buf)
}

// decodeBody reads a frame the way the two Frame handlers do: open, then the
// kind's own Decode. A completion's job view is copied into the struct.
func decodeBody(kind byte, body []byte) (message, error) {
	var d codec.Decoder
	if err := d.Open(body, kind); err != nil {
		return nil, err
	}
	switch kind {
	case codec.FrameHello:
		return decodeInto[Hello](&d)
	case codec.FrameWelcome:
		return decodeInto[Welcome](&d)
	case codec.FrameLaunch:
		return decodeInto[Launch](&d)
	case codec.FrameKill:
		return decodeInto[Kill](&d)
	case codec.FrameHeartbeat:
		return decodeInto[Heartbeat](&d)
	case codec.FrameCompletion:
		var m Completion
		job, err := m.Decode(&d)
		m.Job = string(job)
		return &m, err
	}
	return nil, errNotWorkerKind
}

var errNotWorkerKind = errors.New("not a worker-protocol kind")

func decodeInto[M any, P interface {
	*M
	message
	Decode(*codec.Decoder) error
}](d *codec.Decoder) (message, error) {
	m := P(new(M))
	return m, m.Decode(d)
}

func TestWireRoundTrip(t *testing.T) {
	for _, c := range wireCases() {
		t.Run(c.name, func(t *testing.T) {
			body := encodeBody(c.in)
			got, err := decodeBody(c.kind, body)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("decoded\n %+v\nwant\n %+v", got, c.want)
			}
			if _, err := decodeBody(c.kind, append(body, 0)); err == nil {
				t.Fatal("a trailing byte was accepted")
			}
			if _, err := decodeBody(c.kind, body[:len(body)-1]); err == nil {
				t.Fatal("a truncated body was accepted")
			}
		})
	}
}

// elements counts what a decoded message made the decoder allocate per item:
// nodes, map entries and list items, at every depth.
func elements(m message) int {
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
	switch m := m.(type) {
	case *Hello:
		return len(m.Nodes)
	case *Launch:
		return values(m.Inputs)
	case *Completion:
		return values(m.Outputs)
	}
	return 0
}

// FuzzWorkerMessage: decoding a worker-protocol body never panics, makes no
// more items than the body has bytes (a corrupt count is an error, not an
// allocation), accepts a body only when it consumed it exactly, and reads
// back what the encoder writes.
func FuzzWorkerMessage(f *testing.F) {
	for _, c := range wireCases() {
		f.Add(c.kind, encodeBody(c.in))
	}
	f.Add(codec.FrameHello, []byte(`{"worker":"old"}`))
	f.Fuzz(func(t *testing.T, kind byte, body []byte) {
		m, err := decodeBody(kind, body)
		if err != nil {
			return
		}
		if n := elements(m); n > len(body) {
			t.Fatalf("%d items decoded from %d bytes", n, len(body))
		}
		if _, err := decodeBody(kind, append(bytes.Clone(body), 0)); err == nil {
			t.Fatal("the body was accepted with a byte to spare: Finish did not run")
		}
		// The encoder's bytes are canonical (sorted keys, interned
		// strings); the input's need not be. Once through the encoder, a
		// second trip must change nothing — compared as bytes, so NaN
		// payloads count as equal to themselves.
		again := encodeBody(m)
		m2, err := decodeBody(kind, again)
		if err != nil {
			t.Fatalf("re-encoded message does not decode: %v", err)
		}
		if third := encodeBody(m2); !bytes.Equal(again, third) {
			t.Fatalf("round trip changed the message:\n %x\n %x", again, third)
		}
	})
}

// TestBodyUnderWrongKind: every message's body is refused under each of the
// other five kinds, before a field of it is read.
func TestBodyUnderWrongKind(t *testing.T) {
	for _, c := range wireCases() {
		body := encodeBody(c.in)
		for kind := codec.FrameHello; kind <= codec.FrameCompletion; kind++ {
			_, err := decodeBody(kind, body)
			if (err == nil) != (kind == c.kind) {
				t.Errorf("%s body under kind %d: err = %v", c.name, kind, err)
			}
			if kind != c.kind && !errors.Is(err, codec.ErrCorrupt) {
				t.Errorf("%s body under kind %d: err = %v, want ErrCorrupt", c.name, kind, err)
			}
		}
	}
}

// rawFrame is one transport frame as it travels.
func rawFrame(kind byte, body []byte) []byte {
	b := []byte{codec.Magic, codec.Version, kind}
	b = binary.AppendUvarint(b, uint64(len(body)))
	return append(b, body...)
}

// logCapture collects a server's diagnostics for a test to wait on.
type logCapture struct {
	t  *testing.T
	mu sync.Mutex
	s  []string
}

func (l *logCapture) logf(format string, args ...any) {
	l.t.Helper()
	l.t.Logf(format, args...)
	l.mu.Lock()
	l.s = append(l.s, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *logCapture) saw(substr string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.s {
		if strings.Contains(line, substr) {
			return true
		}
	}
	return false
}

func listenLogged(t *testing.T) (*Server, *logCapture) {
	t.Helper()
	logs := &logCapture{t: t}
	s, err := Listen("127.0.0.1:0", ServerConfig{HeartbeatEvery: beatEvery, HeartbeatTimeout: time.Hour, Logf: logs.logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, logs
}

// dialRaw connects to the server as a peer that writes its own bytes.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	return nc
}

// expectHangUp reads until the server closes the connection.
func expectHangUp(t *testing.T, nc net.Conn) {
	t.Helper()
	if _, err := io.Copy(io.Discard, nc); err != nil {
		t.Fatalf("waiting for the hang-up: %v", err)
	}
}

// TestWrongBodyHangsUp: a registered worker that sends a heartbeat body in a
// completion frame is hung up (and so declared dead), not half-parsed.
func TestWrongBodyHangsUp(t *testing.T) {
	s, logs := listenLogged(t)
	nc := dialRaw(t, s.Addr())
	hello := encodeBody(&Hello{Worker: "w1", Nodes: []NodeInfo{{Name: "cpu0", OS: "linux", CPUs: 1, Speed: 1}}})
	if _, err := nc.Write(rawFrame(codec.FrameHello, hello)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "worker registered", func() bool { w, _, _ := s.Stats(); return w == 1 })
	if _, err := nc.Write(rawFrame(codec.FrameCompletion, encodeBody(&Heartbeat{Load: 0.5}))); err != nil {
		t.Fatal(err)
	}
	expectHangUp(t, nc)
	waitFor(t, "worker declared dead", func() bool { _, dead, _ := s.Stats(); return dead == 1 })
	if !logs.saw("a record of kind 60 where kind 61 belongs") {
		t.Fatal("the server did not say why it hung up")
	}
}

// TestPreCodecWorkerIsRefused: a worker from before the codec bodies — its
// hello under the retired kind 33 (refused by the transport), or a JSON body
// under any kind (refused by the codec) — is hung up at the handshake with an
// error that names it.
func TestPreCodecWorkerIsRefused(t *testing.T) {
	const jsonHello = `{"worker":"old","nodes":[{"name":"cpu0","os":"linux","cpus":1,"speed":1}]}`
	for name, frame := range map[string][]byte{
		"retired kind": rawFrame(33, []byte(jsonHello)),
		"JSON body":    rawFrame(codec.FrameHello, []byte(jsonHello)),
	} {
		t.Run(name, func(t *testing.T) {
			s, logs := listenLogged(t)
			nc := dialRaw(t, s.Addr())
			if _, err := nc.Write(frame); err != nil {
				t.Fatal(err)
			}
			expectHangUp(t, nc)
			waitFor(t, "refusal logged", func() bool { return logs.saw("pre-codec") })
			if w, _, _ := s.Stats(); w != 0 {
				t.Fatalf("%d workers registered", w)
			}
		})
	}
}

// hangUpHandler is a transport handler with nothing to say.
type hangUpHandler struct{}

func (hangUpHandler) Frame(byte, []byte) error { return nil }
func (hangUpHandler) Closed(error)             {}

// TestPreCodecServerIsRefused: the same from the worker's side — a server
// that answers the hello with the retired JSON welcome fails the Dial with
// the transport's named error for a retired kind.
func TestPreCodecServerIsRefused(t *testing.T) {
	ep, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	ep.Serve(func(c *transport.Conn, _ byte, _ []byte) (transport.Handler, error) {
		return hangUpHandler{}, c.Send(34, []byte(`{"incarnation":1,"heartbeatMs":1000}`))
	}, nil)
	_, err = Dial(ep.Addr(), AgentConfig{Name: "w1", Library: core.NewLibrary(), Logf: t.Logf})
	if !errors.Is(err, transport.ErrRetiredKind) {
		t.Fatalf("Dial = %v, want transport.ErrRetiredKind", err)
	}
}

// TestKillsLeaveNothingBehind: a kill names a lease the agent may have
// finished with already — the completion was sent, or the program was
// unknown. Such a kill must not be remembered: the agent's table holds
// running leases only, and is empty once they are done.
func TestKillsLeaveNothingBehind(t *testing.T) {
	s, _ := listenLogged(t)
	completions := make(chan cluster.Completion, 1)
	s.SetHandlers(func(c cluster.Completion) { completions <- c }, func() {})
	a, err := Dial(s.Addr(), AgentConfig{Name: "w1", CPUs: 1, Library: addLibrary(t), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	const n = 16
	run := func(i int, program string) uint64 {
		t.Helper()
		job := cluster.JobID(fmt.Sprintf("j%d", i))
		if err := s.Launch(core.Launch{
			Job: job, Node: "w1/cpu0", Program: program,
			Inputs: map[string]ocr.Value{"a": ocr.Num(1), "b": ocr.Num(2)},
		}); err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		lease := s.nextLease
		s.mu.Unlock()
		select {
		case c := <-completions:
			if c.Job != job || c.Err != nil {
				t.Fatalf("completion %+v for %s", c, job)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("no completion for %s", job)
		}
		return lease
	}
	s.mu.Lock()
	conn := s.workers["w1"].conn
	s.mu.Unlock()
	for i := 0; i < n; i++ {
		program := "test.add"
		if i%2 == 1 {
			program = "test.unknown" // runJob's other way out
		}
		lease := run(i, program)
		// The server has dropped the lease, so Server.Kill would send
		// nothing; put the late kill on the wire directly.
		e := codec.Get()
		(&Kill{Job: fmt.Sprintf("j%d", i), Lease: lease}).Encode(e)
		if err := send(conn, codec.FrameKill, e); err != nil {
			t.Fatal(err)
		}
	}
	// Frames are handled in order: once this job is back, every kill
	// before it has been.
	run(n, "test.add")
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.running) != 0 {
		t.Fatalf("agent still remembers %d leases after all of them ended: %v", len(a.running), a.running)
	}
}

// allocSink keeps the budget test's decoded messages on the heap, where the
// agent's and the server's live.
var allocSink any

// TestWireAllocBudget is the worker link's per-layer allocation budget, for
// the payload the benchmark sends (one 256-byte string value under a
// one-byte key, which Go does not allocate). Encoding into a held encoder
// allocates nothing. Decoding allocates what outlives the frame and nothing
// else: a launch is its struct, five strings (job, node, program, instance,
// task), the inputs map (header and group) and the value; a completion is
// the outputs map and the value — its job is looked up from the frame. A
// regression on remote_chains shows here first, by layer.
func TestWireAllocBudget(t *testing.T) {
	vals := map[string]ocr.Value{"x": ocr.Str(strings.Repeat("x", 256))}
	launch := Launch{
		Job: "p000123/A4#0", Lease: 7, Incarnation: 3, Program: "bench.id", Inputs: vals,
		Ctx: core.ProgramCtx{Instance: "p000123", Task: "A4", Node: "w1/cpu0"},
	}
	done := Completion{Job: launch.Job, Lease: 7, Incarnation: 3, CPUNanos: 1234, Outputs: vals}
	e := codec.Get()
	defer codec.Put(e)
	var d codec.Decoder
	for _, c := range []struct {
		name   string
		encode func()
		decode func(body []byte)
		want   float64
	}{
		{"launch", func() { launch.Encode(e) }, func(body []byte) {
			l := new(Launch)
			if d.Open(body, codec.FrameLaunch) != nil || l.Decode(&d) != nil {
				t.Fatal("launch does not decode")
			}
			allocSink = l
		}, 9},
		{"completion", func() { done.Encode(e) }, func(body []byte) {
			var m Completion
			if d.Open(body, codec.FrameCompletion) != nil {
				t.Fatal("completion does not open")
			}
			if _, err := m.Decode(&d); err != nil {
				t.Fatal(err)
			}
			allocSink = m.Outputs
		}, 3},
	} {
		encode := func() { e.Reset(); c.encode() }
		if got := testing.AllocsPerRun(200, encode); got != 0 {
			t.Errorf("%s encode: %v allocations, want 0", c.name, got)
		}
		body := bytes.Clone(e.Buf)
		if got := testing.AllocsPerRun(200, func() { c.decode(body) }); got != c.want {
			t.Errorf("%s decode: %v allocations, want %v", c.name, got, c.want)
		}
	}
}
