package store

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"
	"time"

	"bioopera/internal/codec"
)

// moveFrameGolden is the WAL frame of MoveOp(Instance, History,
// "task/p1/-/S1"): the codec header (magic, version, kind 19), the source
// space, the key as a literal string (length 12, shifted left: 0x18) and the
// target space.
const moveFrameGolden = "bf0113" + "01" + "18" + "7461736b2f70312f2d2f5331" + "03"

func TestMoveFrameGolden(t *testing.T) {
	var e codec.Encoder
	encodeOp(&e, MoveOp(Instance, History, "task/p1/-/S1"))
	if got := hex.EncodeToString(e.Span(0)); got != moveFrameGolden {
		t.Fatalf("move frame = %s, want %s", got, moveFrameGolden)
	}
	var d codec.Decoder
	op, err := decodeOp(&d, e.Span(0))
	if err != nil {
		t.Fatal(err)
	}
	if from, ok := op.MovedFrom(); !ok || from != Instance || op.Space != History || op.Key != "task/p1/-/S1" || op.Value != nil {
		t.Fatalf("decoded %+v", op)
	}
}

// moveWorkload writes records into Instance, then one batch that moves two
// of them to History — one onto a record History already holds — moves a
// key Instance does not hold, and puts beside the moves.
func moveWorkload(t *testing.T, s Store) {
	t.Helper()
	for i := 0; i < 4; i++ {
		if err := s.Put(Instance, fmt.Sprintf("task/p1/-/S%d", i), bytes.Repeat([]byte{byte('a' + i)}, 10+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put(History, "task/p1/-/S1", []byte("stale")); err != nil {
		t.Fatal(err)
	}
	if err := s.Batch([]Op{
		{Space: History, Key: "inst/p1", Value: []byte("done")},
		MoveOp(Instance, History, "task/p1/-/S0"),
		MoveOp(Instance, History, "task/p1/-/S1"),
		MoveOp(Instance, History, "task/p1/-/absent"),
		{Space: Instance, Key: "task/p1/-/S3", Delete: true},
	}); err != nil {
		t.Fatal(err)
	}
}

// listAll lists every space of s.
func listAll(t *testing.T, s Store) [][]KV {
	t.Helper()
	var all [][]KV
	for sp := Space(0); sp < numSpaces; sp++ {
		kvs, err := s.List(sp)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, kvs)
	}
	return all
}

// TestMoveApplies: after a move the record is under its key in the target
// space only, with the bytes it held, replacing what the target held; a move
// of an absent key changes nothing. Mem and Disk agree, and a Disk reopened
// from its log lists the same spaces.
func TestMoveApplies(t *testing.T) {
	mem := NewMem()
	moveWorkload(t, mem)
	want := listAll(t, mem)
	if got := want[History]; len(got) != 3 || got[1].Key != "task/p1/-/S0" || string(got[2].Value) != "bbbbbbbbbbb" {
		t.Fatalf("history after the moves = %v", got)
	}
	if got := want[Instance]; len(got) != 1 || got[0].Key != "task/p1/-/S2" {
		t.Fatalf("instance after the moves = %v", got)
	}

	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	moveWorkload(t, d)
	if got := listAll(t, d); !reflect.DeepEqual(got, want) {
		t.Fatalf("disk lists %v, mem %v", got, want)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := listAll(t, re); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened disk lists %v, before close %v", got, want)
	}
}

// TestMoveOfAbsentKeyIsNoop: on both backends a batch that only moves keys
// the source does not hold — one the target holds, one nobody holds —
// leaves the spaces as they were.
func TestMoveOfAbsentKeyIsNoop(t *testing.T) {
	digests := map[string]string{}
	for name, mk := range backends(t) {
		s := mk()
		if err := s.Put(History, "k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		before := listAll(t, s)
		if err := s.Batch([]Op{MoveOp(Instance, History, "k"), MoveOp(Instance, History, "nobody")}); err != nil {
			t.Fatal(err)
		}
		if got := listAll(t, s); !reflect.DeepEqual(got, before) {
			t.Fatalf("%s: a move of an absent key changed the spaces to %v", name, got)
		}
		digest, err := s.(interface{ Digest() (string, error) }).Digest()
		if err != nil {
			t.Fatal(err)
		}
		digests[name] = digest
		s.Close()
	}
	if digests["mem"] != digests["disk"] {
		t.Fatalf("mem digest %s, disk %s", digests["mem"], digests["disk"])
	}
}

// TestFollowerAppliesMoves: a standby that follows a primary which moves
// records ends with the primary's digest.
func TestFollowerAppliesMoves(t *testing.T) {
	p, err := OpenDisk(t.TempDir(), DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	shipper, err := p.StartShipping("127.0.0.1:0", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := OpenStandby(t.TempDir(), DiskOptions{})
	if err != nil {
		shipper.Close()
		t.Fatal(err)
	}
	followed := make(chan error, 1)
	go func() { followed <- sb.Follow(shipper.Addr()) }()
	defer func() {
		sb.Close()
		shipper.Close()
		select {
		case <-followed: // Follow logs through t: it must be gone before the test is
		case <-time.After(10 * time.Second):
			t.Error("the standby did not stop following")
		}
	}()

	moveWorkload(t, p)
	want, err := p.Digest()
	if err != nil {
		t.Fatal(err)
	}
	waitDigest(t, sb.Store(), want)
	if got := listAll(t, sb.Store()); !reflect.DeepEqual(got, listAll(t, p)) {
		t.Fatalf("standby lists %v", got)
	}
}

// FuzzDecodeOp: the WAL op decoder, which replay and a standby feed raw log
// frames, never panics, and an op it accepts round-trips: encoded again it
// decodes to the same op, whose encoding is the same bytes. (The decoder
// takes a varint in any length, and a delete's ignored value, so the bytes
// it accepted may be a longer spelling of the ones it writes.)
func FuzzDecodeOp(f *testing.F) {
	var e codec.Encoder
	for _, op := range []Op{
		{Space: Instance, Key: "task/p1/-/S1", Value: []byte{codec.Magic, codec.Version, 3, 1}},
		{Space: Instance, Key: "task/p1/-/S1", Delete: true},
		EventOp([]byte("event")),
		MoveOp(Instance, History, "task/p1/-/S1"),
	} {
		encodeOp(&e, op)
	}
	for i := range e.Records() {
		f.Add(bytes.Clone(e.Span(i)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var d codec.Decoder
		op, err := decodeOp(&d, data)
		if err != nil {
			return
		}
		if op.Delete {
			op.Value = nil // a delete's value is ignored, and not written
		}
		var e codec.Encoder
		encodeOp(&e, op)
		again := bytes.Clone(e.Span(0))
		op2, err := decodeOp(&d, again)
		if err != nil {
			t.Fatalf("the re-encoded op %x does not decode: %v", again, err)
		}
		if !reflect.DeepEqual(op2, op) {
			t.Fatalf("round trip changed the op: %+v, then %+v", op, op2)
		}
		e.Reset()
		encodeOp(&e, op2)
		if third := e.Span(0); !bytes.Equal(third, again) {
			t.Fatalf("round trip changed the bytes:\n %x\n %x", again, third)
		}
	})
}
