package main

import (
	"testing"

	"bioopera/internal/store"
)

// TestCountingStoreForwardsAndCounts checks the decorator's two duties: every
// call reaches the inner store with its result intact, and the byte and op
// sums are exact.
func TestCountingStoreForwardsAndCounts(t *testing.T) {
	inner := store.NewMem()
	cs := &countingStore{inner: inner}

	if err := cs.Put(store.Configuration, "node/n1", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	ops := []store.Op{
		{Space: store.Instance, Key: "inst/p0001", Value: []byte("0123456789")},
		{Space: store.Instance, Key: "task/p0001/-/S1", Value: []byte("xy")},
		{Space: store.Instance, Key: "scope/p0001/-", Value: []byte("ignored"), Delete: true},
	}
	if err := cs.Batch(ops); err != nil {
		t.Fatal(err)
	}
	seq, err := cs.AppendEvent([]byte(`{"kind":"task-ready","instance":"p0001"}`))
	if err != nil || seq == 0 {
		t.Fatalf("AppendEvent = %d, %v", seq, err)
	}

	got := cs.counts()
	want := storeCounts{
		bytes:   int64(len("node/n1")+3) + int64(len("inst/p0001")+10+len("task/p0001/-/S1")+2+len("scope/p0001/-")) + 40,
		batches: 1, ops: 3, records: 2, recBytes: 12, events: 1,
	}
	if got != want {
		t.Errorf("counts = %+v, want %+v", got, want)
	}
	if d := cs.counts().sub(got); d != (storeCounts{}) {
		t.Errorf("difference of equal snapshots = %+v", d)
	}

	// Reads go to the inner store and come back unchanged.
	v, ok, err := cs.Get(store.Instance, "inst/p0001")
	if err != nil || !ok || string(v) != "0123456789" {
		t.Errorf("Get = %q, %v, %v", v, ok, err)
	}
	kvs, err := cs.List(store.Instance)
	if err != nil || len(kvs) != 2 || kvs[0].Key != "inst/p0001" || kvs[1].Key != "task/p0001/-/S1" {
		t.Errorf("List = %v, %v", kvs, err)
	}
	var events int
	err = cs.Events(0, func(e store.Event) error {
		events++
		if e.Seq != seq {
			t.Errorf("event seq = %d, want %d", e.Seq, seq)
		}
		return nil
	})
	if err != nil || events != 1 {
		t.Errorf("Events visited %d, %v", events, err)
	}
	if err := cs.Delete(store.Instance, "inst/p0001"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := inner.Get(store.Instance, "inst/p0001"); ok {
		t.Error("Delete did not reach the inner store")
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := inner.Get(store.Instance, "x"); err == nil {
		t.Error("Close did not reach the inner store")
	}
}

// TestCountingStoreTraced checks that a recorder gets one span per mutation,
// tagged with the instance the op belongs to.
func TestCountingStoreTraced(t *testing.T) {
	rec := newRecorder()
	cs := &countingStore{inner: store.NewMem(), rec: rec}
	defer cs.Close()
	if err := cs.Batch([]store.Op{{Space: store.Instance, Key: "task/p0007/-/S1", Value: []byte("v")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.AppendEvent([]byte(`{"kind":"task-ended","instance":"p0007","task":"S1"}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.List(store.Instance); err != nil {
		t.Fatal(err)
	}
	want := []struct{ name, trace string }{
		{"store.batch", "p0007"}, {"store.append_event", "p0007"}, {"store.list", ""},
	}
	if len(rec.spans) != len(want) {
		t.Fatalf("%d spans, want %d", len(rec.spans), len(want))
	}
	for i, w := range want {
		if s := rec.spans[i]; s.Name != w.name || s.Trace != w.trace || s.End < s.Start {
			t.Errorf("span %d = %+v, want %s/%s", i, s, w.name, w.trace)
		}
	}
}

func TestInstanceOfKey(t *testing.T) {
	for key, want := range map[string]string{
		"inst/p0001":           "p0001",
		"task/p0001/-/S1":      "p0001",
		"scoped/f3-a.1-9/F[2]": "f3-a.1-9",
		"nokey":                "",
	} {
		if got := instanceOfKey(key); got != want {
			t.Errorf("instanceOfKey(%q) = %q, want %q", key, got, want)
		}
	}
}
