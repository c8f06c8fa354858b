package main

import (
	"bytes"
	"strings"
	"sync/atomic"
	"time"

	"bioopera/internal/store"
)

// countingStore is the decorator every workload puts between the engine and
// its store. It forwards every call unchanged and sums what crosses the
// boundary: key+value bytes of every mutation (store_bytes_per_activity),
// batches, ops, and checkpoint records with their value bytes (the codec.*
// and store.* ratios). With a recorder attached (traced runs only) it also
// times each mutation and records it as a span; untraced it reads no clock.
type countingStore struct {
	inner store.Store
	rec   *recorder

	bytes    atomic.Int64 // key+value bytes passed to Put/Batch/AppendEvent
	batches  atomic.Int64
	ops      atomic.Int64 // ops inside batches, deletes included
	records  atomic.Int64 // non-delete batch ops: one encoded record each
	recBytes atomic.Int64 // value bytes of those records
	events   atomic.Int64 // AppendEvent calls
}

// storeCounts is a snapshot of the decorator's sums; phases are measured as
// the difference of two snapshots.
type storeCounts struct {
	bytes, batches, ops, records, recBytes, events int64
}

func (c *countingStore) counts() storeCounts {
	return storeCounts{
		bytes: c.bytes.Load(), batches: c.batches.Load(), ops: c.ops.Load(),
		records: c.records.Load(), recBytes: c.recBytes.Load(), events: c.events.Load(),
	}
}

func (a storeCounts) sub(b storeCounts) storeCounts {
	return storeCounts{
		bytes: a.bytes - b.bytes, batches: a.batches - b.batches, ops: a.ops - b.ops,
		records: a.records - b.records, recBytes: a.recBytes - b.recBytes, events: a.events - b.events,
	}
}

// instanceOfKey extracts the instance ID from an engine store key
// ("task/p0001/-/S1", "inst/p0001"): the second path segment.
func instanceOfKey(key string) string {
	i := strings.IndexByte(key, '/')
	if i < 0 {
		return ""
	}
	rest := key[i+1:]
	if j := strings.IndexByte(rest, '/'); j >= 0 {
		return rest[:j]
	}
	return rest
}

var instanceField = []byte(`"instance":"`)

// instanceOfEvent extracts the instance ID from a journal record (the
// engine's JSON-encoded core.Event) without decoding it.
func instanceOfEvent(data []byte) string {
	i := bytes.Index(data, instanceField)
	if i < 0 {
		return ""
	}
	rest := data[i+len(instanceField):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}

func (c *countingStore) Put(space store.Space, key string, value []byte) error {
	c.bytes.Add(int64(len(key) + len(value)))
	if c.rec == nil {
		return c.inner.Put(space, key, value)
	}
	t0 := time.Now()
	err := c.inner.Put(space, key, value)
	c.rec.span("store.put", instanceOfKey(key), t0, time.Now())
	return err
}

func (c *countingStore) Batch(ops []store.Op) error {
	var n, recs, recBytes int64
	for i := range ops {
		n += int64(len(ops[i].Key))
		if !ops[i].Delete {
			n += int64(len(ops[i].Value))
			recs++
			recBytes += int64(len(ops[i].Value))
		}
	}
	c.bytes.Add(n)
	c.batches.Add(1)
	c.ops.Add(int64(len(ops)))
	c.records.Add(recs)
	c.recBytes.Add(recBytes)
	if c.rec == nil || len(ops) == 0 {
		return c.inner.Batch(ops)
	}
	t0 := time.Now()
	err := c.inner.Batch(ops)
	c.rec.span("store.batch", instanceOfKey(ops[0].Key), t0, time.Now())
	return err
}

func (c *countingStore) AppendEvent(data []byte) (uint64, error) {
	c.bytes.Add(int64(len(data)))
	c.events.Add(1)
	if c.rec == nil {
		return c.inner.AppendEvent(data)
	}
	t0 := time.Now()
	seq, err := c.inner.AppendEvent(data)
	c.rec.span("store.append_event", instanceOfEvent(data), t0, time.Now())
	return seq, err
}

func (c *countingStore) Get(space store.Space, key string) ([]byte, bool, error) {
	return c.inner.Get(space, key)
}

func (c *countingStore) Delete(space store.Space, key string) error {
	c.bytes.Add(int64(len(key)))
	return c.inner.Delete(space, key)
}

func (c *countingStore) List(space store.Space) ([]store.KV, error) {
	if c.rec == nil {
		return c.inner.List(space)
	}
	t0 := time.Now()
	kvs, err := c.inner.List(space)
	c.rec.span("store.list", "", t0, time.Now())
	return kvs, err
}

func (c *countingStore) Events(from uint64, fn func(store.Event) error) error {
	return c.inner.Events(from, fn)
}

func (c *countingStore) Close() error { return c.inner.Close() }
