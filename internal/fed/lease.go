package fed

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"bioopera/internal/codec"
	"bioopera/internal/store"
)

// Lease errors.
var (
	// ErrStaleIncarnation rejects a claim whose incarnation is older than
	// the recorded one — a partitioned ex-owner writing after its
	// successor claimed.
	ErrStaleIncarnation = errors.New("fed: stale incarnation")
	// ErrNoPartition is returned by a member asked to start an instance
	// while it owns no partition yet.
	ErrNoPartition = errors.New("fed: member owns no partition")
)

// ConflictError reports a failed compare-and-swap: the stored lease moved
// since the claimant observed it. Current is the lease that won.
type ConflictError struct{ Current Lease }

func (e *ConflictError) Error() string {
	return fmt.Sprintf("fed: lease conflict: partition %d now owned by %q (incarnation %d)",
		e.Current.Partition, e.Current.Owner, e.Current.Incarnation)
}

// Lease is one partition's ownership record, persisted in the store's
// configuration space so ownership survives restarts. A zero Owner means
// unclaimed.
type Lease struct {
	Partition   int
	Owner       string
	Incarnation uint64
}

// appendLease appends l's record: a codec record of kind codec.RecordLease
// holding s owner, u incarnation. The partition is the record's key.
func appendLease(buf []byte, l Lease) []byte {
	buf = codec.AppendString(codec.AppendHeader(buf, codec.RecordLease), l.Owner)
	return binary.AppendUvarint(buf, l.Incarnation)
}

// decodeLease reads a lease record; the codec refuses a JSON lease from
// before the codec records by name.
func decodeLease(data []byte, partition int) (Lease, error) {
	var d codec.Decoder
	if err := d.Open(data, codec.RecordLease); err != nil {
		return Lease{}, err
	}
	l := Lease{Partition: partition, Owner: d.String(), Incarnation: d.Uvarint()}
	return l, d.Finish()
}

// LeaseTable is the persisted partition-ownership table plus the monotonic
// epoch counter incarnations come from. Claims are compare-and-swap under
// a mutex shared by every table over the same store, so concurrent
// claimants in one process — including in-a-box federations where several
// members share one store.Store — resolve to exactly one winner. Across
// processes the store itself must serialize; shared-nothing members each
// fence only their own store (a replicated or DBMS-backed store is the
// production path for cross-process claims).
type LeaseTable struct {
	mu         *sync.Mutex
	st         store.Store
	partitions int
}

// leaseLocks maps a store identity to the mutex all its lease tables
// share. Entries are never removed: one per distinct store handle in the
// process, which is bounded by the deployment's member count.
var leaseLocks sync.Map // store.Store → *sync.Mutex

func leaseLockFor(st store.Store) *sync.Mutex {
	if v, ok := leaseLocks.Load(st); ok {
		return v.(*sync.Mutex)
	}
	v, _ := leaseLocks.LoadOrStore(st, &sync.Mutex{})
	return v.(*sync.Mutex)
}

// NewLeaseTable opens the table over a store. All members of a federation
// must agree on the partition count.
func NewLeaseTable(st store.Store, partitions int) *LeaseTable {
	if partitions <= 0 {
		partitions = DefaultPartitions
	}
	return &LeaseTable{mu: leaseLockFor(st), st: st, partitions: partitions}
}

// Partitions reports the table's partition count.
func (t *LeaseTable) Partitions() int { return t.partitions }

func leaseKey(partition int) string { return fmt.Sprintf("fed/lease/%03d", partition) }

const epochKey = "fed/epoch"

// NextIncarnation atomically bumps the epoch counter and returns the new
// value. Every member boot and every lease claim takes a fresh epoch, so
// incarnations are strictly increasing across the federation's lifetime.
func (t *LeaseTable) NextIncarnation() (uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n uint64
	raw, ok, err := t.st.Get(store.Configuration, epochKey)
	if err != nil {
		return 0, fmt.Errorf("fed: read epoch: %w", err)
	}
	if ok {
		n, _ = strconv.ParseUint(string(raw), 10, 64)
	}
	n++
	if err := t.st.Put(store.Configuration, epochKey, []byte(strconv.FormatUint(n, 10))); err != nil {
		return 0, fmt.Errorf("fed: bump epoch: %w", err)
	}
	return n, nil
}

// getLocked reads one lease; an absent record is the unclaimed lease.
func (t *LeaseTable) getLocked(partition int) (Lease, error) {
	raw, ok, err := t.st.Get(store.Configuration, leaseKey(partition))
	if err != nil {
		return Lease{}, fmt.Errorf("fed: read lease for partition %d: %w", partition, err)
	}
	if !ok {
		return Lease{Partition: partition}, nil
	}
	l, err := decodeLease(raw, partition)
	if err != nil {
		return Lease{}, fmt.Errorf("fed: lease record for partition %d: %w", partition, err)
	}
	return l, nil
}

// Get reads one partition's current lease.
func (t *LeaseTable) Get(partition int) (Lease, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.getLocked(partition)
}

// All reads every partition's lease, indexed by partition.
func (t *LeaseTable) All() ([]Lease, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Lease, t.partitions)
	for p := 0; p < t.partitions; p++ {
		l, err := t.getLocked(p)
		if err != nil {
			return nil, err
		}
		out[p] = l
	}
	return out, nil
}

// Claim installs next as the partition's lease if and only if the stored
// lease still equals prev (compare-and-swap) and next's incarnation is not
// older than the stored one. On a lost race it returns *ConflictError
// carrying the winning lease; a rejected stale write returns
// ErrStaleIncarnation. Claimants take prev from a prior Get/All — the
// unclaimed zero lease for a fresh partition.
func (t *LeaseTable) Claim(prev, next Lease) error {
	if prev.Partition != next.Partition {
		return fmt.Errorf("fed: claim partition mismatch: prev %d, next %d", prev.Partition, next.Partition)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cur, err := t.getLocked(next.Partition)
	if err != nil {
		return err
	}
	// CAS first: a racing claimant that lost should learn who won
	// (ConflictError carries the lease); the incarnation fence then
	// rejects a stale writer even when it read the current lease.
	if cur != prev {
		return &ConflictError{Current: cur}
	}
	if next.Incarnation < cur.Incarnation {
		return fmt.Errorf("%w: partition %d holds incarnation %d, claim carries %d",
			ErrStaleIncarnation, next.Partition, cur.Incarnation, next.Incarnation)
	}
	if err := t.st.Put(store.Configuration, leaseKey(next.Partition), appendLease(nil, next)); err != nil {
		return fmt.Errorf("fed: persist lease for partition %d: %w", next.Partition, err)
	}
	return nil
}
