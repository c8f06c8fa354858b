package fed

import (
	"errors"
	"sync"
	"testing"

	"bioopera/internal/store"
)

// lease reads one partition's lease the way a member does, through All.
func lease(tbl *LeaseTable, partition int) (Lease, error) {
	all, err := tbl.All()
	if err != nil {
		return Lease{}, err
	}
	return all[partition], nil
}

func TestLeaseClaimAndReload(t *testing.T) {
	st := store.NewMem()
	tbl := NewLeaseTable(st, 8)
	inc, err := tbl.NextIncarnation()
	if err != nil {
		t.Fatal(err)
	}
	unclaimed, err := lease(tbl, 3)
	if err != nil {
		t.Fatal(err)
	}
	if unclaimed.Owner != "" {
		t.Fatalf("fresh lease = %+v", unclaimed)
	}
	want := Lease{Partition: 3, Owner: "alpha", Incarnation: inc}
	if err := tbl.Claim(unclaimed, want); err != nil {
		t.Fatal(err)
	}
	// A second table over the same store — a restarted member — sees the
	// persisted lease.
	got, err := lease(NewLeaseTable(st, 8), 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("reloaded lease = %+v, want %+v", got, want)
	}
}

func TestLeaseStaleIncarnationRejected(t *testing.T) {
	st := store.NewMem()
	tbl := NewLeaseTable(st, 8)
	old, _ := tbl.NextIncarnation()
	fresh, _ := tbl.NextIncarnation()
	base, _ := lease(tbl, 1)
	cur := Lease{Partition: 1, Owner: "beta", Incarnation: fresh}
	if err := tbl.Claim(base, cur); err != nil {
		t.Fatal(err)
	}
	// A partitioned ex-owner writing with an older incarnation must be
	// fenced even when it guessed the stored lease correctly.
	err := tbl.Claim(cur, Lease{Partition: 1, Owner: "alpha", Incarnation: old})
	if !errors.Is(err, ErrStaleIncarnation) {
		t.Fatalf("stale claim error = %v, want ErrStaleIncarnation", err)
	}
	got, _ := lease(tbl, 1)
	if got != cur {
		t.Fatalf("lease after rejected stale claim = %+v, want %+v", got, cur)
	}
}

func TestLeaseDoubleClaimDeterministic(t *testing.T) {
	// Two members racing for the same orphaned partition: exactly one
	// claim lands, the loser's ConflictError names the winner.
	for round := 0; round < 50; round++ {
		st := store.NewMem()
		alpha := NewLeaseTable(st, 8)
		beta := NewLeaseTable(st, 8)
		base, _ := lease(alpha, 4)

		incA, _ := alpha.NextIncarnation()
		incB, _ := beta.NextIncarnation()
		errs := make([]error, 2)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			errs[0] = alpha.Claim(base, Lease{Partition: 4, Owner: "alpha", Incarnation: incA})
		}()
		go func() {
			defer wg.Done()
			errs[1] = beta.Claim(base, Lease{Partition: 4, Owner: "beta", Incarnation: incB})
		}()
		wg.Wait()

		var winners, losers int
		final, _ := lease(alpha, 4)
		for i, err := range errs {
			if err == nil {
				winners++
				continue
			}
			losers++
			var conflict *ConflictError
			if !errors.As(err, &conflict) {
				t.Fatalf("round %d: loser %d got %v, want ConflictError", round, i, err)
			}
			if conflict.Current != final {
				t.Fatalf("round %d: ConflictError names %+v, stored lease is %+v",
					round, conflict.Current, final)
			}
		}
		if winners != 1 || losers != 1 {
			t.Fatalf("round %d: %d winners, %d losers (errs=%v)", round, winners, losers, errs)
		}
		if final.Owner != "alpha" && final.Owner != "beta" {
			t.Fatalf("round %d: final lease %+v", round, final)
		}
	}
}

func TestLeasePartitionMismatchRejected(t *testing.T) {
	tbl := NewLeaseTable(store.NewMem(), 8)
	err := tbl.Claim(Lease{Partition: 1}, Lease{Partition: 2, Owner: "alpha"})
	if err == nil {
		t.Fatal("cross-partition claim accepted")
	}
}
