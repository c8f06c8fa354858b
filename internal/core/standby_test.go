package core

import (
	"testing"
	"time"

	"bioopera/internal/ocr"
	"bioopera/internal/store"
)

// waitReplicaConverged polls until the standby's logical digest equals the
// primary's and the primary has stopped moving (two consecutive matching
// reads), returning the converged digest.
func waitReplicaConverged(t *testing.T, primary, standby *store.Disk) string {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	stable := 0
	var last string
	for time.Now().Before(deadline) {
		pd, err := primary.Digest()
		if err != nil {
			t.Fatal(err)
		}
		sd, err := standby.Digest()
		if err != nil {
			t.Fatal(err)
		}
		if pd == sd && pd == last {
			stable++
			if stable >= 2 {
				return pd
			}
		} else {
			stable = 0
		}
		last = pd
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("standby never converged with the primary")
	return ""
}

// TestStandbyPromotionEndToEnd is the full §6 failover story on real
// runtimes and real disks: a primary LocalRuntime ships its WAL to a hot
// standby while a process runs; the primary dies mid-run; the standby is
// promoted with a byte-identical store (Digest match) and a fresh runtime
// recovers the in-flight instance and drives it to the correct result.
func TestStandbyPromotionEndToEnd(t *testing.T) {
	disk, err := store.OpenDisk(t.TempDir(), store.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	shipper, err := disk.StartShipping("127.0.0.1:0", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer shipper.Close()

	// A slowed-down double so the suspension below catches the run with
	// work still outstanding.
	lib := NewLibrary()
	if err := lib.RegisterFunc("test.double", func(_ ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
		time.Sleep(30 * time.Millisecond)
		return map[string]ocr.Value{"out": ocr.Num(2 * args["x"].AsNum())}, nil
	}); err != nil {
		t.Fatal(err)
	}
	taskDone := make(chan struct{}, 64)
	rt, err := NewLocalRuntime(LocalConfig{
		Workers: 2,
		Store:   disk,
		Library: lib,
		OnEvent: func(ev Event) {
			if ev.Kind == EvTaskEnded {
				select {
				case taskDone <- struct{}{}:
				default:
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterTemplateSource(parallelSrc); err != nil {
		t.Fatal(err)
	}
	id, err := rt.StartProcess("Par", map[string]ocr.Value{"xs": sixXs()}, StartOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Let at least one activity commit, then freeze the instance with work
	// remaining — the state a failover must carry over.
	select {
	case <-taskDone:
	case <-time.After(10 * time.Second):
		t.Fatal("no task finished on the primary")
	}
	if err := rt.Engine().Suspend(id, false); err != nil {
		t.Fatal(err)
	}
	rt.Engine().QuiesceCheckpoints()

	// Hot standby joins mid-history and catches up.
	sdir := t.TempDir()
	sb, err := store.OpenStandby(sdir, store.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	followErr := make(chan error, 1)
	go func() { followErr <- sb.Follow(shipper.Addr()) }()
	want := waitReplicaConverged(t, disk, sb.Store())

	// The primary dies: runtime, shipper, and store all go away.
	rt.Close()
	if err := shipper.Close(); err != nil {
		t.Fatal(err)
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-followErr:
		if err == nil {
			t.Fatal("follower saw a clean close; want the primary-death cue")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower did not notice the primary dying")
	}

	promoted, err := sb.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Close()
	got, err := promoted.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("promoted store digest %s, want %s (not byte-identical)", got, want)
	}

	// New life on the promoted store: recover, resume, finish.
	rt2, err := NewLocalRuntime(LocalConfig{Workers: 2, Store: promoted, Library: testLibrary(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	if n, err := rt2.Engine().Recover(); err != nil || n != 1 {
		t.Fatalf("recover on promoted store = %d, %v", n, err)
	}
	if err := rt2.Engine().Resume(id); err != nil {
		t.Fatal(err)
	}
	in, err := rt2.Wait(id, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if in.Status != InstanceDone {
		t.Fatalf("instance %s (%s)", in.Status, in.FailureReason)
	}
	for i := 0; i < 6; i++ {
		if got := in.Outputs["doubled"].At(i).AsNum(); got != float64(2*(i+1)) {
			t.Fatalf("doubled[%d] = %v after failover", i, got)
		}
	}
}
