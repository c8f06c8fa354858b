package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"bioopera/internal/ocr"
	"bioopera/internal/store"
)

// mixSrc runs a parallel block beside a sibling activity whose MAP lands on
// the root whiteboard while block children are live, so their dynamic
// records carry a Drop mask as well as owned entries.
const mixSrc = `
PROCESS Mix {
  INPUT xs;
  OUTPUT doubled, side;
  ACTIVITY S {
    CALL test.constant();
    OUT out;
    MAP out -> side;
  }
  BLOCK Fan PARALLEL OVER xs AS x {
    MAP results -> doubled;
    OUTPUT y;
    ACTIVITY D {
      CALL test.double(x = x);
      OUT out;
      MAP out -> y;
    }
  }
}
`

// altSrc: Main declares an output field its alternative never produces, so
// completing Main on Backup's behalf adds a null entry to the output map
// the two tasks share.
const altSrc = `
PROCESS WithAlt {
  OUTPUT r;
  ACTIVITY Main {
    CALL test.fail();
    OUT out, extra;
    MAP out -> r;
    ON FAILURE ALTERNATIVE Backup;
  }
  ACTIVITY Backup {
    CALL test.constant();
    OUT out;
  }
  ACTIVITY After {
    CALL test.echo(x = r);
    OUT out;
    MAP out -> r;
  }
  Main -> After;
}
`

// storeDumpGolden is the digest of every record op the engine hands the
// store during the workload of TestStoreBytesGolden, in order, followed by the
// final Instance and History spaces. Batch boundaries and journal ops are left
// out — how a turn's writes are grouped into commits is not part of the
// on-disk format — so the constant holds across changes of the commit path.
// A change that moves it changes either the record layout or which valid
// record the engine writes. A layout change needs a codec.Version bump, not
// a new constant. A change of which record is written needs the old-vs-new
// dump diff, naming every changed line, in its change notes. Re-pinned when
// the archive began writing a block body's own delta record instead of its
// whole inherited whiteboard: only history puts of block-body scoped/ records
// and their History-listing lines moved. Re-pinned when a turn began
// dispatching the jobs it readied: the dispatch turns' inst/ puts are gone
// (a turn writes its inst/ record once), Mix's first three Fan[i]/D records
// are written once, running, where the ready ones were followed by running
// ones, and the sphere abort's carried deletes precede its checkpoint's puts.
// The final Instance and History listings did not move. Re-pinned when
// process texts became version records of the template space: every
// instance- and history-space proc/<inst>/<hash> put, delete and listing line
// is gone, and each registration's batch — its name record and one
// proc/<hash> record per distinct text — comes first; no other line moved.
// Re-pinned when the archive began moving the records the instance space
// holds unchanged (store.MoveOp, printed "move <from> <to> <key>"): in the
// four archive batches 47 "put history" lines became move lines in place and
// the 47 "delete instance" lines of the same keys are gone; the archive still
// puts and deletes the inst/ records, the root scoped/ records the final turn
// rewrote, and WithAlt's Backup, whose outputs grew after its record was cut.
// No other line moved, and every Instance and History listing line is the
// same.
const storeDumpGolden = "d7d03670e8827eb9e02585199d48d037922ecd58be614c483eeb89a43b75e571"

// journalGolden is the digest of every journal record of the same workload,
// in sequence order: the events' bytes and their order are what `history
// -events`, the monitor and the lifecycle figures read. Re-pinned when an
// event became a codec record (recEvent); every engine record of it decodes
// to an Event that json.Marshals to the JSON record the journal held before,
// byte for byte. Re-pinned when a dispatch began committing before its
// launch: each task-dispatched record now precedes its cluster-job-start
// (the four of Mix's start come first, then their four job starts); no
// record changed.
const journalGolden = "1d1cabaaeaf52857f161b419f2aa1d576215c4d0d9e0fba553ecb34edd900b4a"

// goldenWorkload runs TestStoreBytesGolden's workload to its end over a
// logged memory store: Mix, an Outer subprocess, a Sphere that aborts once
// and then succeeds and WithAlt finish; Approval stops at its AWAIT, so the
// Instance space is not empty. It returns the finished instances' IDs.
func goldenWorkload(t *testing.T) (*SimRuntime, *batchLog, []string) {
	t.Helper()
	bl := &batchLog{Store: store.NewMem()}
	rt, done := goldenWorkloadOn(t, bl)
	return rt, bl, done
}

// goldenWorkloadOn runs goldenWorkload's workload over st.
func goldenWorkloadOn(t *testing.T, st store.Store) (*SimRuntime, []string) {
	t.Helper()
	sl := newSphereLibrary(t, 1) // one sphere abort, then success
	addTestPrograms(t, sl.Library)
	rt := newRuntime(t, SimConfig{Library: sl.Library, Store: st})
	for _, src := range []string{mixSrc, subprocSrc, sphereSrc, altSrc, approvalSrc} {
		register(t, rt, src)
	}
	done := []string{
		start(t, rt, "Mix", map[string]ocr.Value{"xs": fanInput(10)}),
		start(t, rt, "Outer", map[string]ocr.Value{"v": ocr.Num(5)}),
		start(t, rt, "Sphere", nil),
		start(t, rt, "WithAlt", nil),
	}
	waiting := start(t, rt, "Approval", map[string]ocr.Value{"x": ocr.Num(21)})
	rt.Run()
	for _, id := range done {
		finished(t, rt, id)
	}
	if aw := rt.Engine.Awaiting(waiting); len(aw) != 1 {
		t.Fatalf("awaiting = %v", aw)
	}
	return rt, done
}

func TestStoreBytesGolden(t *testing.T) {
	_, bl, _ := goldenWorkload(t)

	var dump strings.Builder
	for _, ops := range bl.batches {
		for _, op := range ops {
			from, move := op.MovedFrom()
			switch {
			case op.IsEvent(): // digested below, in journal order
			case move:
				fmt.Fprintf(&dump, "move %s %s %s\n", from, op.Space, op.Key)
			case op.Delete:
				fmt.Fprintf(&dump, "delete %s %s\n", op.Space, op.Key)
			default:
				fmt.Fprintf(&dump, "put %s %s %x\n", op.Space, op.Key, sha256.Sum256(op.Value))
			}
		}
	}
	for _, space := range []store.Space{store.Instance, store.History} {
		kvs, err := bl.List(space) // sorted by key
		if err != nil {
			t.Fatal(err)
		}
		if len(kvs) == 0 {
			t.Fatalf("%s space is empty; the golden is vacuous", space)
		}
		for _, kv := range kvs {
			fmt.Fprintf(&dump, "%s %s %x\n", space, kv.Key, sha256.Sum256(kv.Value))
		}
	}
	sum := sha256.Sum256([]byte(dump.String()))
	if got := hex.EncodeToString(sum[:]); got != storeDumpGolden {
		t.Fatalf("store dump digest = %s, want %s\n%s", got, storeDumpGolden, dump.String())
	}

	var journal strings.Builder
	if err := bl.Events(1, func(ev store.Event) error {
		fmt.Fprintf(&journal, "%d %x\n", ev.Seq, ev.Data)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sum = sha256.Sum256([]byte(journal.String()))
	if got := hex.EncodeToString(sum[:]); got != journalGolden {
		t.Fatalf("journal digest = %s, want %s\n%s", got, journalGolden, journal.String())
	}
}

// batchLog keeps a copy of every batch as the store received it.
type batchLog struct {
	store.Store
	mu      sync.Mutex
	batches [][]store.Op
}

func (l *batchLog) Batch(ops []store.Op) error {
	cp := make([]store.Op, len(ops))
	for i, op := range ops {
		op.Value = append([]byte(nil), op.Value...)
		cp[i] = op
	}
	l.mu.Lock()
	l.batches = append(l.batches, cp)
	l.mu.Unlock()
	return l.Store.Batch(ops)
}

// TestCheckpointHoldsValueAtPersistTime: a checkpoint is the state at the
// moment persist cut it, not at the moment its batch commits. Backup's
// completion is checkpointed, then the same output map is handed to Main and
// gains Main's undeclared-by-Backup field before the turn ends and any batch
// is committed; Backup's committed record must not show that field.
func TestCheckpointHoldsValueAtPersistTime(t *testing.T) {
	bl := &batchLog{Store: store.NewMem()}
	rt := newRuntime(t, SimConfig{Store: bl})
	register(t, rt, altSrc)
	id := start(t, rt, "WithAlt", nil)
	rt.Run()
	in := finished(t, rt, id)
	if _, ok := in.scopes[""].task("Main").Outputs["extra"]; !ok {
		t.Fatal("Main never gained the extra field; the test is vacuous")
	}

	key := taskKey(id, "", "Backup")
	for _, ops := range bl.batches {
		for _, op := range ops {
			if op.Space != store.Instance || op.Key != key || op.Delete {
				continue
			}
			var ts taskState
			if err := decodeTaskRecord(op.Value, &ts); err != nil {
				t.Fatal(err)
			}
			if ts.Status != TaskEnded {
				continue
			}
			if len(ts.Outputs) != 1 || ts.Outputs["out"].AsStr() != "const" {
				t.Fatalf("Backup's first ended record has outputs %v, want only out=const", ts.Outputs)
			}
			return
		}
	}
	t.Fatal("no ended Backup record was committed to the instance space")
}

// TestStoreKeysBuiltOnce: every key TestStoreBytesGolden's workload sends the
// store is one string for the life of the state it names — the same bytes at
// the same address in every checkpoint that rewrites the record, and in the
// archive's move, or its history put and delete — so a record costs one key
// allocation, not one per write. A key may be built anew only for the state
// that replaces a deleted record: a sphere's retry re-creates the scopes its
// abort deleted.
func TestStoreKeysBuiltOnce(t *testing.T) {
	_, bl, done := goldenWorkload(t)
	addr := make(map[string]*byte)
	deleted := make(map[string]bool)
	writes := make(map[string]int)
	for _, ops := range bl.batches {
		for _, op := range ops {
			if op.IsEvent() {
				continue
			}
			p := unsafe.StringData(op.Key)
			if first, seen := addr[op.Key]; seen && first != p && !deleted[op.Key] {
				t.Errorf("key %s was built again", op.Key)
			}
			addr[op.Key] = p
			deleted[op.Key] = op.Delete
			writes[op.Key]++
		}
	}
	// Meta rides every turn, then is archived and deleted; a root's dynamic
	// record is created, rewritten, then archived and deleted; Mix's S is
	// written running and ended, then moved. A root's create record is
	// written once and moved: two ops, the same string in both.
	keys := map[string]int{taskKey(done[0], "", "S"): 3}
	for _, id := range done {
		keys[metaKey(id)], keys[scopeDynKey(id, "")], keys[scopeCreateKey(id, "")] = 3, 3, 2
	}
	for key, want := range keys {
		if writes[key] < want {
			t.Errorf("key %s appears in %d ops; the test needs it in %d to mean anything", key, writes[key], want)
		}
	}
}
