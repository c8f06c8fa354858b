package core

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bioopera/internal/cluster"
	"bioopera/internal/obs"
	"bioopera/internal/ocr"
	"bioopera/internal/sim"
	"bioopera/internal/store"
)

// These tests pin the read-through whiteboard: a block body owns only what it
// set or pinned and reads everything else through its parent, live, in
// recovery and in the history the archive writes.

// TestHistoryComplete: every archived scope's whiteboard can be rebuilt from
// the History space alone — a Full record is the whole whiteboard, any other
// is the scope's own entries and masks over its parent's, parents first as
// buildScopes does — and equals the scope's live final whiteboard. A block
// element's record carries only the keys the element owns.
func TestHistoryComplete(t *testing.T) {
	rt, bl, done := goldenWorkload(t)
	kvs, err := bl.List(store.History)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range done {
		var mine []store.KV
		for _, kv := range kvs {
			if instanceOfKey(kv.Key) == id {
				mine = append(mine, kv)
			}
		}
		recs, err := decodeInstanceRecords(mine)
		if err != nil {
			t.Fatal(err)
		}
		ordered := slices.SortedFunc(maps.Values(recs), func(a, b *scopeRec) int {
			return cmp.Or(cmp.Compare(len(a.scopeID), len(b.scopeID)), strings.Compare(a.scopeID, b.scopeID))
		})
		in := finished(t, rt, id)
		views := make(map[string]map[string]ocr.Value, len(ordered))
		for _, r := range ordered {
			live := in.scopes[r.scopeID]
			if live == nil || r.create == nil || r.dyn == nil {
				t.Fatalf("%s: archived scope %q has no live scope or no create/dyn record", id, r.scopeID)
			}
			view := maps.Clone(r.dyn.Entries)
			if !r.dyn.Full {
				view = maps.Clone(views[r.create.Parent])
				if view == nil {
					view = map[string]ocr.Value{}
				}
				for _, k := range r.dyn.Drop {
					delete(view, k)
				}
				maps.Copy(view, r.dyn.Entries)
				// The record is the element's own: its entries and masks
				// are exactly the keys the live scope owns.
				var owned, masked []string
				for _, o := range live.wbOwn {
					if o.present {
						owned = append(owned, o.key)
					} else {
						masked = append(masked, o.key)
					}
				}
				if got := slices.Sorted(maps.Keys(r.dyn.Entries)); !slices.Equal(got, owned) || !slices.Equal(r.dyn.Drop, masked) {
					t.Errorf("%s: archived scope %q carries entries %v and masks %v, owns %v and masks %v",
						id, r.scopeID, got, r.dyn.Drop, owned, masked)
				}
			}
			views[r.scopeID] = view
			if want := live.view(); !maps.EqualFunc(view, want, ocr.Value.Equal) {
				t.Errorf("%s: scope %q rebuilt from history = %v, live = %v", id, r.scopeID, view, want)
			}
		}
		if len(views) != len(in.scopes) {
			t.Errorf("%s: history holds %d scopes, the instance %d", id, len(views), len(in.scopes))
		}
	}
	// Mix's elements read xs through the root; their records do not repeat it.
	mix := done[0]
	for _, kv := range kvs {
		if !strings.HasPrefix(kv.Key, "scoped/"+mix+"/Fan[") {
			continue
		}
		dyn, err := decodeDynRecord(kv.Value)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := dyn.Entries["xs"]; ok || dyn.Full {
			t.Errorf("%s repeats the parent's whiteboard: %+v", kv.Key, dyn)
		}
	}
}

// instanceOfKey is a store key's instance: "task/p0001/-/S" → "p0001".
func instanceOfKey(key string) string {
	_, rest, _ := strings.Cut(key, "/")
	id, _, _ := strings.Cut(rest, "/")
	return id
}

// mixDetailGolden is the digest of the /api/instances/{id} body of a Mix
// instance caught mid-run by TestMonitorScopeViews. It was captured while a
// block element's whiteboard was a copy of its parent's; the read-through
// view must render the same values.
const mixDetailGolden = "c2f39f4595140d2d67e1920b934c6433cf1a4ca52b18ece038dfd845046ff275"

// TestMonitorScopeViews: the monitor lists each scope's whole whiteboard —
// inherited entries included, masked ones left out — as it did when every
// element held a copy. Mix is caught with S's side mapped onto the root, so
// live elements carry a mask for it, and some elements done.
func TestMonitorScopeViews(t *testing.T) {
	rt := newRuntime(t, SimConfig{})
	register(t, rt, mixSrc)
	id := start(t, rt, "Mix", map[string]ocr.Value{"xs": fanInput(10)})
	in, _ := rt.Engine.Instance(id)
	caught := func() bool {
		if in.root.task("S").Status != TaskEnded {
			return false
		}
		var done, masked int
		for i := 0; i < 10; i++ {
			el := in.scopes["Fan["+strconv.Itoa(i)+"]"]
			if el.Done {
				done++
			}
			if j, ok := el.owned("side"); ok && !el.wbOwn[j].present {
				masked++
			}
		}
		return done > 0 && done < 10 && masked > 0
	}
	for at := sim.Time(0); !caught(); at += sim.Time(100 * time.Millisecond) {
		if in.Status != InstanceRunning {
			t.Fatal("Mix finished before it could be caught mid-run")
		}
		rt.RunUntil(at)
	}
	srv := obs.NewServer(obs.ServerConfig{Source: NewMonitorSource(rt.Engine)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/api/instances/" + id)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(body); hex.EncodeToString(sum[:]) != mixDetailGolden {
		t.Fatalf("/api/instances/%s body digest = %x, want %s\n%s", id, sum, mixDetailGolden, body)
	}
}

// byteCountStore sums what the engine hands its store as the benchmark's
// counting store does: the key and value bytes of every op, of every space,
// deletes and journal appends included (n), and apart the value bytes of the
// instance-space puts (ckpt).
type byteCountStore struct {
	store.Store
	n, ckpt atomic.Int64
}

func (c *byteCountStore) Put(space store.Space, key string, value []byte) error {
	c.n.Add(int64(len(key) + len(value)))
	return c.Store.Put(space, key, value)
}

func (c *byteCountStore) Batch(ops []store.Op) error {
	for i := range ops {
		c.n.Add(int64(len(ops[i].Key)))
		if !ops[i].Delete {
			c.n.Add(int64(len(ops[i].Value)))
			if ops[i].Space == store.Instance && !ops[i].IsEvent() {
				c.ckpt.Add(int64(len(ops[i].Value)))
			}
		}
	}
	return c.Store.Batch(ops)
}

func (c *byteCountStore) AppendEvent(data []byte) (uint64, error) {
	c.n.Add(int64(len(data)))
	return c.Store.AppendEvent(data)
}

func (c *byteCountStore) Delete(space store.Space, key string) error {
	c.n.Add(int64(len(key)))
	return c.Store.Delete(space, key)
}

// TestStoreBytesFlatInWidth: what an activity of a parallel block costs the
// store, over every space — instance records, journal and the history the
// archive writes — does not grow with the block's width. An element that
// wrote its parent's whiteboard into history would cost O(width) bytes.
func TestStoreBytesFlatInWidth(t *testing.T) {
	perActivity := func(width int) float64 {
		cs := &byteCountStore{Store: store.NewMem()}
		rt := newRuntime(t, SimConfig{Library: benchLibrary(t), Store: cs})
		register(t, rt, benchFanSrc)
		id := start(t, rt, "Fan", map[string]ocr.Value{"xs": fanInput(width)})
		rt.Run()
		in := finished(t, rt, id)
		return float64(cs.n.Load()) / float64(in.Activities)
	}
	narrow, wide := perActivity(25), perActivity(400)
	t.Logf("store bytes per activity: %.0f at width 25, %.0f at width 400", narrow, wide)
	if wide > 1.25*narrow {
		t.Errorf("store bytes per activity grow with width: %.0f at 400 against %.0f at 25 (%.2f×, limit 1.25×)", wide, narrow, wide/narrow)
	}
}

// checkpointBytesCeiling bounds the instance space's checkpoint bytes per
// navigated activity of one parallel fan-out, by width: the value bytes of
// every instance-space put, BenchmarkCheckpointWidth's ckpt-B/act, on the
// same runtime (seed 1, the ik-linux cluster). The simulator makes the figure
// exact: 393.0, 417.0 and 427.6 B at widths 25, 100 and 400 once process
// texts left the instance space (405.0, 420.0 and 428.4 B with them). Each
// ceiling is 1.1× its measure. Whole-scope records cost 5.6, 14.4 and
// 51.6 KB.
var checkpointBytesCeiling = map[int]float64{25: 432, 100: 459, 400: 470}

func TestCheckpointBytesCeiling(t *testing.T) {
	for _, width := range []int{25, 100, 400} {
		xs := make([]ocr.Value, width)
		for i := range xs {
			xs[i] = ocr.Int(i)
		}
		cs := &byteCountStore{Store: store.NewMem()}
		rt := newRuntime(t, SimConfig{Spec: cluster.IkLinux(), Library: benchLibrary(t), Store: cs})
		register(t, rt, benchFanSrc)
		id := start(t, rt, "Fan", map[string]ocr.Value{"xs": ocr.List(xs...)})
		rt.Run()
		in := finished(t, rt, id)
		got := float64(cs.ckpt.Load()) / float64(in.Activities)
		t.Logf("width %d: %.1f checkpoint bytes per activity", width, got)
		if ceiling := checkpointBytesCeiling[width]; got > ceiling {
			t.Errorf("width %d: %.1f checkpoint bytes per activity, ceiling %.0f", width, got, ceiling)
		}
	}
}
