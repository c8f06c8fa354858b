package fed

import (
	"encoding/json"
	"errors"
	"slices"
	"testing"
	"time"

	"bioopera/internal/core"
	"bioopera/internal/obs"
	"bioopera/internal/ocr"
	"bioopera/internal/store"
)

// fedTemplate chains three activities so instances stay in flight long
// enough for a mid-run server kill to land on real work.
const fedTemplate = `
PROCESS Triple {
  INPUT x;
  OUTPUT r;
  ACTIVITY A { CALL fed.step(x = x); OUT out; MAP out -> a; }
  ACTIVITY B { CALL fed.step(x = a); OUT out; MAP out -> b; }
  ACTIVITY C { CALL fed.step(x = b); OUT out; MAP out -> r; }
  A -> B;
  B -> C;
}`

func fedLib() *core.Library {
	lib := core.NewLibrary()
	lib.Register(core.Program{
		Name: "fed.step",
		Run: func(_ core.ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
			time.Sleep(30 * time.Millisecond)
			return map[string]ocr.Value{"out": ocr.Num(args["x"].AsNum()*2 + 1)}, nil
		},
	})
	return lib
}

func newTestMember(t *testing.T, name string, join []string, st store.Store, reg *obs.Registry) *Member {
	t.Helper()
	m, err := NewMember(Config{
		Name:             name,
		ListenAddr:       "127.0.0.1:0",
		Join:             join,
		Store:            st,
		Library:          fedLib(),
		Workers:          2,
		Partitions:       8,
		HeartbeatEvery:   25 * time.Millisecond,
		HeartbeatTimeout: 100 * time.Millisecond,
		Metrics:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Runtime().RegisterTemplateSource(fedTemplate); err != nil {
		m.Close()
		t.Fatal(err)
	}
	return m
}

// waitBalanced polls until every partition has exactly one owner among the
// members and every member owns at least one partition.
func waitBalanced(t *testing.T, members []*Member, partitions int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		owners := make(map[int]int)
		short := false
		for _, m := range members {
			owned := m.OwnedPartitions()
			if len(owned) == 0 {
				short = true
			}
			for _, p := range owned {
				owners[p]++
			}
		}
		if !short && len(owners) == partitions {
			ok := true
			for _, n := range owners {
				if n != 1 {
					ok = false
				}
			}
			if ok {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, m := range members {
		t.Logf("%s owns %v", m.Name(), m.OwnedPartitions())
	}
	t.Fatal("ownership never balanced")
}

// canonicalOutputs marshals an output map; encoding/json sorts keys, so
// equal states produce identical bytes.
func canonicalOutputs(t *testing.T, outputs map[string]ocr.Value) []byte {
	t.Helper()
	data, err := json.Marshal(outputs)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFederatedFailoverE2E is the acceptance run: three members behind a
// gateway, one killed mid-run, every instance completes, and the final
// outputs are byte-identical with a single-server run of the same work.
func TestFederatedFailoverE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("federation e2e needs real heartbeats")
	}
	const n = 12
	st := store.NewMem()
	reg := obs.NewRegistry()
	a := newTestMember(t, "alpha", nil, st, reg)
	defer a.Close()
	b := newTestMember(t, "beta", []string{a.Addr()}, st, reg)
	defer b.Close()
	c := newTestMember(t, "gamma", []string{a.Addr(), b.Addr()}, st, reg)
	defer c.Close()
	members := []*Member{a, b, c}
	waitBalanced(t, members, 8)

	gw, err := NewGateway(GatewayConfig{
		Members: []string{a.Addr(), b.Addr(), c.Addr()},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	ids := make([]string, n)
	for i := 0; i < n; i++ {
		id, err := gw.Start(StartReq{Template: "Triple",
			Inputs: map[string]ocr.Value{"x": ocr.Int(i)}})
		if err != nil {
			t.Fatalf("start %d: %v", i, err)
		}
		ids[i] = id
	}

	// Kill the member that minted the first instance while its three-step
	// chains are still running.
	victim := MemberOf(ids[0])
	var killed *Member
	var survivors []*Member
	for _, m := range members {
		if m.Name() == victim {
			killed = m
		} else {
			survivors = append(survivors, m)
		}
	}
	if killed == nil {
		t.Fatalf("no member named %q (ids[0]=%s)", victim, ids[0])
	}
	waitFor(t, "the victim runs a job", func() bool { return killed.Runtime().Engine().RunningJobs() > 0 })
	killedPartitions := killed.OwnedPartitions()
	killedInc := killed.Incarnation()
	killed.Close()
	t.Logf("killed %s (partitions %v)", victim, killedPartitions)

	results := make([][]byte, n)
	for i, id := range ids {
		res, err := gw.Wait(id, 30*time.Second)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if res.Status != core.InstanceDone.String() {
			t.Fatalf("instance %s ended %s (%s)", id, res.Status, res.Failure)
		}
		// ((x*2+1)*2+1)*2+1 = 8x+7
		if got, want := res.Outputs["r"].AsNum(), float64(i*8+7); got != want {
			t.Fatalf("instance %s r = %v, want %v", id, got, want)
		}
		results[i] = canonicalOutputs(t, res.Outputs)
	}

	// The dead member's partitions must have been reclaimed under a newer
	// incarnation by a survivor.
	leases := survivors[0].leases
	for _, p := range killedPartitions {
		l, err := lease(leases, p)
		if err != nil {
			t.Fatal(err)
		}
		if l.Owner == victim || l.Owner == "" {
			t.Fatalf("partition %d still leased to %q after failover", p, l.Owner)
		}
		if l.Incarnation <= killedInc {
			t.Fatalf("partition %d reclaimed under incarnation %d, not newer than %d",
				p, l.Incarnation, killedInc)
		}
	}

	// Every survivor's engine, idle now, keeps its invariants through the
	// adoption.
	checkMembers(t, "after failover", survivors)

	// Federation metrics observed the transfer.
	transfers := reg.Counter("bioopera_fed_ownership_transfers_total", "")
	if transfers.Value() == 0 {
		t.Fatal("ownership-transfer counter never moved")
	}
	failover := reg.Histogram("bioopera_fed_failover_seconds", "", nil)
	if failover.Count() == 0 {
		t.Fatal("failover histogram never observed")
	}

	// Byte-identical check: the same inputs through one standalone engine
	// must produce the same final output state, position by position.
	solo, err := core.NewLocalRuntime(core.LocalConfig{Workers: 4, Library: fedLib()})
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()
	if err := solo.RegisterTemplateSource(fedTemplate); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		id, err := solo.StartProcess("Triple",
			map[string]ocr.Value{"x": ocr.Int(i)}, core.StartOptions{})
		if err != nil {
			t.Fatal(err)
		}
		in, err := solo.Wait(id, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if soloBytes := canonicalOutputs(t, in.Outputs); string(soloBytes) != string(results[i]) {
			t.Fatalf("instance %d diverged:\nfederated: %s\nsolo:      %s",
				i, results[i], soloBytes)
		}
	}
}

// checkMembers runs every member's Check and fails on any violation, and on
// an instance registered on two members: at idle, one owner per instance.
func checkMembers(t *testing.T, step string, members []*Member) {
	t.Helper()
	holder := make(map[string]string)
	for _, m := range members {
		e := m.Runtime().Engine()
		for _, v := range e.Check() {
			t.Errorf("%s: %s: %v", step, m.Name(), v)
		}
		for _, in := range e.Instances() {
			if other, dup := holder[in.ID]; dup {
				t.Errorf("%s: %s is registered on %s and %s", step, in.ID, other, m.Name())
			}
			holder[in.ID] = m.Name()
		}
	}
}

// waitFor polls cond until it holds, failing after ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// moveLease hands partition p's lease to the named member, as a claim of
// its would.
func moveLease(t *testing.T, tbl *LeaseTable, p int, to string) {
	t.Helper()
	for {
		cur, err := lease(tbl, p)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := tbl.NextIncarnation()
		if err != nil {
			t.Fatal(err)
		}
		var conflict *ConflictError
		if err := tbl.Claim(cur, Lease{Partition: p, Owner: to, Incarnation: inc}); err == nil {
			return
		} else if !errors.As(err, &conflict) {
			t.Fatal(err)
		}
	}
}

func owns(m *Member, p int) bool { return slices.Contains(m.OwnedPartitions(), p) }

func holds(m *Member, id string) bool { _, ok := m.Runtime().Engine().Instance(id); return ok }

// suspendedOnAlpha starts members alpha and beta over one store and, on
// alpha, an instance of a partition alpha owns, suspended once its first
// step is done so nothing of it runs while the partition's lease moves.
func suspendedOnAlpha(t *testing.T, st store.Store) (a, b *Member, p int, id string) {
	t.Helper()
	a = newTestMember(t, "alpha", nil, st, nil)
	t.Cleanup(a.Close)
	b = newTestMember(t, "beta", []string{a.Addr()}, st, nil)
	t.Cleanup(b.Close)
	waitBalanced(t, []*Member{a, b}, 8)
	for SuccessorOf(p, []string{"alpha", "beta"}) != "alpha" {
		p++
	}
	waitFor(t, "alpha owns its partition", func() bool { return owns(a, p) })
	ea := a.Runtime().Engine()
	id = MintID(p, "alpha", a.Incarnation(), 1)
	if _, err := ea.StartProcess("Triple", map[string]ocr.Value{"x": ocr.Int(1)}, core.StartOptions{InstanceID: id}); err != nil {
		t.Fatal(err)
	}
	if err := ea.Suspend(id, true); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "alpha's running step ends", func() bool { return ea.RunningJobs() == 0 })
	ea.QuiesceCheckpoints()
	return a, b, p, id
}

// TestLeaseAwayAndBack takes a partition's lease from the member holding an
// instance of it, lets the new owner finish the instance, and gives the
// lease back. The member that lost the partition evicts the instance, no
// instance is ever registered on two members, and the finished instance's
// records stay as its last owner left them.
func TestLeaseAwayAndBack(t *testing.T) {
	st := store.NewMem()
	a, b, p, id := suspendedOnAlpha(t, st)
	members := []*Member{a, b}
	eb := b.Runtime().Engine()

	moveLease(t, a.leases, p, "beta")
	waitFor(t, "beta adopts the instance and alpha drops it", func() bool {
		return owns(b, p) && !owns(a, p) && holds(b, id) && !holds(a, id)
	})
	checkMembers(t, "lease away", members)
	if err := eb.Resume(id); err != nil {
		t.Fatal(err)
	}
	in, err := b.Runtime().Wait(id, 10*time.Second)
	if err != nil || in.Status != core.InstanceDone || in.Outputs["r"].AsNum() != 15 {
		t.Fatalf("on beta: %v %v (%v), want done with r = 15", in.Status, in.Outputs, err)
	}

	moveLease(t, a.leases, p, "alpha")
	waitFor(t, "alpha takes the partition back and beta drops the instance", func() bool {
		return owns(a, p) && !owns(b, p) && !holds(b, id)
	})
	checkMembers(t, "lease back", members)
	if holds(a, id) {
		t.Errorf("alpha lists %s, which finished on beta", id)
	}
	if _, live, err := st.Get(store.Instance, "inst/"+id); live || err != nil {
		t.Fatalf("a live inst/ record of %s reappeared (%v)", id, err)
	}
	raw, ok, err := st.Get(store.History, "inst/"+id)
	if !ok || err != nil {
		t.Fatalf("no archived inst/ record of %s (%v)", id, err)
	}
	if meta, err := core.DecodeInstanceMeta(raw); err != nil || meta.Status != core.InstanceDone {
		t.Fatalf("archived inst/ record of %s reads %v (%v), want done", id, meta.Status, err)
	}
}

// TestGatewayRetryAfterRedirect poisons the gateway's routing table and
// checks that the member's redirect heals it within one retry.
func TestGatewayRetryAfterRedirect(t *testing.T) {
	st := store.NewMem()
	reg := obs.NewRegistry()
	a := newTestMember(t, "alpha", nil, st, reg)
	defer a.Close()
	b := newTestMember(t, "beta", []string{a.Addr()}, st, reg)
	defer b.Close()
	waitBalanced(t, []*Member{a, b}, 8)

	gw, err := NewGateway(GatewayConfig{
		Members: []string{a.Addr(), b.Addr()},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	id, err := gw.Start(StartReq{Template: "Triple",
		Inputs: map[string]ocr.Value{"x": ocr.Int(1)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gw.Wait(id, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	// Poison the route: pretend the wrong member owns the instance's
	// partition and hide the minter so the partition route is used.
	minter := MemberOf(id)
	wrong := "alpha"
	if minter == "alpha" {
		wrong = "beta"
	}
	gw.mu.Lock()
	gw.live[minter] = false
	gw.owners[PartitionOf(id, 8)] = wrong
	gw.mu.Unlock()

	redirectsBefore := reg.CounterVec("bioopera_fed_routed_rpcs_total", "", "outcome").
		With(outcomeRedirect).Value()
	res, err := gw.Status(id)
	if err != nil {
		t.Fatalf("status after poisoned route: %v", err)
	}
	if res.Status != core.InstanceDone.String() {
		t.Fatalf("status = %s", res.Status)
	}
	redirectsAfter := reg.CounterVec("bioopera_fed_routed_rpcs_total", "", "outcome").
		With(outcomeRedirect).Value()
	if redirectsAfter <= redirectsBefore {
		t.Fatal("redirect counter never moved — the stale route was not exercised")
	}

	// The healed table now routes directly: the next call answers without
	// another redirect.
	healedBefore := redirectsAfter
	if _, err := gw.Status(id); err != nil {
		t.Fatal(err)
	}
	if v := reg.CounterVec("bioopera_fed_routed_rpcs_total", "", "outcome").
		With(outcomeRedirect).Value(); v != healedBefore {
		t.Fatalf("healed route still redirected (%d → %d)", healedBefore, v)
	}
}

// TestMemberRestartReclaimsOwnLeases restarts a member against the same
// store and checks it re-claims its partitions under a fresh incarnation.
func TestMemberRestartReclaimsOwnLeases(t *testing.T) {
	st := store.NewMem()
	a := newTestMember(t, "alpha", nil, st, nil)
	waitBalanced(t, []*Member{a}, 8)
	firstInc := a.Incarnation()
	a.Close()

	a2 := newTestMember(t, "alpha", nil, st, nil)
	defer a2.Close()
	waitBalanced(t, []*Member{a2}, 8)
	if a2.Incarnation() <= firstInc {
		t.Fatalf("restart incarnation %d not newer than %d", a2.Incarnation(), firstInc)
	}
	l, err := lease(a2.leases, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l.Owner != "alpha" {
		t.Fatalf("partition 0 owned by %q after restart", l.Owner)
	}
	if l.Incarnation <= firstInc {
		t.Fatalf("partition 0 lease incarnation %d predates the restart (boot was %d)",
			l.Incarnation, firstInc)
	}
}

// TestStartRejectedWithoutPartition checks the member-side error a gateway
// retries on.
func TestStartRejectedWithoutPartition(t *testing.T) {
	st := store.NewMem()
	// A member joined to a nonexistent seed never settles quickly and owns
	// nothing at first; starting must fail with ErrNoPartition, not hang.
	m, err := NewMember(Config{
		Name:             "late",
		ListenAddr:       "127.0.0.1:0",
		Join:             []string{"127.0.0.1:1"},
		Store:            st,
		Library:          fedLib(),
		Workers:          1,
		Partitions:       8,
		HeartbeatEvery:   50 * time.Millisecond,
		HeartbeatTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.mintID(); err == nil {
		t.Fatal("mintID succeeded with no owned partitions")
	} else if got := err.Error(); got != ErrNoPartition.Error() {
		t.Fatalf("mintID error = %q", got)
	}
}

// TestFencedWaiterIsRedirected: a member whose lease is taken while a wait
// on an instance of the partition is in flight — a member falsely declared
// dead, or cut off — evicts the instance. The waiter wakes and is answered
// with a redirect to the new owner, which the gateway follows, not with
// core.ErrUnknownInstance, which it would hand to the client as final.
func TestFencedWaiterIsRedirected(t *testing.T) {
	a, _, p, id := suspendedOnAlpha(t, store.NewMem())
	done := make(chan Response, 1)
	go func() { done <- a.answer(Request{Method: MethodWait, Instance: id, TimeoutMs: 30_000}) }()
	time.Sleep(50 * time.Millisecond) // let the wait block in the engine
	select {
	case res := <-done:
		t.Fatalf("the wait on a suspended instance ended before the lease moved: %v", res.err())
	default:
	}

	moveLease(t, a.leases, p, "beta")
	select {
	case res := <-done:
		var rd *RedirectError
		if err := res.err(); !errors.As(err, &rd) || rd.Member != "beta" {
			t.Fatalf("the fenced wait = code %d, %v; want a redirect to beta", res.Code, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the fenced wait did not end within 10 s of the lease moving")
	}
}
