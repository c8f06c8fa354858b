package fed

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"bioopera/internal/core"
	"bioopera/internal/ocr"
	"bioopera/internal/store"
)

// gateTemplate parks at an AWAIT, so an instance holds still for suspend,
// resume, setparam and signal, and its output shows what each of them did.
const gateTemplate = `
PROCESS Gate {
  INPUT x;
  OUTPUT r;
  DATA p = 0;
  ACTIVITY Hold { AWAIT "go"; OUT y; MAP y -> y; }
  ACTIVITY Echo { CALL fed.echo(x = [x, y, p]); OUT out; MAP out -> r; }
  Hold -> Echo;
}`

// rpcFederation boots two members over one store and a listening gateway in
// front of them, and returns the members, and a client dialed to the
// gateway.
func rpcFederation(t *testing.T, cfg GatewayConfig) ([]*Member, *Client) {
	t.Helper()
	st := store.NewMem()
	var members []*Member
	for _, name := range []string{"alpha", "beta"} {
		lib := fedLib()
		lib.Register(core.Program{
			Name: "fed.echo",
			Run: func(_ core.ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
				return map[string]ocr.Value{"out": args["x"]}, nil
			},
		})
		var join []string
		for _, m := range members {
			join = append(join, m.Addr())
		}
		m, err := NewMember(Config{
			Name: name, ListenAddr: "127.0.0.1:0", Join: join, Store: st, Library: lib, Workers: 2,
			Partitions: 8, HeartbeatEvery: 25 * time.Millisecond, HeartbeatTimeout: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		if err := m.Runtime().RegisterTemplateSource(gateTemplate); err != nil {
			t.Fatal(err)
		}
		members = append(members, m)
	}
	waitBalanced(t, members, 8)
	cfg.ListenAddr = "127.0.0.1:0"
	for _, m := range members {
		cfg.Members = append(cfg.Members, m.Addr())
	}
	g, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	c, err := DialClient(g.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return members, c
}

// TestEveryRPCEndToEnd calls each of the ten RPCs through a client, a
// listening gateway and the owning member, and checks every answer against
// the owning engine's own.
func TestEveryRPCEndToEnd(t *testing.T) {
	members, c := rpcFederation(t, GatewayConfig{})
	var id, aborted string
	eng := func(id string) *core.Engine {
		for _, m := range members {
			if m.Name() == MemberOf(id) {
				return m.Runtime().Engine()
			}
		}
		t.Fatalf("no member minted %s", id)
		return nil
	}
	// isState checks the engine's state of id and returns it as the wire
	// carries it.
	isState := func(id string, want core.InstanceStatus) (StateRes, error) {
		st, out, err := eng(id).InstanceState(id)
		if err != nil || st != want {
			return StateRes{}, fmt.Errorf("engine has %s as %v (%v), want %v", id, st, err, want)
		}
		return StateRes{Status: st.String(), Outputs: out}, nil
	}
	same := func(got, want any) error {
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("got %+v, engine has %+v", got, want)
		}
		return nil
	}
	for _, step := range []struct {
		method string
		call   func() error
	}{
		{MethodStart, func() (err error) {
			if id, err = c.Start(StartReq{Template: "Gate", Inputs: map[string]ocr.Value{"x": ocr.Num(1)}}); err != nil {
				return err
			}
			_, err = isState(id, core.InstanceRunning)
			return err
		}},
		{MethodStatus, func() error {
			got, err := c.Status(id)
			if err != nil {
				return err
			}
			want, err := isState(id, core.InstanceRunning)
			if err != nil {
				return err
			}
			return same(got, want)
		}},
		{MethodSuspend, func() error {
			if err := c.Suspend(id, false); err != nil {
				return err
			}
			_, err := isState(id, core.InstanceSuspended)
			return err
		}},
		{MethodSetParam, func() error {
			return c.SetParameter(id, "p", ocr.Num(5)) // seen in the output below
		}},
		{MethodResume, func() error {
			if err := c.Resume(id); err != nil {
				return err
			}
			_, err := isState(id, core.InstanceRunning)
			return err
		}},
		{MethodSignal, func() error {
			if err := c.Signal(id, "go", map[string]ocr.Value{"y": ocr.Str("ok")}); err != nil {
				return err
			}
			if awaiting := eng(id).Awaiting(id); len(awaiting) != 0 {
				return fmt.Errorf("still awaiting %v after the signal", awaiting)
			}
			return nil
		}},
		{MethodWait, func() error {
			got, err := c.Wait(id, 10*time.Second)
			if err != nil {
				return err
			}
			want, err := isState(id, core.InstanceDone)
			if err != nil {
				return err
			}
			if r := want.Outputs["r"]; r.Len() != 3 || r.At(0).AsNum() != 1 || r.At(1).AsStr() != "ok" || r.At(2).AsNum() != 5 {
				return fmt.Errorf("r = %v, want [1, ok, 5]: the signal or setparam did not land", r)
			}
			return same(got, want)
		}},
		{MethodLineage, func() error {
			got, err := c.Lineage(id)
			if err != nil {
				return err
			}
			want, err := eng(id).Lineage(id)
			if err != nil {
				return err
			}
			return same(got, want)
		}},
		{MethodAbort, func() (err error) {
			if aborted, err = c.Start(StartReq{Template: "Gate", Inputs: map[string]ocr.Value{"x": ocr.Num(2)}}); err != nil {
				return err
			}
			if err := c.Abort(aborted, "stop"); err != nil {
				return err
			}
			if _, err := isState(aborted, core.InstanceFailed); err != nil {
				return err
			}
			in, _ := eng(aborted).Instance(aborted)
			got, err := c.Status(aborted)
			if err != nil {
				return err
			}
			return same(got.Failure, in.FailureReason)
		}},
		{MethodMembers, func() error {
			view, err := c.Members()
			if err != nil {
				return err
			}
			var names []string
			owned := 0
			for _, mi := range view.Members {
				names = append(names, mi.Name)
				if !mi.Up {
					return fmt.Errorf("member %s reported down", mi.Name)
				}
			}
			for _, m := range members {
				owned += len(m.OwnedPartitions())
			}
			sort.Strings(names)
			return same([]any{view.Partitions, names}, []any{owned, []string{"alpha", "beta"}})
		}},
	} {
		if err := step.call(); err != nil {
			t.Fatalf("%s: %v", step.method, err)
		}
	}
}

// TestGatewayRetryTaxonomy: the gateway tells a member's errors apart by
// code, not by their text. A start whose template happens to be named like
// ErrNoPartition fails at once with the engine's error instead of being
// retried, and an unknown instance reaches a client through the gateway as
// core.ErrUnknownInstance.
func TestGatewayRetryTaxonomy(t *testing.T) {
	const backoff = 200 * time.Millisecond
	_, c := rpcFederation(t, GatewayConfig{Retries: 2, RetryBackoff: backoff})

	began := time.Now()
	_, err := c.Start(StartReq{Template: ErrNoPartition.Error()})
	if err == nil || !strings.Contains(err.Error(), core.ErrUnknownTemplate.Error()) || strings.Contains(err.Error(), "gave up") {
		t.Fatalf("start of an unknown template = %v, want the engine's unknown-template error", err)
	}
	if took := time.Since(began); took >= backoff {
		t.Fatalf("start of an unknown template took %v: it was retried", took)
	}

	if _, err := c.Status(MintID(0, "nobody", 1, 1)); !errors.Is(err, core.ErrUnknownInstance) {
		t.Fatalf("status of an unknown instance = %v, want core.ErrUnknownInstance", err)
	}
}
