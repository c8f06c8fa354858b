package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"bioopera/internal/core"
	"bioopera/internal/fed"
	"bioopera/internal/obs"
	"bioopera/internal/ocr"
	"bioopera/internal/store"
)

// fedServeOpts carries the serve flags that matter in federation mode.
type fedServeOpts struct {
	name        string
	listen      string
	join        []string
	storeDir    string
	workers     int
	partitions  int
	lazy        bool
	beat        time.Duration
	beatTimeout time.Duration
	monitor     string
	verbose     bool
}

// serveFederated runs serve as one member of a partitioned federation: it
// owns a slice of the instance-ID space, executes on a local worker pool,
// and serves routed RPCs (start, status, wait, ...) for a gateway. It does
// not start instances itself — clients start work through a gateway — and
// it keeps serving until interrupted.
func serveFederated(ps []*ocr.Process, o fedServeOpts) error {
	if o.name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "member"
		}
		o.name = host
	}
	var reg *obs.Registry
	var ring *obs.Ring
	if o.monitor != "" {
		reg = obs.NewRegistry()
		ring = obs.NewRing(1024)
	}
	st, err := openStoreWith(o.storeDir, reg)
	if err != nil {
		return err
	}
	defer st.Close()
	m, err := fed.NewMember(fed.Config{
		Name:             o.name,
		ListenAddr:       o.listen,
		Join:             o.join,
		Store:            st,
		Library:          stubLibrary(ps, o.verbose),
		Workers:          o.workers,
		Partitions:       o.partitions,
		HeartbeatEvery:   o.beat,
		HeartbeatTimeout: o.beatTimeout,
		LazyRecovery:     o.lazy,
		Metrics:          reg,
		EventRing:        ring,
		OnError: func(err error) {
			fmt.Fprintf(os.Stderr, "bioopera: %v\n", err)
		},
	})
	if err != nil {
		return err
	}
	defer m.Close()
	var regErr error
	m.Runtime().Do(func(e *core.Engine) {
		for _, p := range ps {
			if err := e.RegisterTemplate(p); err != nil {
				regErr = err
				return
			}
		}
	})
	if regErr != nil {
		return regErr
	}
	if o.monitor != "" {
		msrv := obs.NewServer(obs.ServerConfig{
			Source:   fed.NewMonitorSource(m),
			Registry: reg,
			Events:   ring,
		})
		if err := msrv.Start(o.monitor); err != nil {
			return err
		}
		defer msrv.Close()
		fmt.Printf("monitor on http://%s (try /metrics, /api/cluster)\n", msrv.Addr())
	}
	fmt.Printf("federation member %s (incarnation %d) on %s; partitions settle via gossip (Ctrl-C to exit)\n",
		m.Name(), m.Incarnation(), m.Addr())
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
	fmt.Printf("member %s: shutting down; peers adopt partitions %v\n", m.Name(), m.OwnedPartitions())
	return nil
}

// cmdGateway runs a standalone federation gateway: clients connect to it
// with the same request frames the members answer, and it routes each call
// to the member owning the target instance, riding through failover.
func cmdGateway(args []string) error {
	fs := flag.NewFlagSet("gateway", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:7080", "TCP address for federation clients")
	var memberFlags repeated
	fs.Var(&memberFlags, "member", "seed member address (repeatable, at least one)")
	monitor := fs.String("monitor", "", "HTTP monitor address; serves /metrics and /api/cluster")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 || len(memberFlags) == 0 {
		return fmt.Errorf("usage: bioopera gateway -member <addr> [-member <addr> ...] [flags]")
	}
	var reg *obs.Registry
	if *monitor != "" {
		reg = obs.NewRegistry()
	}
	g, err := fed.NewGateway(fed.GatewayConfig{
		ListenAddr: *listen,
		Members:    memberFlags,
		Metrics:    reg,
	})
	if err != nil {
		return err
	}
	defer g.Close()
	if *monitor != "" {
		msrv := obs.NewServer(obs.ServerConfig{
			Source:   fed.NewGatewaySource(g),
			Registry: reg,
		})
		if err := msrv.Start(*monitor); err != nil {
			return err
		}
		defer msrv.Close()
		fmt.Printf("monitor on http://%s (try /metrics, /api/cluster)\n", msrv.Addr())
	}
	fmt.Printf("gateway on %s routing to %s (Ctrl-C to exit)\n",
		g.Addr(), strings.Join(memberFlags, ", "))
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
	return nil
}

// fedDemoTemplate chains three activities so instances stay in flight long
// enough for a mid-run -kill to land on real work.
const fedDemoTemplate = `
PROCESS Triple {
  INPUT x;
  OUTPUT r;
  ACTIVITY A { CALL demo.step(x = x); OUT out; MAP out -> a; }
  ACTIVITY B { CALL demo.step(x = a); OUT out; MAP out -> b; }
  ACTIVITY C { CALL demo.step(x = b); OUT out; MAP out -> r; }
  A -> B;
  B -> C;
}`

// demoLib computes 2x+1 per step so the demo can verify final outputs
// exactly: Triple(x) = 8x+7 regardless of which members ran the steps.
func demoLib(stepTime time.Duration, verbose bool) *core.Library {
	lib := core.NewLibrary()
	lib.Register(core.Program{
		Name: "demo.step",
		Run: func(ctx core.ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
			if verbose {
				fmt.Printf("  [%s] demo.step(%s)\n", ctx.Task, fmtArgs(args))
			}
			time.Sleep(stepTime)
			return map[string]ocr.Value{"out": ocr.Num(args["x"].AsNum()*2 + 1)}, nil
		},
	})
	return lib
}

// cmdFed runs a federation in a box: it boots N in-process members over one
// shared store, routes every client call through a gateway, and (with
// -kill) closes one member mid-run to demonstrate peer failover — the CI
// smoke asserts that every instance still completes with correct outputs.
func cmdFed(args []string) error {
	fs := flag.NewFlagSet("fed", flag.ExitOnError)
	servers := fs.Int("servers", 3, "federation members to boot")
	n := fs.Int("n", 8, "instances to start through the gateway")
	kill := fs.Bool("kill", false, "close one member mid-run to exercise failover")
	killAfter := fs.Duration("kill-after", 50*time.Millisecond, "delay between the starts and the -kill")
	partitions := fs.Int("partitions", 8, "ownership partition count")
	workers := fs.Int("workers", 2, "worker pool size per member")
	stepTime := fs.Duration("step", 30*time.Millisecond, "demo activity duration (embedded workload only)")
	timeout := fs.Duration("timeout", time.Minute, "per-instance completion timeout")
	template := fs.String("template", "", "process to start (default: first in file)")
	var inputFlags repeated
	fs.Var(&inputFlags, "input", "process input as name=value (repeatable; file workload only)")
	verbose := fs.Bool("v", false, "trace activity invocations and member events")

	// The positional OCR file is optional: without one, an embedded
	// three-step arithmetic chain runs and final outputs are verified
	// exactly.
	var file string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		file = args[0]
		args = args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: bioopera fed [file.ocr] [flags]")
	}
	if *servers < 1 {
		return fmt.Errorf("fed: -servers must be at least 1")
	}

	embedded := file == ""
	var ps []*ocr.Process
	var err error
	if embedded {
		ps, err = ocr.ParseFile(fedDemoTemplate)
	} else {
		ps, err = loadFile(file)
	}
	if err != nil {
		return err
	}
	if *template == "" {
		*template = ps[0].Name
	}
	fileInputs, err := parseInputs(inputFlags)
	if err != nil {
		return err
	}
	mkLib := func() *core.Library {
		if embedded {
			return demoLib(*stepTime, *verbose)
		}
		return stubLibrary(ps, *verbose)
	}

	st := store.NewMem()
	defer st.Close()
	reg := obs.NewRegistry()

	// Boot the members; each joins everyone booted before it and gossip
	// fills in the rest of the mesh.
	members := make([]*fed.Member, 0, *servers)
	defer func() {
		for _, m := range members {
			m.Close()
		}
	}()
	var joins []string
	for i := 0; i < *servers; i++ {
		m, err := fed.NewMember(fed.Config{
			Name:             fmt.Sprintf("s%d", i+1),
			ListenAddr:       "127.0.0.1:0",
			Join:             append([]string(nil), joins...),
			Store:            st,
			Library:          mkLib(),
			Workers:          *workers,
			Partitions:       *partitions,
			HeartbeatEvery:   50 * time.Millisecond,
			HeartbeatTimeout: 250 * time.Millisecond,
			LazyRecovery:     true,
			Metrics:          reg,
			OnError: func(err error) {
				if *verbose {
					fmt.Fprintf(os.Stderr, "bioopera: %v\n", err)
				}
			},
		})
		if err != nil {
			return err
		}
		members = append(members, m)
		joins = append(joins, m.Addr())
		var regErr error
		m.Runtime().Do(func(e *core.Engine) {
			for _, p := range ps {
				if err := e.RegisterTemplate(p); err != nil {
					regErr = err
					return
				}
			}
		})
		if regErr != nil {
			return regErr
		}
	}
	if err := waitFedBalanced(members, *partitions, 10*time.Second); err != nil {
		return err
	}
	for _, m := range members {
		fmt.Printf("member %s on %s owns %v\n", m.Name(), m.Addr(), m.OwnedPartitions())
	}

	g, err := fed.NewGateway(fed.GatewayConfig{
		Members:      joins,
		Metrics:      reg,
		Retries:      60,
		RetryBackoff: 100 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer g.Close()

	ids := make([]string, *n)
	for i := range ids {
		inputs := fileInputs
		if embedded {
			inputs = map[string]ocr.Value{"x": ocr.Num(float64(i))}
		}
		id, err := g.Start(fed.StartReq{Template: *template, Inputs: inputs})
		if err != nil {
			return fmt.Errorf("start %d: %w", i, err)
		}
		ids[i] = id
	}
	fmt.Printf("started %d instance(s) of %s through the gateway\n", *n, *template)

	if *kill {
		if len(members) < 2 {
			return fmt.Errorf("fed: -kill needs at least 2 servers")
		}
		time.Sleep(*killAfter)
		victim := members[0]
		if name := fed.MemberOf(ids[0]); name != "" {
			for _, m := range members {
				if m.Name() == name {
					victim = m
					break
				}
			}
		}
		fmt.Printf("killed member %s (owned %v); peers take over\n",
			victim.Name(), victim.OwnedPartitions())
		victim.Close()
	}

	failed := 0
	for i, id := range ids {
		res, err := g.Wait(id, *timeout)
		if err != nil {
			fmt.Printf("  %s: wait failed: %v\n", id, err)
			failed++
			continue
		}
		if res.Status != core.InstanceDone.String() {
			fmt.Printf("  %s: %s (%s)\n", id, res.Status, res.Failure)
			failed++
			continue
		}
		if embedded {
			want := float64(8*i + 7)
			if got := res.Outputs["r"].AsNum(); got != want {
				fmt.Printf("  %s: done but r = %v, want %v\n", id, got, want)
				failed++
				continue
			}
		}
		fmt.Printf("  %s: done%s\n", id, fmtOutputs(res.Outputs))
	}
	if failed > 0 {
		return fmt.Errorf("fed: %d of %d instance(s) did not complete correctly", failed, *n)
	}
	fmt.Printf("federation ok: %d/%d instance(s) completed\n", *n, *n)
	return nil
}

// fmtOutputs renders an instance's outputs as a compact suffix.
func fmtOutputs(outs map[string]ocr.Value) string {
	if len(outs) == 0 {
		return ""
	}
	return " (" + fmtArgs(outs) + ")"
}

// waitFedBalanced polls until every partition has exactly one owner and
// every member owns at least one.
func waitFedBalanced(members []*fed.Member, partitions int, patience time.Duration) error {
	deadline := time.Now().Add(patience)
	for {
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
			balanced := true
			for _, c := range owners {
				if c != 1 {
					balanced = false
				}
			}
			if balanced {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fed: ownership did not settle within %v", patience)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
