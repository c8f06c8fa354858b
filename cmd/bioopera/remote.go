package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"bioopera/internal/core"
	"bioopera/internal/obs"
	"bioopera/internal/remote"
	"bioopera/internal/sched"
	"bioopera/internal/store"
)

// parseQuotas turns repeated tenant=weight flags into the scheduler's
// fair-share quota map.
func parseQuotas(flags repeated) (map[string]float64, error) {
	if len(flags) == 0 {
		return nil, nil
	}
	quotas := make(map[string]float64, len(flags))
	for _, q := range flags {
		name, val, ok := strings.Cut(q, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad -quota %q (want tenant=weight)", q)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("bad -quota %q: weight must be a positive number", q)
		}
		quotas[name] = w
	}
	return quotas, nil
}

// cmdServe runs the engine as a network server: worker agents connect over
// TCP, activities dispatch to them, and heartbeat loss fails work over to
// the survivors.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:7070", "TCP address for worker agents")
	template := fs.String("template", "", "process to start (default: first in file)")
	var inputFlags repeated
	fs.Var(&inputFlags, "input", "process input as name=value (repeatable)")
	workers := fs.Int("workers", 1, "worker agents to wait for before starting")
	policy := fs.String("policy", "", "placement policy: first-fit, least-loaded, fastest or round-robin (default least-loaded)")
	var quotaFlags repeated
	fs.Var(&quotaFlags, "quota", "fair-share weight as tenant=weight (repeatable)")
	tenant := fs.String("tenant", "", "fair-share tenant to charge this run to")
	timeout := fs.Duration("timeout", 10*time.Minute, "completion timeout")
	beat := fs.Duration("heartbeat", time.Second, "worker heartbeat cadence")
	beatTimeout := fs.Duration("heartbeat-timeout", 0, "silence before a worker is declared dead (default 3× heartbeat)")
	storeDir := fs.String("store", "", "persist state and history to this directory")
	ship := fs.String("ship", "", "serve the store's WAL to hot standbys on this address (requires -store)")
	monitor := fs.String("monitor", "", "HTTP monitor address (e.g. 127.0.0.1:8080); serves /metrics and /api/*")
	fedName := fs.String("fed", "", "federate: run as a federation member with this name (default hostname with -join)")
	var joinFlags repeated
	fs.Var(&joinFlags, "join", "federate: peer member address to join (repeatable; implies -fed)")
	partitions := fs.Int("partitions", 0, "federate: ownership partition count, all members must agree (default 16)")
	verbose := fs.Bool("v", false, "log protocol and node events")
	file, err := fileThenFlags(fs, args, "usage: bioopera serve <file.ocr> [flags]")
	if err != nil {
		return err
	}
	ps, err := loadFile(file)
	if err != nil {
		return err
	}
	if *fedName != "" || len(joinFlags) > 0 {
		// Federation member mode: the server owns a partition of the
		// instance-ID space, executes on a local pool, and serves routed
		// RPCs for a gateway instead of running one CLI-started instance
		// over remote worker agents.
		if *ship != "" {
			return fmt.Errorf("-ship does not combine with federation mode; each member persists through its own -store")
		}
		return serveFederated(ps, fedServeOpts{
			name:        *fedName,
			listen:      *listen,
			join:        joinFlags,
			storeDir:    *storeDir,
			workers:     *workers,
			partitions:  *partitions,
			beat:        *beat,
			beatTimeout: *beatTimeout,
			monitor:     *monitor,
			verbose:     *verbose,
		})
	}
	tpl, inputs, err := startArgs(ps, *template, inputFlags)
	if err != nil {
		return err
	}
	pol, err := sched.PolicyByName(*policy)
	if err != nil {
		return err
	}
	quotas, err := parseQuotas(quotaFlags)
	if err != nil {
		return err
	}
	// -monitor enables the whole observability stack: the registry feeds
	// /metrics (and the store's gauges, when persistent), the ring feeds
	// the /api/events long-poll tail.
	var reg *obs.Registry
	var ring *obs.Ring
	if *monitor != "" {
		reg = obs.NewRegistry()
		ring = obs.NewRing(1024)
	}
	if *ship != "" && *storeDir == "" {
		return fmt.Errorf("-ship requires -store: only a disk store's WAL can be shipped")
	}
	st, err := openStoreWith(*storeDir, reg)
	if err != nil {
		return err
	}
	defer st.Close()
	var logf func(string, ...any)
	if *verbose {
		logf = func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
	}
	rt, err := remote.NewRuntime(remote.Config{
		Addr:             *listen,
		Store:            st,
		Library:          stubLibrary(ps, *verbose),
		Policy:           pol,
		Quotas:           quotas,
		HeartbeatEvery:   *beat,
		HeartbeatTimeout: *beatTimeout,
		Logf:             logf,
		Metrics:          reg,
		EventRing:        ring,
		OnEvent: func(ev core.Event) {
			switch ev.Kind {
			case core.EvNodeJoined, core.EvNodeDown:
				fmt.Printf("worker %s: %s (%s)\n", ev.Node, ev.Kind, ev.Detail)
			}
		},
		OnError: func(err error) {
			fmt.Fprintf(os.Stderr, "bioopera: %v\n", err)
		},
	})
	if err != nil {
		return err
	}
	defer rt.Close()
	if err := registerAll(&rt.RuntimeBase, ps); err != nil {
		return err
	}
	if *monitor != "" {
		msrv := obs.NewServer(obs.ServerConfig{
			Source:   core.NewMonitorSource(rt.Engine()),
			Registry: reg,
			Events:   ring,
		})
		if err := msrv.Start(*monitor); err != nil {
			return err
		}
		defer msrv.Close()
		fmt.Printf("monitor on http://%s (try /metrics, /api/instances, /api/cluster)\n", msrv.Addr())
	}
	if *ship != "" {
		// -ship requires -store, so st is a disk store. Deferred after rt
		// and st, the shipper closes before either.
		shipper, err := st.(*store.Disk).StartShipping(*ship, logf)
		if err != nil {
			return fmt.Errorf("start shipping: %w", err)
		}
		defer shipper.Close()
		fmt.Printf("shipping WAL to standbys on %s\n", shipper.Addr())
	}
	fmt.Printf("listening on %s, waiting for %d worker(s)\n", rt.Addr(), *workers)
	if err := waitWorkers(rt, *workers, *timeout); err != nil {
		return err
	}
	if err := resume(&rt.RuntimeBase, *timeout); err != nil {
		return err
	}
	id, err := rt.StartProcess(tpl, inputs, core.StartOptions{Tenant: *tenant})
	if err != nil {
		return err
	}
	in, err := rt.Wait(id, *timeout)
	if err != nil {
		return err
	}
	live, dead, dropped := rt.Server.Stats()
	fmt.Printf("workers: %d live, %d declared dead, %d stale completions dropped\n", live, dead, dropped)
	if err := report(in); err != nil {
		return err
	}
	// With a monitor attached, stay up after the run so its final state —
	// history, lineage, metrics — remains queryable until interrupted.
	if *monitor != "" {
		fmt.Printf("run complete; monitor still on http://%s (Ctrl-C to exit)\n", *monitor)
		waitInterrupt()
	}
	return nil
}

// cmdStandby runs a hot standby: it follows a primary server's WAL stream
// (serve -ship) into its own store directory, and when the primary dies it
// promotes — recovering every unfinished instance from the replicated
// store and serving workers itself, so the in-flight run resumes where the
// primary's last committed batch left it.
func cmdStandby(args []string) error {
	fs := flag.NewFlagSet("standby", flag.ExitOnError)
	follow := fs.String("follow", "127.0.0.1:7071", "primary's WAL shipping address (its -ship)")
	listen := fs.String("listen", "127.0.0.1:7070", "TCP address for worker agents after promotion")
	storeDir := fs.String("store", "", "standby store directory (required; must differ from the primary's)")
	workers := fs.Int("workers", 1, "worker agents to wait for after promotion")
	timeout := fs.Duration("timeout", 10*time.Minute, "completion timeout after promotion")
	beat := fs.Duration("heartbeat", time.Second, "worker heartbeat cadence")
	beatTimeout := fs.Duration("heartbeat-timeout", 0, "silence before a worker is declared dead (default 3× heartbeat)")
	verbose := fs.Bool("v", false, "after promotion, log worker joins, deaths and protocol errors")
	file, err := fileThenFlags(fs, args, "usage: bioopera standby <file.ocr> [flags]")
	if err != nil {
		return err
	}
	ps, err := loadFile(file)
	if err != nil {
		return err
	}
	if *storeDir == "" {
		return fmt.Errorf("standby requires -store: the replica needs its own directory")
	}
	var logf func(string, ...any)
	if *verbose {
		logf = func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
	}
	sb, err := store.OpenStandby(*storeDir, store.DiskOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("standby: following %s into %s\n", *follow, *storeDir)
	if err := sb.Follow(*follow); err == nil {
		// Closed locally — nothing to promote.
		return sb.Close()
	} else {
		fmt.Printf("standby: primary lost (%v); promoting\n", err)
	}
	disk, err := sb.Promote()
	if err != nil {
		return err
	}
	defer disk.Close()
	rt, err := remote.NewRuntime(remote.Config{
		Addr:             *listen,
		Store:            disk,
		Library:          stubLibrary(ps, *verbose),
		HeartbeatEvery:   *beat,
		HeartbeatTimeout: *beatTimeout,
		Logf:             logf,
		OnError: func(err error) {
			fmt.Fprintf(os.Stderr, "bioopera: %v\n", err)
		},
	})
	if err != nil {
		return err
	}
	defer rt.Close()
	fmt.Printf("standby: promoted; listening on %s, waiting for %d worker(s)\n", rt.Addr(), *workers)
	if err := waitWorkers(rt, *workers, *timeout); err != nil {
		return err
	}
	return resume(&rt.RuntimeBase, *timeout)
}

// waitWorkers blocks until n worker agents have joined rt.
func waitWorkers(rt *remote.Runtime, n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if live, _, _ := rt.Server.Stats(); live >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no %d workers connected within %v", n, timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// resume recovers every unfinished instance the store already holds and
// drives those still running to completion: what a promoted standby does
// with its primary's run, and what `run` and `serve` do with an interrupted
// earlier run on the same -store before they start anything new.
func resume(rb *core.RuntimeBase, timeout time.Duration) error {
	recovered, recErr := rb.Engine().Recover()
	if recErr != nil {
		// Partial recovery still serves what it could rebuild.
		fmt.Fprintf(os.Stderr, "bioopera: recovery: %v\n", recErr)
	}
	if recovered == 0 {
		return nil
	}
	fmt.Printf("recovered %d unfinished instance(s)\n", recovered)
	for _, in := range rb.Engine().Instances() {
		// A suspended instance stays suspended; one that already finished
		// during recovery is still reported.
		if st, _, err := rb.InstanceStatus(in.ID); err != nil || st == core.InstanceSuspended {
			continue
		}
		done, err := rb.Wait(in.ID, timeout)
		if err != nil {
			return err
		}
		if err := report(done); err != nil {
			return err
		}
	}
	return nil
}

// cmdWorker runs a worker agent: it registers its CPUs with a server and
// executes launched activities with the same stub programs `run` uses,
// until the server connection ends.
func cmdWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	connect := fs.String("connect", "127.0.0.1:7070", "server address")
	name := fs.String("name", "", "worker name (default: host-pid)")
	cpus := fs.Int("cpus", 2, "CPU slots to offer")
	verbose := fs.Bool("v", false, "trace activity invocations and protocol")
	file, err := fileThenFlags(fs, args, "usage: bioopera worker <file.ocr> [flags]")
	if err != nil {
		return err
	}
	ps, err := loadFile(file)
	if err != nil {
		return err
	}
	if *name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	var logf func(string, ...any)
	if *verbose {
		logf = func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
	}
	a, err := remote.Dial(*connect, remote.AgentConfig{
		Name:    *name,
		CPUs:    *cpus,
		Library: stubLibrary(ps, *verbose),
		Logf:    logf,
	})
	if err != nil {
		return err
	}
	defer a.Close()
	fmt.Printf("worker %s: %d CPUs registered with %s (incarnation %d)\n",
		*name, *cpus, *connect, a.Incarnation())
	a.Wait()
	fmt.Printf("worker %s: server connection closed\n", *name)
	return nil
}
