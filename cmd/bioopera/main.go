// Command bioopera is the BioOpera command-line interface: validate and
// format OCR process definitions, dry-run them on the local engine or the
// cluster simulator, and run the two built-in workloads (the all-vs-all of
// the paper's §4 and the tower of information of Fig. 1) for real.
//
// Usage:
//
//	bioopera validate <file.ocr>          check a process definition
//	bioopera fmt <file.ocr>               print the canonical form
//	bioopera info <file.ocr>              summarize tasks and flow
//	bioopera run <file.ocr> [flags]       dry-run with stub programs (real time)
//	bioopera simulate <file.ocr> [flags]  dry-run on the cluster simulator (virtual time)
//	bioopera allvsall [flags]             real all-vs-all on synthetic sequences
//	bioopera tower [flags]                real tower-of-information pipeline
//	bioopera serve <file.ocr> [flags]     engine server for remote worker agents
//	bioopera standby <file.ocr> [flags]   hot standby following a serve -ship primary
//	bioopera worker <file.ocr> [flags]    worker agent executing launched activities
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strings"
	"time"

	"bioopera"
	"bioopera/internal/cluster"
	"bioopera/internal/core"
	"bioopera/internal/obs"
	"bioopera/internal/ocr"
	"bioopera/internal/store"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "validate":
		err = cmdValidate(os.Args[2:])
	case "fmt":
		err = cmdFmt(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "simulate":
		err = cmdSimulate(os.Args[2:])
	case "allvsall":
		err = cmdAllVsAll(os.Args[2:])
	case "tower":
		err = cmdTower(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "standby":
		err = cmdStandby(os.Args[2:])
	case "worker":
		err = cmdWorker(os.Args[2:])
	case "gateway":
		err = cmdGateway(os.Args[2:])
	case "fed":
		err = cmdFed(os.Args[2:])
	case "history":
		err = cmdHistory(os.Args[2:])
	case "records":
		err = cmdRecords(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "bioopera: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bioopera:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: bioopera <command> [arguments]

commands:
  validate <file.ocr>          check a process definition
  fmt <file.ocr>               print the canonical form
  info <file.ocr>              summarize tasks and control flow
  run <file.ocr> [flags]       dry-run with stub programs (local, real time)
  simulate <file.ocr> [flags]  dry-run on the cluster simulator (virtual time)
  allvsall [flags]             run a real all-vs-all on synthetic sequences
  tower [flags]                run the real tower-of-information pipeline
  serve <file.ocr> [flags]     run the engine as a server for remote workers
  standby <file.ocr> [flags]   follow a serve -ship primary; promote on failure
  worker <file.ocr> [flags]    run a worker agent against a serve instance
  gateway [flags]              route client RPCs to a federation of servers
  fed [file.ocr] [flags]       federation in a box: N servers + gateway demo
  history <store-dir> [flags]  inspect a persistent store: past runs, events
  records <store-dir> [flags]  decode and pretty-print persist records

run and simulate accept -store <dir> to persist templates, state and
history to disk (inspect them later with the history command).
serve -fed NAME [-join ADDR]  runs serve as a federation member instead;
point a gateway at the members and start instances through it.
`)
}

func loadFile(path string) ([]*ocr.Process, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ocr.ParseFile(string(data))
}

func cmdValidate(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: bioopera validate <file.ocr>")
	}
	ps, err := loadFile(args[0])
	if err != nil {
		return err
	}
	byName := map[string]*ocr.Process{}
	for _, p := range ps {
		byName[p.Name] = p
	}
	resolve := func(name string) (*ocr.Process, bool) {
		p, ok := byName[name]
		return p, ok
	}
	for _, p := range ps {
		if err := p.ValidateWithTemplates(resolve); err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		fmt.Printf("%s: OK (%d tasks, %d connectors)\n", p.Name, len(p.Tasks), len(p.Connectors))
	}
	return nil
}

func cmdFmt(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: bioopera fmt <file.ocr>")
	}
	ps, err := loadFile(args[0])
	if err != nil {
		return err
	}
	for i, p := range ps {
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(ocr.Format(p))
	}
	return nil
}

func cmdInfo(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: bioopera info <file.ocr>")
	}
	ps, err := loadFile(args[0])
	if err != nil {
		return err
	}
	for _, p := range ps {
		fmt.Printf("PROCESS %s", p.Name)
		if p.Doc != "" {
			fmt.Printf(" — %s", p.Doc)
		}
		fmt.Println()
		if len(p.Inputs) > 0 {
			fmt.Printf("  inputs:  %s\n", strings.Join(p.Inputs, ", "))
		}
		if len(p.Outputs) > 0 {
			fmt.Printf("  outputs: %s\n", strings.Join(p.Outputs, ", "))
		}
		for _, t := range p.Tasks {
			switch t.Kind {
			case ocr.KindActivity:
				fmt.Printf("  ACTIVITY   %-22s calls %s\n", t.Name, t.Program)
			case ocr.KindBlock:
				mode := "block"
				if t.Parallel {
					mode = fmt.Sprintf("parallel over %s", t.Over)
				}
				fmt.Printf("  BLOCK      %-22s %s, %d inner tasks\n", t.Name, mode, len(t.Body.Tasks))
			case ocr.KindSubprocess:
				fmt.Printf("  SUBPROCESS %-22s uses %q\n", t.Name, t.Uses)
			}
		}
		for _, c := range p.Connectors {
			if c.Cond != nil {
				fmt.Printf("  %s -> %s IF %s\n", c.From, c.To, c.Cond)
			} else {
				fmt.Printf("  %s -> %s\n", c.From, c.To)
			}
		}
	}
	return nil
}

// registerAll registers every process of a parsed file with rb's engine,
// stopping at the first refusal.
func registerAll(rb *core.RuntimeBase, ps []*ocr.Process) error {
	var regErr error
	rb.Do(func(e *core.Engine) {
		for _, p := range ps {
			if regErr = e.RegisterTemplate(p); regErr != nil {
				return
			}
		}
	})
	return regErr
}

// waitInterrupt blocks until the process receives an interrupt (Ctrl-C).
func waitInterrupt() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
}

// stubLibrary registers an identity program for every CALL in the file so
// any process can be dry-run: outputs are null (or echo same-named args).
func stubLibrary(ps []*ocr.Process, verbose bool) *core.Library {
	lib := core.NewLibrary()
	var walk func(p *ocr.Process)
	walk = func(p *ocr.Process) {
		for _, t := range p.Tasks {
			if t.Kind == ocr.KindActivity && t.Program != "" {
				name := t.Program
				outs := append([]string(nil), t.Outs...)
				lib.Register(core.Program{
					Name: name,
					Run: func(ctx core.ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
						if verbose {
							fmt.Printf("  [%s] %s(%s)\n", ctx.Task, name, fmtArgs(args))
						}
						out := map[string]ocr.Value{}
						for _, o := range outs {
							if v, ok := args[o]; ok {
								out[o] = v // echo same-named inputs
							} else {
								out[o] = ocr.Str("stub:" + o)
							}
						}
						return out, nil
					},
				})
			}
			if t.Body != nil {
				walk(t.Body)
			}
		}
	}
	for _, p := range ps {
		walk(p)
	}
	return lib
}

func fmtArgs(args map[string]ocr.Value) string {
	keys := make([]string, 0, len(args))
	for k := range args {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + args[k].String()
	}
	return strings.Join(parts, ", ")
}

// parseInputs converts -input k=v pairs (v parsed as an OCR expression
// when possible, else taken as a string).
func parseInputs(kvs []string) (map[string]ocr.Value, error) {
	inputs := map[string]ocr.Value{}
	for _, kv := range kvs {
		eq := strings.IndexByte(kv, '=')
		if eq < 0 {
			return nil, fmt.Errorf("bad -input %q, want name=value", kv)
		}
		k, raw := kv[:eq], kv[eq+1:]
		if e, err := ocr.ParseExpr(raw); err == nil {
			if v, err := e.Eval(ocr.MapEnv{}); err == nil {
				inputs[k] = v
				continue
			}
		}
		inputs[k] = ocr.Str(raw)
	}
	return inputs, nil
}

// startArgs resolves what run/simulate/serve start: the named template
// (default: first in file) and its -input values. Every declared INPUT must
// be given — a missing one would otherwise surface mid-run as a null deep
// inside the process.
func startArgs(ps []*ocr.Process, template string, inputFlags []string) (string, map[string]ocr.Value, error) {
	if template == "" {
		template = ps[0].Name
	}
	inputs, err := parseInputs(inputFlags)
	if err != nil {
		return "", nil, err
	}
	for _, p := range ps {
		if p.Name != template {
			continue
		}
		for _, name := range p.Inputs {
			if _, ok := inputs[name]; !ok {
				return "", nil, fmt.Errorf("missing -input %s (declared INPUT of %s)", name, p.Name)
			}
		}
	}
	return template, inputs, nil
}

// fileThenFlags splits "FILE [flags]" argument lists so flags may follow
// the positional file argument.
func fileThenFlags(fs *flag.FlagSet, args []string, usage string) (string, error) {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return "", fmt.Errorf("%s", usage)
	}
	file := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return "", err
	}
	if fs.NArg() != 0 {
		return "", fmt.Errorf("%s", usage)
	}
	return file, nil
}

type repeated []string

func (r *repeated) String() string     { return strings.Join(*r, ",") }
func (r *repeated) Set(s string) error { *r = append(*r, s); return nil }

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	template := fs.String("template", "", "process to start (default: first in file)")
	var inputFlags repeated
	fs.Var(&inputFlags, "input", "process input as name=value (repeatable)")
	verbose := fs.Bool("v", false, "trace activity invocations")
	workers := fs.Int("workers", 4, "local worker pool size")
	nInstances := fs.Int("n", 1, "concurrent instances to start (same template and inputs)")
	timeout := fs.Duration("timeout", time.Minute, "completion timeout")
	storeDir := fs.String("store", "", "persist state and history to this directory")
	file, err := fileThenFlags(fs, args, "usage: bioopera run <file.ocr> [flags]")
	if err != nil {
		return err
	}
	ps, err := loadFile(file)
	if err != nil {
		return err
	}
	tpl, inputs, err := startArgs(ps, *template, inputFlags)
	if err != nil {
		return err
	}
	st, err := openStore(*storeDir)
	if err != nil {
		return err
	}
	defer st.Close()
	rt, err := core.NewLocalRuntime(core.LocalConfig{
		Workers: *workers,
		Library: stubLibrary(ps, *verbose),
		Store:   st,
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
	if err := resume(&rt.RuntimeBase, *timeout); err != nil {
		return err
	}
	if *nInstances <= 1 {
		id, err := rt.StartProcess(tpl, inputs, core.StartOptions{})
		if err != nil {
			return err
		}
		in, err := rt.Wait(id, *timeout)
		if err != nil {
			return err
		}
		return report(in)
	}
	// -n: start every instance before waiting on any, so the engine
	// navigates them concurrently across the worker pool.
	started := time.Now()
	ids := make([]string, *nInstances)
	for i := range ids {
		if ids[i], err = rt.StartProcess(tpl, inputs, core.StartOptions{}); err != nil {
			return err
		}
	}
	var firstErr error
	activities := 0
	for _, id := range ids {
		in, err := rt.Wait(id, *timeout)
		if err != nil {
			return err
		}
		activities += in.Activities
		if err := report(in); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	elapsed := time.Since(started)
	fmt.Printf("%d instances, %d activities in %v (%.0f activities/s)\n",
		len(ids), activities, elapsed.Round(time.Millisecond),
		float64(activities)/elapsed.Seconds())
	return firstErr
}

func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	template := fs.String("template", "", "process to start (default: first in file)")
	var inputFlags repeated
	fs.Var(&inputFlags, "input", "process input as name=value (repeatable)")
	seed := fs.Int64("seed", 1, "simulation seed")
	clusterName := fs.String("cluster", "ik-linux", "cluster spec: ik-sun, ik-linux, linneus, shared")
	storeDir := fs.String("store", "", "persist state and history to this directory")
	file, err := fileThenFlags(fs, args, "usage: bioopera simulate <file.ocr> [flags]")
	if err != nil {
		return err
	}
	ps, err := loadFile(file)
	if err != nil {
		return err
	}
	tpl, inputs, err := startArgs(ps, *template, inputFlags)
	if err != nil {
		return err
	}
	spec, err := specByName(*clusterName)
	if err != nil {
		return err
	}
	st, err := openStore(*storeDir)
	if err != nil {
		return err
	}
	defer st.Close()
	rt, err := core.NewSimRuntime(core.SimConfig{
		Seed:    *seed,
		Spec:    spec,
		Library: stubLibrary(ps, false),
		Store:   st,
	})
	if err != nil {
		return err
	}
	for _, p := range ps {
		if err := rt.Engine.RegisterTemplate(p); err != nil {
			return err
		}
	}
	id, err := rt.Engine.StartProcess(tpl, inputs, core.StartOptions{})
	if err != nil {
		return err
	}
	end := rt.Run()
	in, _ := rt.Engine.Instance(id)
	fmt.Printf("virtual time: %v on %s (%d CPUs)\n", time.Duration(end), spec.Name, spec.TotalCPUs())
	return report(in)
}

func specByName(name string) (cluster.Spec, error) {
	switch name {
	case "ik-sun":
		return cluster.IkSun(), nil
	case "ik-linux":
		return cluster.IkLinux(), nil
	case "linneus":
		return cluster.Linneus(), nil
	case "shared":
		return cluster.SharedRunSpec(), nil
	}
	return cluster.Spec{}, fmt.Errorf("unknown cluster %q", name)
}

func report(in *core.Instance) error {
	fmt.Printf("instance %s: %s\n", in.ID, in.Status)
	fmt.Printf("  activities: %d, CPU: %v, failures: %d\n", in.Activities, in.CPU.Round(time.Millisecond), in.Failures)
	keys := make([]string, 0, len(in.Outputs))
	for k := range in.Outputs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := in.Outputs[k].String()
		if len(v) > 120 {
			v = v[:117] + "..."
		}
		fmt.Printf("  output %s = %s\n", k, v)
	}
	if in.Status != core.InstanceDone {
		return fmt.Errorf("process %s: %s", in.Status, in.FailureReason)
	}
	return nil
}

func cmdAllVsAll(args []string) error {
	fs := flag.NewFlagSet("allvsall", flag.ExitOnError)
	n := fs.Int("n", 40, "dataset size (synthetic sequences)")
	meanLen := fs.Int("len", 120, "mean sequence length")
	teus := fs.Int("teus", 8, "task execution units")
	seed := fs.Int64("seed", 7, "dataset seed")
	workers := fs.Int("workers", 4, "local worker pool size")
	top := fs.Int("top", 15, "matches to print")
	fs.Parse(args)

	ds := bioopera.GenerateDataset(bioopera.GenOptions{
		N: *n, MeanLen: *meanLen, Seed: *seed, FamilyFraction: 0.5,
	})
	cfg := &bioopera.AllVsAllConfig{Dataset: ds}
	lib := bioopera.NewLibrary()
	if err := bioopera.RegisterAllVsAll(lib, cfg); err != nil {
		return err
	}
	rt, err := bioopera.NewLocalRuntime(bioopera.LocalConfig{Workers: *workers, Library: lib})
	if err != nil {
		return err
	}
	defer rt.Close()
	if err := rt.RegisterTemplateSource(bioopera.AllVsAllSource); err != nil {
		return err
	}
	fmt.Printf("all-vs-all: %d sequences (%d residues), %d TEUs, %d workers\n",
		ds.Len(), ds.TotalResidues(), *teus, *workers)
	start := time.Now()
	id, err := rt.StartProcess(bioopera.AllVsAllTemplate, cfg.Inputs(*teus), bioopera.StartOptions{})
	if err != nil {
		return err
	}
	in, err := rt.Wait(id, 10*time.Minute)
	if err != nil {
		return err
	}
	if in.Status != bioopera.InstanceDone {
		return fmt.Errorf("process %s: %s", in.Status, in.FailureReason)
	}
	ms, err := bioopera.DecodeMatches(in.Outputs["master_file"])
	if err != nil {
		return err
	}
	fmt.Printf("completed in %v: %d matches, %d activities\n\n", time.Since(start).Round(time.Millisecond), len(ms), in.Activities)
	fmt.Printf("%8s %8s %10s %8s %9s %7s\n", "entry A", "entry B", "score", "PAM", "identity", "length")
	for i, m := range ms {
		if i == *top {
			fmt.Printf("... and %d more\n", len(ms)-*top)
			break
		}
		fmt.Printf("%8d %8d %10.1f %8.0f %8.0f%% %7d\n", m.A, m.B, m.Score, m.PAM, 100*m.Identity, m.Length)
	}
	return nil
}

func cmdTower(args []string) error {
	fs := flag.NewFlagSet("tower", flag.ExitOnError)
	genes := fs.Int("genes", 5, "planted genes in the synthetic genome")
	seed := fs.Int64("seed", 11, "genome seed")
	workers := fs.Int("workers", 4, "local worker pool size")
	fs.Parse(args)

	dna, planted := bioopera.GenerateGenome(*genes, *seed)
	lib := bioopera.NewLibrary()
	if err := bioopera.RegisterTower(lib); err != nil {
		return err
	}
	rt, err := bioopera.NewLocalRuntime(bioopera.LocalConfig{Workers: *workers, Library: lib})
	if err != nil {
		return err
	}
	defer rt.Close()
	if err := rt.RegisterTemplateSource(bioopera.TowerSource); err != nil {
		return err
	}
	fmt.Printf("tower of information: genome of %d bases, %d planted genes\n", len(dna), len(planted))
	start := time.Now()
	id, err := rt.StartProcess(bioopera.TowerTemplate, bioopera.TowerInputs(dna, 30, 60), bioopera.StartOptions{})
	if err != nil {
		return err
	}
	in, err := rt.Wait(id, 10*time.Minute)
	if err != nil {
		return err
	}
	if in.Status != bioopera.InstanceDone {
		return fmt.Errorf("process %s: %s", in.Status, in.FailureReason)
	}
	proteins, _ := bioopera.StrList(in.Outputs["proteins"])
	preds, _ := bioopera.StrList(in.Outputs["predictions"])
	fmt.Printf("completed in %v (%d activities)\n\n", time.Since(start).Round(time.Millisecond), in.Activities)
	fmt.Printf("proteins found: %d\n", len(proteins))
	for i, p := range proteins {
		show := p
		if len(show) > 60 {
			show = show[:57] + "..."
		}
		fmt.Printf("  %2d: %s (%d aa)\n", i, show, len(p))
		if i < len(preds) {
			ss := preds[i]
			if len(ss) > 60 {
				ss = ss[:57] + "..."
			}
			fmt.Printf("      %s\n", ss)
		}
	}
	fmt.Printf("\nphylogenetic tree: %s\n", in.Outputs["tree"].AsStr())
	anc := in.Outputs["ancestor"].AsStr()
	fmt.Printf("ancestral sequence (%d aa): %s\n", len(anc), trunc(anc, 70))
	return nil
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}

// openStore returns a disk store when dir is set, else an in-memory one.
func openStore(dir string) (store.Store, error) { return openStoreWith(dir, nil) }

// openStoreWith additionally registers the disk store's gauges and WAL
// histograms on reg when both a directory and a registry are given.
func openStoreWith(dir string, reg *obs.Registry) (store.Store, error) {
	if dir == "" {
		return store.NewMem(), nil
	}
	return store.OpenDisk(dir, store.DiskOptions{Metrics: reg})
}

// historyInstance is the subset of the engine's archived instance record
// the CLI renders.
type historyInstance struct {
	ID         string               `json:"id"`
	Template   string               `json:"template"`
	Status     core.InstanceStatus  `json:"status"`
	Started    time.Duration        `json:"started"`
	Ended      time.Duration        `json:"ended"`
	Activities int                  `json:"activities"`
	CPU        time.Duration        `json:"cpu"`
	Failures   int                  `json:"failures"`
	Outputs    map[string]ocr.Value `json:"outputs"`
	Reason     string               `json:"failureReason"`
}

func cmdHistory(args []string) error {
	fs := flag.NewFlagSet("history", flag.ExitOnError)
	events := fs.Bool("events", false, "print the event journal too")
	instance := fs.String("instance", "", "only this instance's records and events")
	last := fs.Int("last", 0, "only the last n journal events (implies -events)")
	stats := fs.Bool("stats", false, "print store statistics (records, WAL, snapshots)")
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return fmt.Errorf("usage: bioopera history <store-dir> [-events] [-instance id] [-last n] [-stats]")
	}
	dir := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if *last > 0 {
		*events = true
	}
	st, err := store.OpenDisk(dir, store.DiskOptions{})
	if err != nil {
		return err
	}
	defer st.Close()

	tpls, err := st.List(store.Template)
	if err != nil {
		return err
	}
	// The template space also holds the version records (proc/<hash>), one
	// per process text a template or block body has had; list the names.
	tpls = slices.DeleteFunc(tpls, func(kv store.KV) bool { return strings.HasPrefix(kv.Key, "proc/") })
	if len(tpls) > 0 {
		fmt.Printf("templates (%d):\n", len(tpls))
		for _, kv := range tpls {
			fmt.Printf("  %s\n", kv.Key)
		}
	}

	render := func(space store.Space, title string) error {
		kvs, err := st.List(space)
		if err != nil {
			return err
		}
		var insts []historyInstance
		for _, kv := range kvs {
			if !strings.HasPrefix(kv.Key, "inst/") {
				continue
			}
			m, err := core.DecodeInstanceMeta(kv.Value)
			if err != nil {
				continue
			}
			if *instance != "" && m.ID != *instance {
				continue
			}
			insts = append(insts, historyInstance{
				ID: m.ID, Template: m.Template, Status: m.Status,
				Started: time.Duration(m.Started), Ended: time.Duration(m.Ended),
				Activities: m.Activities, CPU: m.CPU, Failures: m.Failures,
				Outputs: m.Outputs, Reason: m.FailureReason,
			})
		}
		if len(insts) == 0 {
			return nil
		}
		fmt.Printf("%s (%d):\n", title, len(insts))
		for _, h := range insts {
			wall := h.Ended - h.Started
			fmt.Printf("  %s  %-10s %-9s wall %-12s cpu %-12s activities %-5d failures %d\n",
				h.ID, h.Template, h.Status, wall.Round(time.Millisecond), h.CPU.Round(time.Millisecond),
				h.Activities, h.Failures)
			if h.Reason != "" {
				fmt.Printf("      reason: %s\n", h.Reason)
			}
			keys := make([]string, 0, len(h.Outputs))
			for k := range h.Outputs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				v := h.Outputs[k].String()
				if len(v) > 90 {
					v = v[:87] + "..."
				}
				fmt.Printf("      %s = %s\n", k, v)
			}
		}
		return nil
	}
	if err := render(store.Instance, "unfinished instances"); err != nil {
		return err
	}
	if err := render(store.History, "completed instances"); err != nil {
		return err
	}

	if *stats {
		ds := st.Stats()
		fmt.Println("store statistics:")
		spaces := make([]string, 0, len(ds.Records))
		for sp := range ds.Records {
			spaces = append(spaces, sp)
		}
		sort.Strings(spaces)
		for _, sp := range spaces {
			fmt.Printf("  records %-14s %d\n", sp, ds.Records[sp])
		}
		fmt.Printf("  events             %d (last seq %d)\n", ds.Events, ds.EventSeq)
		fmt.Printf("  wal segments       %d (next seq %d, %d syncs)\n", ds.WALSegments, ds.WALNextSeq, ds.WALSyncs)
		fmt.Printf("  snapshot seq       %d\n", ds.SnapshotSeq)
		fmt.Printf("  wal since base     %d of %d bytes (%d failed compactions)\n", ds.WALBytesSinceBase, ds.WALCompactAt, ds.SnapshotFailures)
		fmt.Printf("  commit groups      %d (%d grouped records)\n", ds.CommitGroups, ds.GroupedRecords)
		fmt.Printf("  image bytes        %d live, %d dead (%d compactions)\n", ds.ImageLive, ds.ImageDead, ds.ImageCompactions)
		poisoned := "no"
		if ds.WALPoisoned != nil {
			poisoned = ds.WALPoisoned.Error()
		}
		fmt.Printf("  wal poisoned       %s\n", poisoned)
	}

	if *events {
		// Events streams from the journal one record at a time, so a long
		// history never accumulates in memory here.
		from := uint64(1)
		if *last > 0 {
			if seq := st.Stats().EventSeq; seq > uint64(*last) {
				from = seq - uint64(*last) + 1
			}
		}
		fmt.Println("event journal:")
		return st.Events(from, func(e store.Event) error {
			ev, err := core.DecodeEvent(e.Data)
			if err != nil {
				// Shown under -instance too: it may be one of that
				// instance's, and a damaged journal must not pass unseen.
				fmt.Printf("  %6d undecodable record (%d bytes): %v\n", e.Seq, len(e.Data), err)
				return nil
			}
			if *instance != "" && ev.Instance != *instance {
				return nil
			}
			fmt.Printf("  %6d %12s %-20s %s %s %s %s %s\n",
				e.Seq, time.Duration(ev.At).Round(time.Millisecond), ev.Kind,
				ev.Instance, ev.Scope, ev.Task, ev.Node, ev.Detail)
			return nil
		})
	}
	return nil
}
