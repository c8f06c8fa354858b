package experiments

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"

	"bioopera/internal/cluster"
	"bioopera/internal/core"
	"bioopera/internal/sim"
)

// A scenario is the script of disturbances a run survives, as data: one
// event a line, `<time> <verb> [<argument>…] ["<label>"]`, and # comments.
// The time is in days ("2.5d") or a Go duration ("90s") and never precedes
// the line before. Lines at time 0 run as the scenario is scheduled, before
// the run starts; the rest at their time, in file order. A label makes the
// line one of the run's annotated events. verbs gives each verb's arguments:
// n names nodes — * for all, a range of the cluster's node list (":12",
// "4:", "2:5") or names joined by commas — f is a number, i a count and d a
// Go duration.
var verbs = map[string]string{
	"suspend":       "",     // Suspend, letting running jobs finish
	"stop":          "",     // Suspend, killing them
	"resume":        "",     // Resume
	"load":          "nf",   // competing users take a share of each node
	"crash-nodes":   "n",    // nodes fail with their jobs
	"restore-nodes": "n",    // and come back
	"set-cpus":      "ni",   // nodes get that many processors
	"loadgen":       "ddff", // users come and go: mean idle, mean burst, least and most share
	"server-stop":   "",     // maintenance: PauseAll, then Crash
	"server-start":  "",     // ResumeAll, then Recover
	"server-crash":  "",     // Crash, then Recover
	"kill":          "i",    // kill n running jobs, in node order
	"what-if":       "n",    // the impact of taking nodes offline
}

// scenario is a parsed scenario scheduled on a runtime, and what its run
// has produced so far.
type scenario struct {
	rt     *core.SimRuntime
	out    io.Writer
	id     string           // the instance suspend, stop and resume act on
	events []LifecycleEvent // the labelled lines that ran, in order
	err    error            // what stopped the run, naming the line
}

// step is a parsed line; x holds its number arguments by position.
type step struct {
	at                 sim.Time
	day                float64
	where, verb, label string
	nodes              []string
	x                  []float64
}

// RunScenario schedules the scenario src, named name in errors, on rt,
// starts the instance its verbs act on, and runs the simulation; after every
// line it calls Engine.Check, and a verb's error or a violation stops the
// run. It returns the instance, done, and the labelled lines that ran. out,
// when non-nil, gets each labelled line's label and what its verb reports
// (the what-if numbers, the recovered count) as it runs.
func RunScenario(rt *core.SimRuntime, name, src string, out io.Writer, start func() (string, error)) (*core.Instance, []LifecycleEvent, error) {
	s, err := schedule(rt, name, src, out)
	if err == nil {
		s.id, err = start()
	}
	if err != nil {
		return nil, nil, err
	}
	rt.Run()
	in, ok := rt.Engine.Instance(s.id)
	switch {
	case s.err != nil:
	case !ok:
		s.err = fmt.Errorf("instance %s lost", s.id)
	case in.Status != core.InstanceDone:
		s.err = fmt.Errorf("instance %s %s (%s)", s.id, in.Status, in.FailureReason)
	}
	return in, s.events, s.err
}

// schedule parses src and schedules it on rt. Lines at time 0 run at once.
func schedule(rt *core.SimRuntime, name, src string, out io.Writer) (*scenario, error) {
	s := &scenario{rt: rt, out: out}
	var steps []step
	for i, line := range strings.Split(src, "\n") {
		if line = strings.TrimSpace(line); line == "" || line[0] == '#' {
			continue
		}
		st, err := s.parse(line)
		if err == nil && len(steps) > 0 && st.at < steps[len(steps)-1].at {
			err = errors.New("its time is before the previous line's")
		}
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", name, i+1, err)
		}
		st.where = fmt.Sprintf("%s:%d: %s", name, i+1, line)
		steps = append(steps, st)
	}
	for _, st := range steps {
		if st.at == 0 {
			s.run(st)
		} else {
			rt.Sim.At(st.at, func(sim.Time) { s.run(st) })
		}
	}
	return s, s.err
}

// run runs one line and checks the engine; the first error stops the run.
func (s *scenario) run(st step) {
	if s.err != nil {
		return
	}
	note, err := s.do(st)
	if vs := s.rt.Engine.Check(); err == nil && len(vs) > 0 {
		err = fmt.Errorf("engine check: %v", vs)
	}
	if err != nil {
		s.err = fmt.Errorf("%s: %w", st.where, err)
		s.rt.Sim.Stop()
	} else if st.label != "" {
		s.events = append(s.events, LifecycleEvent{Day: st.day, Label: st.label})
		if s.out != nil {
			fmt.Fprintf(s.out, "%s%s\n", st.label, note)
		}
	}
}

// parse reads one line, resolving its nodes against the cluster's.
func (s *scenario) parse(line string) (st step, err error) {
	text, label, labelled := strings.Cut(line, `"`)
	var closed bool
	if st.label, closed = strings.CutSuffix(label, `"`); labelled != closed || strings.Contains(st.label, `"`) {
		return st, errors.New("a label is one quoted string at the end of the line")
	}
	f := strings.Fields(text)
	if len(f) < 2 {
		return st, errors.New(`want <time> <verb> [<argument>…] ["<label>"]`)
	}
	if d, days := strings.CutSuffix(f[0], "d"); days {
		st.day, err = strconv.ParseFloat(d, 64)
		st.at = day(st.day)
	} else {
		var dur time.Duration
		dur, err = time.ParseDuration(f[0])
		st.at, st.day = sim.Time(dur), dur.Hours()/24
	}
	if err != nil || st.at < 0 {
		return st, fmt.Errorf("unparsable time %q: want days (2.5d) or a duration (90s)", f[0])
	}
	kinds, ok := verbs[f[1]]
	if st.verb, f = f[1], f[2:]; !ok {
		return st, fmt.Errorf("unknown verb %q", st.verb)
	} else if len(f) != len(kinds) {
		return st, fmt.Errorf("%s takes %d arguments, not %d", st.verb, len(kinds), len(f))
	}
	st.x = make([]float64, len(f))
	for i, arg := range f {
		if kinds[i] == 'n' {
			st.nodes, err = s.nodes(arg)
		} else {
			st.x[i], err = numbers[kinds[i]](arg)
		}
		if err != nil {
			return st, fmt.Errorf("%s argument %q: %w", st.verb, arg, err)
		}
	}
	return st, nil
}

// numbers parse the arguments that are not nodes, by kind.
var numbers = map[byte]func(string) (float64, error){
	'f': func(s string) (float64, error) { return strconv.ParseFloat(s, 64) },
	'i': func(s string) (float64, error) { n, err := strconv.ParseUint(s, 10, 31); return float64(n), err },
	'd': func(s string) (float64, error) { d, err := time.ParseDuration(s); return float64(d), err },
}

// nodes resolves a node argument.
func (s *scenario) nodes(arg string) ([]string, error) {
	var all []string
	for _, v := range s.rt.Cluster.Nodes() {
		all = append(all, v.Name)
	}
	lo, hi, isRange := strings.Cut(arg, ":")
	if arg == "*" {
		return all, nil
	} else if !isRange {
		names := strings.Split(arg, ",")
		for _, n := range names {
			if !slices.Contains(all, n) {
				return nil, fmt.Errorf("no node %q in the cluster", n)
			}
		}
		return names, nil
	}
	i, err1 := strconv.Atoi(cmp.Or(lo, "0"))
	j, err2 := strconv.Atoi(cmp.Or(hi, strconv.Itoa(len(all))))
	if err1 != nil || err2 != nil || i < 0 || i > j || j > len(all) {
		return nil, fmt.Errorf("not a range of the cluster's %d nodes", len(all))
	}
	return all[i:j], nil
}

// do runs a line's verb; the note follows its label on the output.
func (s *scenario) do(st step) (note string, err error) {
	e, c := s.rt.Engine, s.rt.Cluster
	for _, n := range st.nodes {
		switch st.verb {
		case "load":
			err = c.SetExternalLoad(n, st.x[1])
		case "crash-nodes":
			err = c.CrashNode(n)
		case "restore-nodes":
			err = c.RestoreNode(n)
		case "set-cpus":
			err = c.SetCPUs(n, int(st.x[1]))
		}
		if err != nil {
			return "", err
		}
	}
	switch st.verb {
	case "suspend", "stop":
		err = e.Suspend(s.id, st.verb == "suspend")
	case "resume":
		err = e.Resume(s.id)
	case "loadgen":
		cluster.NewLoadGen(c, cluster.LoadGenConfig{MeanIdle: time.Duration(st.x[0]),
			MeanBurst: time.Duration(st.x[1]), LevelLo: st.x[2], LevelHi: st.x[3]})
	case "server-stop":
		e.PauseAll()
		e.Crash()
	case "server-start":
		e.ResumeAll()
		_, err = e.Recover()
	case "server-crash":
		e.Crash()
		var n int
		n, err = e.Recover()
		note = fmt.Sprintf(" — recovered %d instance(s) from the store", n)
	case "kill":
		left := int(st.x[0])
		for _, v := range c.Nodes() {
			jobs := c.RunningOn(v.Name)
			for _, j := range jobs[:min(left, len(jobs))] {
				left--
				if err := c.Kill(j, v.Name); err != nil {
					return "", err
				}
			}
		}
	case "what-if":
		im := e.WhatIf(st.nodes)
		note = fmt.Sprintf(": %d running jobs to reschedule, %d CPUs remain, %d stranded",
			len(im.Jobs), im.RemainingCPUs, len(im.Stranded))
	}
	return note, err
}
