package core

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"bioopera/internal/ocr"
	"bioopera/internal/sim"
	"bioopera/internal/store"
	"bioopera/internal/wal"
)

// The crash enumeration's laboratory: a small restart_recover on a Disk store
// over a crashFS. crashLab instances of Chain8 start on the test cluster's
// four slots, every crashSuspendEvery-th is suspended, and the rest run until
// each is crashMinSteps deep; then the server crashes. Every restart resumes
// the first suspended instance, so its stub's hydration is among the crash
// points too. Segments of crashSegment bytes make the restart rotate the log
// and compact it.
const (
	crashDir          = "/lab"
	crashLab          = 12
	crashSuspendEvery = 4
	crashMinSteps     = 2
	crashSegment      = 3 << 10
)

// chain8NextSrc replaces Chain8 once the laboratory's instances have
// started, and every restart registers it instead of Chain8's first text: the
// instances recover the definition they started with from the template
// space's version records alone. An instance that finished on this one would
// end with r = "const", not its input.
const chain8NextSrc = `PROCESS Chain8 { INPUT x; OUTPUT r; ACTIVITY S1 { CALL test.constant(); OUT out; MAP out -> r; } }`

// crashTears lists the reboots of one crash point whose latest write was n
// bytes: the synced state (0), then the write torn inside its first frame's
// length, inside its checksum, at its half and one byte short.
func crashTears(n int) []int {
	tears := []int{0, 2, 6, n / 2, n - 1}
	slices.Sort(tears)
	return slices.Compact(tears)
}

// crashWorld is the laboratory the restart comes back to.
type crashWorld struct {
	image   *crashFS          // the store as the crashed server left it
	journal int               // the records its journal holds
	x       map[string]string // instance → its input, which is its output r
	live    map[string]bool   // the instances that were running
	resumed string            // the suspended instance every restart resumes
}

// openCrashDisk opens the laboratory's store on fs.
func openCrashDisk(fs *crashFS) (*store.Disk, error) {
	return store.OpenDisk(crashDir, store.DiskOptions{FS: fs, SegmentSize: crashSegment})
}

// buildCrashWorld runs the laboratory up to its crash.
func buildCrashWorld(t *testing.T) *crashWorld {
	t.Helper()
	fs := newCrashFS()
	disk, err := openCrashDisk(fs)
	if err != nil {
		t.Fatal(err)
	}
	rt := newRuntime(t, SimConfig{Store: disk})
	register(t, rt, chain8Src)
	w := &crashWorld{x: map[string]string{}, live: map[string]bool{}}
	for i := 0; i < crashLab; i++ {
		x := fmt.Sprintf("x%02d", i)
		id := start(t, rt, "Chain8", map[string]ocr.Value{"x": ocr.Str(x)})
		w.x[id] = x
		if i%crashSuspendEvery == crashSuspendEvery-1 {
			if err := rt.Engine.Suspend(id, false); err != nil {
				t.Fatal(err)
			}
			if w.resumed == "" {
				w.resumed = id
			}
		} else {
			w.live[id] = true
		}
	}
	register(t, rt, chain8NextSrc)
	for deep := false; !deep; {
		rt.RunUntil(rt.Sim.Now().Add(sim.Duration(time.Second)))
		deep = true
		for id := range w.live {
			in, _ := rt.Engine.Instance(id)
			if in.Status != InstanceRunning {
				t.Fatalf("instance %s is %s before the crash", id, in.Status)
			}
			deep = deep && in.Activities >= crashMinSteps
		}
	}
	rt.Engine.Crash()
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	w.image, _ = fs.reboot(0)
	if disk, err = openCrashDisk(w.image); err != nil {
		t.Fatal(err)
	}
	w.journal = len(storeJournal(t, disk))
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	return w
}

// crashRun is one restart of the laboratory: its store, its runtime, and
// what it told the world.
type crashRun struct {
	disk       *store.Disk
	rt         *SimRuntime
	dispatched []string // instance/scope/task of every task-dispatched event, in order
	launched   []string // instance/scope/task of every job launched, in order
	done       []string // the instances OnInstanceDone reported
	failed     error    // the first asynchronous engine error
	broken     []string // what Check found after Recover and after the drain, and what archives broke
	archives   *archiveCheck
}

// check notes what Check finds in the run's engine at step.
func (r *crashRun) check(step string) {
	for _, v := range r.rt.Engine.Check() {
		r.broken = append(r.broken, fmt.Sprintf("%s: instance %q breaks %s: %s", step, v.Instance, v.Rule, v.Detail))
	}
}

// launchLog is an executor that notes each job it launches while the
// machine lives: what the model runs after the crash, the dead machine
// never did.
type launchLog struct {
	Executor
	fs    *crashFS
	tasks *[]string
}

func (l launchLog) Launch(x Launch) error {
	if !l.fs.dead() {
		// Chain8's tasks are all in the root scope.
		*l.tasks = append(*l.tasks, x.Ctx.Instance+"/-/"+x.Ctx.Task)
	}
	return l.Executor.Launch(x)
}

// restartLab opens the store on fs, boots, registers Chain8's replacement, recovers,
// resumes the instance resume unless an earlier restart's Resume committed,
// and drains. It stops at the first failure: on a file system that has
// crashed, everything fails from then on. The caller closes the store. What
// the restart's archives hand the store is checked (archiveCheck): a
// violation breaks the run.
func restartLab(t *testing.T, fs *crashFS, resume string) (*crashRun, error) {
	t.Helper()
	r := &crashRun{}
	var err error
	if r.disk, err = openCrashDisk(fs); err != nil {
		return nil, err
	}
	r.archives = &archiveCheck{Store: r.disk}
	defer func() { r.broken = append(r.broken, r.archives.violations...) }()
	opts := Options{
		OnEvent: func(ev Event) {
			if ev.Kind == EvTaskDispatched {
				r.dispatched = append(r.dispatched, ev.Instance+"/"+nzScope(ev.Scope)+"/"+ev.Task)
			}
		},
		OnInstanceDone: func(in *Instance) {
			if !fs.dead() {
				r.done = append(r.done, in.ID)
			}
		},
		OnError: func(err error) {
			if r.failed == nil {
				r.failed = err
			}
			if r.rt != nil {
				r.rt.Sim.Stop()
			}
		},
	}
	if r.rt, err = NewSimRuntime(SimConfig{Seed: 1, Spec: testSpec(), Store: r.archives, Library: testLibrary(t), Options: opts}); err == nil {
		r.rt.Engine.opts.Executor = launchLog{r.rt.Engine.opts.Executor, fs, &r.launched}
		if err = r.rt.Engine.RegisterTemplateSource(chain8NextSrc); err == nil {
			_, err = r.rt.Engine.Recover()
			r.check("recovered")
		}
	}
	if status, _, serr := r.rt.Engine.InstanceState(resume); err == nil && r.failed == nil && serr == nil && status == InstanceSuspended {
		err = r.rt.Engine.Resume(resume)
		r.check("resumed")
	}
	if err == nil && r.failed == nil {
		r.rt.Run()
		r.rt.Engine.QuiesceCheckpoints()
		r.check("drained")
	}
	if err == nil {
		err = r.failed
	}
	return r, err
}

// storeJournal reads the store's journal records.
func storeJournal(t *testing.T, st store.Store) (recs [][]byte) {
	t.Helper()
	if err := st.Events(1, func(ev store.Event) error {
		if ev.Seq != uint64(len(recs)+1) {
			return fmt.Errorf("journal record %d follows %d", ev.Seq, len(recs))
		}
		recs = append(recs, bytes.Clone(ev.Data))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// endedTasks lists the tasks whose committed record says they ended, as
// instance/scope/task.
func endedTasks(t *testing.T, st store.Store) map[string]bool {
	t.Helper()
	ended := map[string]bool{}
	for _, space := range []store.Space{store.Instance, store.History} {
		kvs, err := st.List(space)
		if err != nil {
			t.Fatal(err)
		}
		for _, kv := range kvs {
			rest, ok := strings.CutPrefix(kv.Key, "task/")
			if !ok {
				continue
			}
			var ts taskState
			if err := decodeTaskRecord(kv.Value, &ts); err != nil {
				t.Fatal(err)
			}
			if ts.Status == TaskEnded {
				ended[rest] = true
			}
		}
	}
	return ended
}

// checkDurable: no job of run launched before its dispatch record was
// durable, and no instance was reported done before its archive was.
func checkDurable(t *testing.T, w *crashWorld, run *crashRun, st store.Store, journal [][]byte) error {
	t.Helper()
	records := map[string]int{}
	for _, rec := range journal[w.journal:] {
		ev, err := DecodeEvent(rec)
		if err != nil {
			return err
		}
		if ev.Kind == EvTaskDispatched {
			records[ev.Instance+"/"+nzScope(ev.Scope)+"/"+ev.Task]++
		}
	}
	for _, task := range run.launched {
		if records[task]--; records[task] < 0 {
			return fmt.Errorf("%s was launched before its dispatch record was durable", task)
		}
	}
	for _, id := range run.done {
		if _, ok, err := st.Get(store.History, metaKey(id)); err != nil || !ok {
			return fmt.Errorf("%s was reported done before its archive was durable (%v)", id, err)
		}
	}
	return nil
}

// checkLogFiles: the log's directory holds the segments the log reads and
// the base it starts from, and nothing else.
func checkLogFiles(fs *crashFS, disk *store.Disk) error {
	st := disk.Stats()
	segs := 0
	for _, name := range fs.entries(filepath.Join(crashDir, "wal")) {
		switch {
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			segs++
		case name == fmt.Sprintf("snap-%020d.snap", st.SnapshotSeq) && st.SnapshotSeq > 0:
		default:
			return fmt.Errorf("the log's directory holds %s, which the log does not name (base %d)", name, st.SnapshotSeq)
		}
	}
	if segs != st.WALSegments {
		return fmt.Errorf("the log's directory holds %d segments, the log reads %d", segs, st.WALSegments)
	}
	return nil
}

// checkAfterCrash reopens the store the crash of run left and checks what the
// restart promises: the store opens (or refuses by name); its journal is a
// prefix of the fault-free run's; it holds the dispatch record of every job
// run launched and the archive of every instance run reported done; its
// directory holds only the log's files; and a recovery from it finishes
// every running instance with its right output, leaves the suspended ones
// suspended and runs no activity again whose completion was durable. It
// reports whether the store opened.
func checkAfterCrash(t *testing.T, w *crashWorld, run *crashRun, img *crashFS, want [][]byte) (opened bool, err error) {
	t.Helper()
	disk, err := openCrashDisk(img)
	if err != nil {
		if errors.Is(err, wal.ErrCorrupt) {
			return false, nil
		}
		return false, fmt.Errorf("OpenDisk refused without a named error: %w", err)
	}
	journal := storeJournal(t, disk)
	if len(journal) > len(want) {
		return true, errors.Join(fmt.Errorf("the journal holds %d records, the fault-free run's %d", len(journal), len(want)), disk.Close())
	}
	for i, rec := range journal {
		if !bytes.Equal(rec, want[i]) {
			return true, errors.Join(fmt.Errorf("journal record %d differs from the fault-free run's", i+1), disk.Close())
		}
	}
	ended := endedTasks(t, disk)
	err = errors.Join(checkDurable(t, w, run, disk, journal), checkLogFiles(img, disk))
	if err := errors.Join(err, disk.Close()); err != nil {
		return true, err
	}

	r, err := restartLab(t, img, w.resumed)
	if r != nil {
		defer r.disk.Close()
	}
	if err != nil {
		return true, fmt.Errorf("restart: %w", err)
	}
	if len(r.broken) > 0 {
		return true, fmt.Errorf("restart: %s", strings.Join(r.broken, "; "))
	}
	for _, task := range r.dispatched {
		if ended[task] {
			return true, fmt.Errorf("%s ran again, though its completion was durable", task)
		}
	}
	for id, x := range w.x {
		status, outputs, err := r.rt.Engine.InstanceState(id)
		if err != nil {
			meta, ok, gerr := r.disk.Get(store.History, metaKey(id))
			if gerr != nil || !ok {
				return true, fmt.Errorf("instance %s is gone: %v", id, gerr)
			}
			m, derr := DecodeInstanceMeta(meta)
			if derr != nil {
				return true, derr
			}
			status, outputs = m.Status, m.Outputs
		}
		runs := w.live[id] || id == w.resumed
		switch {
		case !runs && status != InstanceSuspended:
			return true, fmt.Errorf("suspended instance %s is %s", id, status)
		case runs && (status != InstanceDone || outputs["r"].AsStr() != x):
			return true, fmt.Errorf("instance %s is %s with r = %v, want done with %q", id, status, outputs["r"], x)
		}
	}
	return true, nil
}

// TestCrashEnumerationRestartRecover crashes the restart of a small
// restart_recover after every file-system call it makes — opening the store,
// registering, recovering, each turn's commit, each rotation and each
// compaction of the log — and then again at every write that had not been
// synced, torn at each of crashTears. Each crash leaves only what was synced;
// the store reopened from it must keep every promise checkAfterCrash names.
func TestCrashEnumerationRestartRecover(t *testing.T) {
	began := time.Now()
	w := buildCrashWorld(t)

	fault, _ := w.image.reboot(0)
	r, err := restartLab(t, fault, w.resumed)
	if err == nil {
		err = r.disk.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(r.broken) > 0 {
		t.Fatal(strings.Join(r.broken, "\n"))
	}
	points := fault.calls
	// The enumeration covers compaction, and the rotations before it, only
	// if the fault-free restart compacts.
	if names := fault.entries(filepath.Join(crashDir, "wal")); !strings.HasPrefix(names[0], "snap-") {
		t.Fatalf("the fault-free restart left %v: no compaction to crash in", names)
	}
	reopened, err := openCrashDisk(fault)
	if err != nil {
		t.Fatal(err)
	}
	want := storeJournal(t, reopened)
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
	if len(r.dispatched) == 0 {
		t.Fatal("the fault-free restart dispatched nothing")
	}

	crashes, torn, refused := 0, 0, 0
	for k := 1; k <= points; k++ {
		fs, _ := w.image.reboot(0)
		fs.crashAt = k
		run, err := restartLab(t, fs, w.resumed)
		if run == nil {
			// The store did not open: the crash came first.
			run = &crashRun{}
		} else {
			run.disk.Close()
		}
		if !fs.crashed {
			t.Fatalf("crash point %d of %d: the restart made only %d calls (%v)", k, points, fs.calls, err)
		}
		if len(run.broken) > 0 {
			t.Fatalf("crash point %d of %d: %s", k, points, strings.Join(run.broken, "; "))
		}
		for _, tear := range crashTears(fs.last.n) {
			img, ok := fs.reboot(tear)
			if !ok {
				continue
			}
			opened, err := checkAfterCrash(t, w, run, img, want)
			if err != nil {
				t.Fatalf("crash after call %d of %d (torn to %d bytes): %v", k, points, tear, err)
			}
			if tear == 0 {
				crashes++
			} else {
				torn++
			}
			if !opened {
				refused++
			}
		}
	}
	t.Logf("%d crash points and %d torn writes in %v (%d refused by name)", crashes, torn, time.Since(began).Round(time.Millisecond), refused)
}

// TestRestartSyncsPerActivity: a recovered activity costs one commit, not
// four. The laboratory's restart drains ten Chain8 instances, nine running
// and one resumed, through four slots, so a completion's freed slot goes to
// another instance's job: the job's dispatch commits with the completion
// (one batch, not two), and the simulated cluster's job-start and job-end
// records ride those batches instead of committing alone. The log's fsyncs
// per activity the restart drained stay at most 1.3 — opening, registering
// and recovering included.
func TestRestartSyncsPerActivity(t *testing.T) {
	w := buildCrashWorld(t)
	fs, _ := w.image.reboot(0)
	r, err := restartLab(t, fs, w.resumed)
	if err != nil {
		t.Fatal(err)
	}
	defer r.disk.Close()
	for id := range w.x {
		if in, _ := r.rt.Engine.Instance(id); (w.live[id] || id == w.resumed) && in.Status != InstanceDone {
			t.Fatalf("instance %s is %s after the restart", id, in.Status)
		}
	}
	// Every job the restart dispatched ran one activity to its end.
	syncs, activities := r.disk.WALSyncs(), len(r.dispatched)
	per := float64(syncs) / float64(activities)
	if per > 1.3 {
		t.Errorf("%d fsyncs for %d activities: %.2f per activity, want at most 1.3", syncs, activities, per)
	}
	t.Logf("%d fsyncs for %d activities: %.2f per activity", syncs, activities, per)
}
