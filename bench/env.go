package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// environment is the block every result carries, so two result files can be
// told apart by where and how they were measured before their numbers are
// compared.
type environment struct {
	Commit     string         `json:"commit"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	PinnedCPU  int            `json:"pinned_cpu"` // -1: not pinned
	GoVersion  string         `json:"go_version"`
	Kernel     string         `json:"kernel"`
	StoreDir   string         `json:"store_dir"`
	StoreFS    string         `json:"store_fs"`
	Seed       int64          `json:"seed"`
	Reps       int            `json:"reps"`
	Sizes      map[string]int `json:"rep_sizes"`
	WallS      float64        `json:"wall_s"`
}

func readEnvironment(storeDir string) environment {
	return environment{
		Commit:     commitID(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     kernelRelease(),
		StoreDir:   storeDir,
		StoreFS:    fsType(storeDir),
	}
}

// commitID asks git, then the binary's embedded VCS stamp; the pipeline's
// checkouts are not repositories, so "unknown" is an expected answer.
func commitID() string {
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		if id := strings.TrimSpace(string(out)); id != "" {
			return id
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func kernelRelease() string {
	data, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return runtime.GOOS
	}
	return strings.TrimSpace(string(data))
}

// fsType names the filesystem dir lives on: the type of the longest mount
// point in /proc/self/mounts that is a prefix of dir.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, bestLen := "unknown", -1
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mp := fields[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > bestLen {
			best, bestLen = fields[2], len(mp)
		}
	}
	return best
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				kb, err := strconv.ParseFloat(fields[1], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// procUsage is the process-level cost of a phase: CPU time, page faults and
// (filled in from runtime.MemStats by phase.end) garbage collection.
type procUsage struct {
	userMS, sysMS float64
	minorFaults   float64
	gcCycles      float64
	gcPauseMS     float64
}

func readProcUsage() procUsage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return procUsage{}
	}
	ms := func(tv syscall.Timeval) float64 { return float64(tv.Sec)*1e3 + float64(tv.Usec)/1e3 }
	return procUsage{userMS: ms(ru.Utime), sysMS: ms(ru.Stime), minorFaults: float64(ru.Minflt)}
}

func (a procUsage) sub(b procUsage) procUsage {
	return procUsage{
		userMS: a.userMS - b.userMS, sysMS: a.sysMS - b.sysMS,
		minorFaults: a.minorFaults - b.minorFaults,
	}
}

// shmMinFree is the room /dev/shm must have before stores go there: a
// disk_chains repetition writes about 20 MiB of log beside restart_recover's
// image and its copy, and a container's default 64 MiB /dev/shm must not be
// mistaken for a place to put them.
const shmMinFree = 1 << 30

// workRoot creates the directory this run's stores live in. Store timings
// on a real device measure the device (fsync on virtio spread 15-30% between
// identical runs, tmpfs 7-9%), so the benchmark keeps the engine's flush
// policy, puts stores on tmpfs and counts fsyncs instead of timing them:
// /dev/shm when it is writable and roomy, else .bench_work under the working
// directory. -workdir overrides the choice. The environment block records
// the directory and its filesystem type.
func workRoot(flagDir string) (string, error) {
	if flagDir != "" {
		if err := os.MkdirAll(flagDir, 0o755); err != nil {
			return "", fmt.Errorf("work directory: %w", err)
		}
		return os.MkdirTemp(flagDir, "bioopera-bench-")
	}
	var fs syscall.Statfs_t
	if err := syscall.Statfs("/dev/shm", &fs); err == nil && fs.Bavail*uint64(fs.Bsize) >= shmMinFree {
		if dir, err := os.MkdirTemp("/dev/shm", "bioopera-bench-"); err == nil {
			return dir, nil
		}
	}
	if err := os.MkdirAll(".bench_work", 0o755); err != nil {
		return "", fmt.Errorf("work directory: %w", err)
	}
	return os.MkdirTemp(".bench_work", "bioopera-bench-")
}

// removeOnSignal deletes dir and exits when the process is interrupted or
// terminated, so a killed run leaves no store directory behind; the returned
// function cancels the watch on the normal exit path (which removes dir
// itself).
func removeOnSignal(dir string) (cancel func()) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-sig:
			os.RemoveAll(dir)
			os.Exit(130)
		case <-done:
		}
	}()
	return func() {
		signal.Stop(sig)
		close(done)
	}
}
