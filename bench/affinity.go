package main

import (
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// The benchmark runs on Linux only (it also reads /proc): this file is not
// behind a build constraint because the repository's lint loader type-checks
// every file of a package together.

// cpuMask is a sched_setaffinity mask of up to 1024 CPUs.
type cpuMask [16]uint64

func getAffinity(tid int) (cpuMask, bool) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	return m, errno == 0
}

// setAffinityAll gives every thread of the process the mask; threads started
// later inherit it from the thread that starts them.
func setAffinityAll(m cpuMask) bool {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return false
	}
	ok := false
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
		ok = ok || errno == 0
	}
	return ok
}

// pinToOneCPU binds every thread of the process to the highest-numbered CPU
// it may run on and returns that CPU (-1 when the process could not be
// pinned) and a function that restores the previous mask.
//
// GOMAXPROCS(1) alone leaves the kernel free to spread the runtime's threads
// (the P moves between Ms around every blocking fsync or socket call) over
// both vCPUs, and on the sandbox it does so in episodes: for tens of seconds
// every hand-off becomes a cross-CPU wake-up of a halted vCPU, whose cost is
// the hypervisor's. disk_chains, 1000 chains, identical code: 430-790 ms per
// repetition pinned; unpinned the same 440-490 ms for a while and then
// 1000-2100 ms (system time 3-7x, involuntary switches 5100 -> 30), three
// sets out of three.
func pinToOneCPU() (cpu int, restore func()) {
	old, ok := getAffinity(0)
	if !ok {
		return -1, func() {}
	}
	cpu = -1
	for i := len(old)*64 - 1; i >= 0; i-- {
		if old[i/64]&(1<<(i%64)) != 0 {
			cpu = i
			break
		}
	}
	if cpu < 0 {
		return -1, func() {}
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	// Twice: a thread started by a not-yet-pinned thread during the first
	// pass inherits the old mask and is caught by the second.
	if !setAffinityAll(one) || !setAffinityAll(one) {
		return -1, func() {}
	}
	return cpu, func() { setAffinityAll(old) }
}
