package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuSet is a sched_setaffinity(2) mask of up to 1024 CPUs.
type cpuSet [16]uint64

// pinToOneCPU runs the whole process, client and server alike, on one
// CPU with one P. On a shared VM each hand-off between threads on two
// vCPUs waits for the hypervisor to wake the other vCPU, and how long
// that takes moves from run to run; on one CPU a request's hand-offs
// stay on one running thread. It pins the highest CPU the process may
// use, and every thread, repeating until no new thread appears: threads
// started later inherit the mask of the thread that starts them.
func pinToOneCPU() error {
	var allowed cpuSet
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); e != 0 {
		return fmt.Errorf("sched_getaffinity: %w", e)
	}
	var one cpuSet
	for cpu := len(allowed)*64 - 1; cpu >= 0; cpu-- {
		if allowed[cpu/64]&(1<<(cpu%64)) != 0 {
			one[cpu/64] = 1 << (cpu % 64)
			break
		}
	}
	runtime.GOMAXPROCS(1)
	pinned := make(map[int]bool)
	for {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		fresh := false
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil || pinned[tid] {
				continue
			}
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); e != 0 && e != syscall.ESRCH {
				return fmt.Errorf("sched_setaffinity on thread %d: %w", tid, e)
			}
			pinned[tid], fresh = true, true
		}
		if !fresh {
			return nil
		}
	}
}
