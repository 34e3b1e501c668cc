//go:build linux

package parallel

import "syscall"

// osYield lets another runnable thread of the host take this thread's
// core, if one is queued on it; otherwise it returns at once.
func osYield() {
	// sched_yield always succeeds on Linux, so there is no error to read.
	_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
}
