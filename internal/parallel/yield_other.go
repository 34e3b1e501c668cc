//go:build !linux

package parallel

// osYield is a no-op where the host offers no cheap yield of the thread:
// a waiting team member then yields only to goroutines (runtime.Gosched).
func osYield() {}
