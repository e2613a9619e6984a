//go:build unix

package main

import (
	"runtime"
	"syscall"
	"time"
)

// rusage returns the process's CPU time so far and its peak resident
// set in KiB.
func rusage() (cpu time.Duration, maxRSSKB int64) {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0, 0
	}
	maxRSSKB = int64(ru.Maxrss)
	if runtime.GOOS == "darwin" || runtime.GOOS == "ios" {
		maxRSSKB /= 1024 // reported in bytes there
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), maxRSSKB
}
