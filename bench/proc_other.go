//go:build !unix

package main

import "time"

// rusage has no portable source here: proc.cpu_util and
// proc.peak_rss_mb read 0.
func rusage() (cpu time.Duration, maxRSSKB int64) { return 0, 0 }
