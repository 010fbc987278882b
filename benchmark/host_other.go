//go:build !linux

package main

import "time"

var processStart = time.Now()

// cpuSeconds falls back to wall time where rusage is not read.
func cpuSeconds() float64 { return time.Since(processStart).Seconds() }

func peakRSSMB() float64 { return 0 }

func fsType(string) string { return "unknown" }

func cpuModel() string { return "unknown" }
