// Package benchsuite holds the measurement statistics and machine capture
// that the repo benchmark (perfbench/, see perfbench/README.md) records:
// order statistics with sample stddev and CV over repeated runs, and the
// environment the runs were measured on.
//
// The package reads no wall clock: callers time their own runs and pass
// the samples in, so simlint R2 covers it like any simulation package.
package benchsuite

import (
	"runtime"
	"runtime/debug"
)

// Machine captures the environment a record was measured on, so records
// from different machines can be told apart.
type Machine struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GCPercent  int    `json:"gc_percent"`
}

// CaptureMachine records the current process environment.
func CaptureMachine() Machine {
	// debug.SetGCPercent is the only read API for the effective GOGC;
	// set-and-restore is the stdlib-sanctioned idiom.
	gc := debug.SetGCPercent(100)
	debug.SetGCPercent(gc)
	return Machine{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GCPercent:  gc,
	}
}
