// Command perfbench is the repository benchmark: it runs one workload for a
// fixed time, checks every operation's output, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics) as one JSON line.
//
// It drives the simulator and the live daemons only through their public
// packages, so it measures what a user of those packages gets. See
// README.md for the workloads, the metrics and the layer each one watches.
//
//	bash perfbench/run.sh --workload wire_cell --seed 3 --seconds 10 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"

	"cosched/internal/benchsuite"
	"cosched/internal/metrics"
)

// buildDir holds everything a run writes: journals and span files.
const buildDir = ".bench_build"

// Metric names and units. endToEnd is what a user of the system sees;
// perLayer is what the traced run reads at each layer boundary. Every
// workload reports every metric; a layer a workload does not exercise
// reports 0.
var (
	endToEnd = []metricDef{
		{"setup_s", "s"},
		{"sim_jobs_per_s", "1/s"},
		{"peak_rss_mb", "MB"},
		{"costart_p50_ms", "ms"},
	}
	// costart_p99_ms is a per-layer metric although a user sees it: a
	// load_sweep run holds too few operations, and a live_pair run too few
	// co-started pairs, for it to repeat within any allowed bound (see
	// README.md).
	perLayer = append([]metricDef{
		{"costart_p99_ms", "ms"},
		{"workload.gen_s", "s"},
		{"parallel.speedup", "x"},
		{"parallel.efficiency", "ratio"},
		{"sim.events", "count"},
		{"sim.events_per_s", "1/s"},
		{"resmgr.iterations", "count"},
		{"resmgr.skip_ratio", "ratio"},
		{"resmgr.holds", "count"},
		{"resmgr.yields", "count"},
		{"resmgr.releases", "count"},
		{"cosched.peer_calls", "count"},
	}, append(peerMethodMetrics(), []metricDef{
		{"cosched.peer_calls_per_pair", "ratio"},
		{"cosched.peer_call_s", "s"},
		{"proto.rtt_p50_us", "us"},
		{"proto.rtt_p99_us", "us"},
		{"proto.bytes_per_call", "B"},
		{"peerlink.calls", "count"},
		{"peerlink.retries", "count"},
		{"peerlink.transport_errors", "count"},
		{"peerlink.fast_fails", "count"},
		{"peerlink.trips", "count"},
		{"journal.appends", "count"},
		{"journal.fsyncs", "count"},
		{"journal.fsyncs_per_pair", "ratio"},
		{"journal.fsync_s", "s"},
		{"journal.write_bytes", "B"},
		{"journal.compacts", "count"},
		{"live.admin_rtt_us", "us"},
		{"live.late_pairs", "count"},
		{"live.split_pairs", "count"},
		{"live.agreed_pairs", "count"},
		{"mem.allocs_per_job", "count"},
		{"mem.bytes_per_job", "B"},
		{"trace.overhead", "ratio"},
	}...)...)
)

type metricDef struct{ name, unit string }

func peerMethodMetrics() []metricDef {
	defs := make([]metricDef, len(peerMethods))
	for i, m := range peerMethods {
		defs[i] = metricDef{"cosched.peer_calls." + m, "count"}
	}
	return defs
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(rc runConfig) (*outcome, error){
	"load_sweep": runLoadSweep,
	"long_cell":  runLongCell,
	"wire_cell":  runWireCell,
	"live_pair":  runLivePair,
	"live_hold":  runLiveHold,
}

// sizes scales the workloads; the benchmark runs paperSizes, the self-test
// a quick size of the same shapes.
type sizes struct {
	factor   float64 // sweep and wire-cell trace scale (1.0 = paper scale)
	longJobs int     // Intrepid jobs in the long cell
}

var paperSizes = sizes{factor: paperScale, longJobs: longCellJobs}

// runConfig is one run's settings.
type runConfig struct {
	workload string
	seed     uint64
	budget   time.Duration
	trace    bool
	size     sizes
	// want holds the recorded output digest of each of the workload's
	// instances for this seed, or is nil when none is recorded; the run
	// then checks its operations against each other and against the
	// workload's own oracle.
	want []string
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int
	correct           bool
	problems          []string
	values            map[string]float64
}

func newOutcome() *outcome { return &outcome{correct: true, values: make(map[string]float64)} }

// fail records a failed operation; wrong marks its output incorrect too.
func (o *outcome) fail(wrong bool, format string, args ...any) {
	o.failed++
	if wrong {
		o.correct = false
	}
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

//go:embed digests.json
var digestsJSON []byte

// recordedDigests returns the digests recorded for workload at seed, one
// per instance, or nil.
func recordedDigests(workload string, seed uint64) ([]string, error) {
	var all map[string]map[string][]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return all[workload][strconv.FormatUint(seed, 10)], nil
}

func main() {
	name := flag.String("workload", "", "workload: load_sweep, long_cell, wire_cell, live_pair or live_hold")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	printDigest := flag.Bool("print-digests", false, "print the workload's output digests for -seed as JSON and exit")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload load_sweep|long_cell|wire_cell|live_pair|live_hold --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if *printDigest {
		d, err := outputDigests(*name, *seed, paperSizes)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(d)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		return
	}
	want, err := recordedDigests(*name, *seed)
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fatal(err)
	}
	m := benchsuite.CaptureMachine()
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d, %ds, trace %d; %s/%s, %d CPUs, GOMAXPROCS %d, %s, GOGC %d\n",
		*name, *seed, *seconds, *trace, m.GOOS, m.GOARCH, m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.GCPercent)
	if want == nil && *name != "live_pair" && *name != "live_hold" {
		fmt.Fprintf(os.Stderr, "perfbench: no digest recorded for seed %d; checking operations against each other\n", *seed)
	}
	out, err := run(runConfig{
		workload: *name, seed: *seed, budget: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, size: paperSizes, want: want,
	})
	if err != nil {
		fatal(err)
	}
	out.values["peak_rss_mb"] = peakRSSMB()
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s\n", p)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	res, err := out.result(defs)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// result selects defs from the outcome's values. An end-to-end metric a
// workload did not produce is a bug in the benchmark; a per-layer metric
// it did not produce is a layer the workload leaves idle, reported as 0.
func (o *outcome) result(defs []metricDef) (*result, error) {
	if o.attempted < 1 {
		return nil, fmt.Errorf("no operation ran")
	}
	res := &result{Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok && isEndToEnd(d.name) {
			return nil, fmt.Errorf("workload did not measure %s", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

func isEndToEnd(name string) bool {
	for _, d := range endToEnd {
		if d.name == name {
			return true
		}
	}
	return false
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median is the middle of values, by metrics.Summarize.
func median(values []float64) float64 { return metrics.Summarize(values).Median }

// measure runs op back to back until budget has elapsed, at least once,
// and returns each call's wall time in seconds. With settle, every call
// starts, untimed, from a collected heap returned to the OS, so each
// operation meets the same heap and the same resident set as the last.
func measure(budget time.Duration, settle bool, op func() error) ([]float64, error) {
	var samples []float64
	start := time.Now()
	for len(samples) == 0 || time.Since(start) < budget {
		if settle {
			debug.FreeOSMemory()
		}
		t := time.Now()
		if err := op(); err != nil {
			return samples, err
		}
		samples = append(samples, time.Since(t).Seconds())
	}
	return samples, nil
}

// setUp runs build at least minReps times and until half a second has
// passed, and returns the median wall time in seconds: one set-up is too
// short to time steadily. discard, when set, releases the previous
// build's result, untimed, before the next build; every build starts from a
// collected heap.
func setUp(minReps int, build func() error, discard func()) (float64, error) {
	var samples []float64
	start := time.Now()
	for len(samples) < minReps || time.Since(start) < 500*time.Millisecond {
		if discard != nil && len(samples) > 0 {
			discard()
		}
		debug.FreeOSMemory()
		t := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		samples = append(samples, time.Since(t).Seconds())
	}
	return median(samples), nil
}
