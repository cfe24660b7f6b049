package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"cosched/internal/coupled"
	"cosched/internal/job"
	"cosched/internal/sim"
	"cosched/internal/trace"
	"cosched/internal/workload"
)

// streamRSSBudgetRatio is how much the large streaming run's peak RSS may
// exceed the small run's. The large trace is 10x longer; a materialized
// path multiplies its O(trace) term by 10, while the streamed path adds
// only noise (GC timing, allocator slack).
const streamRSSBudgetRatio = 1.35

// streamRSSResult is one streaming-RSS child's report.
type streamRSSResult struct {
	TotalJobs    int     `json:"total_jobs"`
	Completed    int     `json:"completed"`
	PeakRSSBytes int64   `json:"peak_rss_bytes"`
	Seconds      float64 `json:"seconds"`
}

// TestStreamingRSSFlat streams a 5x and a 50x repetition of one SWF month
// through trace.Stream → JobStream → SubmitTraceStream, each in a fresh
// child process (ru_maxrss is a high-water mark, so every measurement
// needs its own process). Every job must complete, and peak RSS must not
// track trace length.
func TestStreamingRSSFlat(t *testing.T) {
	run := func(reps int) streamRSSResult {
		t.Helper()
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), helperEnv+"=streamleg", helperRepsEnv+"="+strconv.Itoa(reps))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("stream child (%dx): %v", reps, err)
		}
		var res streamRSSResult
		if err := json.Unmarshal(out, &res); err != nil {
			t.Fatalf("stream child (%dx) output %q: %v", reps, out, err)
		}
		if res.Completed != res.TotalJobs {
			t.Fatalf("%dx stream: %d of %d jobs completed", reps, res.Completed, res.TotalJobs)
		}
		t.Logf("%dx: %d jobs, peak RSS %.2f MB, %.2fs", reps, res.TotalJobs, float64(res.PeakRSSBytes)/1e6, res.Seconds)
		return res
	}
	small, large := run(5), run(50)
	if small.PeakRSSBytes == 0 {
		t.Skip("peak RSS is not available on this platform")
	}
	if ratio := float64(large.PeakRSSBytes) / float64(small.PeakRSSBytes); ratio > streamRSSBudgetRatio {
		t.Fatalf("peak RSS grew %.2fx on a 10x longer trace (budget %.2fx): memory tracks trace length",
			ratio, streamRSSBudgetRatio)
	}
}

// runStreamRSSChild is the child body behind TestStreamingRSSFlat: write
// an SWF trace of reps offset copies of one base month incrementally
// (never holding more than one copy), stream it back through
// trace.Stream → JobStream → SubmitTraceStream, simulate, and report
// peak RSS as JSON on stdout.
func runStreamRSSChild(reps int) error {
	const (
		baseJobs = 3000
		nodes    = 100
		window   = 4096
	)
	spec := workload.EurekaSpec(7)
	spec.Jobs = baseJobs
	base, err := workload.Generate(spec)
	if err != nil {
		return err
	}
	if _, err := workload.ScaleToUtilization(base, nodes, 0.6); err != nil {
		return err
	}
	var maxSubmit sim.Time
	for _, j := range base {
		if j.SubmitTime > maxSubmit {
			maxSubmit = j.SubmitTime
		}
	}
	period := sim.Duration(maxSubmit) + sim.Hour

	dir, err := os.MkdirTemp("", "streamleg")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "trace.swf")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	hdr := trace.NewHeader()
	hdr.Set("Computer", "streamleg")
	hdr.Set("Note", fmt.Sprintf("%d x %d-job month", reps, len(base)))
	if err := trace.Write(f, hdr, nil); err != nil {
		return err
	}
	// One repetition in memory at a time: shift copies through a repeat
	// stream and flush each repetition's records before building the next.
	rs, err := workload.NewRepeatStream(base, reps, period, 0)
	if err != nil {
		return err
	}
	batch := make([]*job.Job, 0, len(base))
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := trace.Write(f, nil, trace.FromJobs(batch))
		batch = batch[:0]
		return err
	}
	for {
		j, err := rs.NextJob()
		if err != nil {
			break // io.EOF: RepeatStream yields no other error
		}
		batch = append(batch, j)
		if len(batch) == cap(batch) {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	fs, err := trace.OpenStream(path)
	if err != nil {
		return err
	}
	defer fs.Close()
	start := time.Now()
	s, err := coupled.New(coupled.Options{
		Domains: []coupled.DomainConfig{{
			Name: "stream", Nodes: nodes, Backfilling: true,
			TraceStream: trace.NewJobStream(fs.Stream), StreamWindow: window,
		}},
		Horizon: sim.Duration(reps+2) * 40 * sim.Day,
	})
	if err != nil {
		return err
	}
	res := s.Run()
	if err := s.Manager("stream").StreamErr(); err != nil {
		return err
	}
	out, err := json.Marshal(streamRSSResult{
		TotalJobs:    res.TotalJobs,
		Completed:    res.CompletedJobs,
		PeakRSSBytes: selfPeakRSSBytes(),
		Seconds:      time.Since(start).Seconds(),
	})
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(append(out, '\n'))
	return err
}

// selfPeakRSSBytes is this process's own peak RSS. A re-execed child
// cannot use ru_maxrss on Linux: os/exec spawns with vfork, so the child
// shares the parent's address space until exec, and exec folds that
// address space's high-water mark into the child's ru_maxrss. VmHWM
// belongs to the child's own address space. Elsewhere it falls back to
// ru_maxrss.
func selfPeakRSSBytes() int64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return peakRSSBytes()
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb int64
			if _, err := fmt.Sscanf(v, "%d kB", &kb); err == nil {
				return kb << 10
			}
		}
	}
	return peakRSSBytes()
}
