package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"cosched/internal/arena"
	"cosched/internal/benchsuite"
	"cosched/internal/experiments"
	"cosched/internal/job"
	"cosched/internal/journal"
	"cosched/internal/metrics"
	"cosched/internal/peerlink"
)

// memDelta measures the allocations op makes.
func memDelta(op func() error) (mallocs, bytes uint64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = op()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, err
}

// phases splits a run's budget: a traced run spends half of it untraced,
// for the tracing overhead, and half traced.
func phases(rc runConfig) (untraced, traced time.Duration) {
	if !rc.trace {
		return rc.budget, 0
	}
	return rc.budget / 2, rc.budget / 2
}

// setLatency reports the latency metrics from per-operation seconds and
// states on standard error how many samples they rest on.
func (o *outcome) setLatency(what string, seconds []float64) {
	s := metrics.Summarize(seconds)
	o.values["costart_p50_ms"] = s.Median * 1e3
	o.values["costart_p99_ms"] = s.P99 * 1e3
	st := benchsuite.Compute(seconds)
	beyond := len(seconds) / 100
	fmt.Fprintf(os.Stderr, "perfbench: %d %s: p50 %.4g ms, p95 %.4g ms, p99 %.4g ms (%d beyond it), cv %.1f%%\n",
		st.Runs, what, st.P50Seconds*1e3, st.P95Seconds*1e3, st.P99Seconds*1e3, beyond, st.CV*100)
	if beyond < 10 {
		fmt.Fprintf(os.Stderr, "perfbench: fewer than ten %s lie beyond p99; read it as the slowest, not as a tail percentile\n", what)
	}
}

// cellCounters are the exact counters of one simulated cell or sweep.
type cellCounters struct {
	events, iterations, skips uint64
	holds, yields, releases   uint64
	calls                     map[string]uint64
	pairs                     int // co-started pairs
}

func (c *cellCounters) add(run *cellRun, tr *tracer) {
	c.events += run.events
	c.iterations += run.iterations
	c.skips += run.skips
	c.pairs += run.res.Reports[experiments.DomIntrepid].PairedCount
	c.holds += tr.holds.Swap(0)
	c.yields += tr.yields.Swap(0)
	c.releases += tr.releases.Swap(0)
	if c.calls == nil {
		c.calls = make(map[string]uint64)
	}
	tr.calls.mu.Lock()
	for m, n := range tr.calls.calls {
		c.calls[m] += n
	}
	clear(tr.calls.calls)
	tr.calls.mu.Unlock()
}

func (c *cellCounters) equal(o *cellCounters) bool {
	if c.events != o.events || c.iterations != o.iterations || c.skips != o.skips ||
		c.holds != o.holds || c.yields != o.yields || c.releases != o.releases ||
		c.pairs != o.pairs || len(c.calls) != len(o.calls) {
		return false
	}
	for m, n := range c.calls {
		if o.calls[m] != n {
			return false
		}
	}
	return true
}

// report stores the counters as per-layer metrics.
func (c *cellCounters) report(o *outcome) {
	o.values["sim.events"] = float64(c.events)
	o.values["resmgr.iterations"] = float64(c.iterations)
	if c.iterations > 0 {
		o.values["resmgr.skip_ratio"] = float64(c.skips) / float64(c.iterations)
	}
	o.values["resmgr.holds"] = float64(c.holds)
	o.values["resmgr.yields"] = float64(c.yields)
	o.values["resmgr.releases"] = float64(c.releases)
	var total uint64
	for _, m := range peerMethods {
		o.values["cosched.peer_calls."+m] = float64(c.calls[m])
		total += c.calls[m]
	}
	o.values["cosched.peer_calls"] = float64(total)
	if c.pairs > 0 {
		o.values["cosched.peer_calls_per_pair"] = float64(total) / float64(c.pairs)
	}
}

// reportRTT stores the proto round-trip metrics recorded by tr.
func reportRTT(o *outcome, rtt []float64, bytes int64) {
	if len(rtt) == 0 {
		return
	}
	s := metrics.Summarize(rtt)
	o.values["proto.rtt_p50_us"] = s.Median * 1e6
	o.values["proto.rtt_p99_us"] = s.P99 * 1e6
	o.values["proto.bytes_per_call"] = float64(bytes) / float64(len(rtt))
}

// digestBook holds one reference output digest per workload instance: the
// recorded one, or else the first the run produces or its oracle gives.
type digestBook struct{ refs []string }

func newDigestBook(instances int, want []string) (*digestBook, error) {
	b := &digestBook{refs: make([]string, instances)}
	switch len(want) {
	case 0:
	case instances:
		copy(b.refs, want)
	default:
		return nil, fmt.Errorf("digests.json records %d digests for this seed, the workload has %d instances", len(want), instances)
	}
	return b, nil
}

// check compares one output of instance i with its reference; a mismatch
// fails the operation and makes the run's output incorrect.
func (b *digestBook) check(out *outcome, i int, d, what string) {
	switch {
	case b.refs[i] == "":
		b.refs[i] = d
	case d != b.refs[i]:
		out.fail(true, "%s, instance %d: output digest %s, want %s", what, i, d, b.refs[i])
	}
}

// cycle hands out instance numbers round-robin from 0.
type cycle struct{ next, n int }

func (c *cycle) take() int {
	i := c.next % c.n
	c.next++
	return i
}

// ratios returns a[k]/b[k] for every k both have.
func ratios(a, b []float64) []float64 {
	var r []float64
	for k := 0; k < len(a) && k < len(b); k++ {
		r = append(r, a[k]/b[k])
	}
	return r
}

// runLongCell is the long_cell workload: one HH cell of 200k Intrepid jobs.
func runLongCell(rc runConfig) (*outcome, error) {
	build := func() ([]tracePair, error) {
		p, err := longCellTraces(rc.seed, rc.size.longJobs)
		return []tracePair{p}, err
	}
	return runCellWorkload(rc, build, cellOptions{combo: experiments.Combos[0], cosched: true})
}

// runWireCell is the wire_cell workload: the proportion sweep's 33% point
// under HY, every peer call over proto on net.Pipe, cycling through the
// point's ten repetitions.
func runWireCell(rc runConfig) (*outcome, error) {
	build := func() ([]tracePair, error) { return wireCellInstances(rc.seed, rc.size.factor) }
	return runCellWorkload(rc, build, cellOptions{combo: experiments.Combos[1], cosched: true, wire: true})
}

// runCellWorkload generates the cells' traces in set-up, then simulates the
// cells back to back, checking each result against its instance's digest.
func runCellWorkload(rc runConfig, build func() ([]tracePair, error), opts cellOptions) (*outcome, error) {
	out := newOutcome()
	var pairs []tracePair
	gen, err := setUp(3, func() (err error) { pairs, err = build(); return err }, nil)
	if err != nil {
		return nil, err
	}
	out.values["setup_s"] = gen
	out.values["workload.gen_s"] = gen
	book, err := newDigestBook(len(pairs), rc.want)
	if err != nil {
		return nil, err
	}

	var buf arena.Arena[job.Job]
	counters := make([]*cellCounters, len(pairs)) // each instance's first counters
	check := func(i int, run *cellRun, what string) {
		out.attempted++
		res := run.res
		if res.StuckJobs > 0 || res.CoStartViolations > 0 {
			out.fail(true, "%s, instance %d: %d stuck jobs, %d co-start violations", what, i, res.StuckJobs, res.CoStartViolations)
			return
		}
		book.check(out, i, run.digest, what)
		c := &cellCounters{events: run.events, iterations: run.iterations, skips: run.skips}
		if counters[i] == nil {
			counters[i] = c
		} else if c.events != counters[i].events || c.iterations != counters[i].iterations || c.skips != counters[i].skips {
			out.fail(true, "%s, instance %d: counters %+v, earlier %+v", what, i, *c, *counters[i])
		}
	}
	if opts.wire {
		// The wire protocol must not change the simulation: the same cell
		// with direct peers is the oracle for every wired one.
		for i := range pairs {
			ref, err := runCell(&pairs[i], &buf, cellOptions{combo: opts.combo, cosched: true})
			if err != nil {
				return nil, err
			}
			check(i, ref, "direct-peer cell")
		}
	}

	untraced, traced := phases(rc)
	cyc := &cycle{n: len(pairs)}
	var rates, eventRates, allocs, bytes []float64
	op := func() error {
		i := cyc.take()
		var run *cellRun
		t := time.Now()
		m, b, err := memDelta(func() (err error) {
			run, err = runCell(&pairs[i], &buf, opts)
			return err
		})
		secs := time.Since(t).Seconds()
		if err != nil {
			return err
		}
		jobs := float64(pairs[i].jobs)
		rates = append(rates, jobs/secs)
		eventRates = append(eventRates, float64(run.events)/secs)
		allocs = append(allocs, float64(m)/jobs)
		bytes = append(bytes, float64(b)/jobs)
		check(i, run, "cell")
		return nil
	}
	if _, err := measure(0, true, op); err != nil { // warm-up: fills the arena
		return nil, err
	}
	*cyc = cycle{n: len(pairs)}
	rates, eventRates, allocs, bytes = nil, nil, nil, nil
	samples, err := measure(untraced, true, op)
	if err != nil {
		return nil, err
	}
	out.values["sim_jobs_per_s"] = median(rates)
	out.setLatency("cells", samples)
	out.values["sim.events_per_s"] = median(eventRates)
	out.values["mem.allocs_per_job"] = median(allocs)
	out.values["mem.bytes_per_job"] = median(bytes)
	if !rc.trace {
		return out, nil
	}

	// The traced half replays the untraced half's instance order, so each
	// traced operation has an untraced twin for the overhead.
	spans := newSpanLog()
	*cyc = cycle{n: len(pairs)}
	var first *cellCounters // instance 0's traced counters
	var callSeconds, rtt []float64
	var wireBytes int64
	tracedSamples, err := measure(traced, true, func() error {
		i := cyc.take()
		tr := newTracer(spans)
		o := opts
		o.tr = tr
		sp := spans.beginOp("coupled.Run")
		run, err := runCell(&pairs[i], &buf, o)
		spans.end(sp)
		if err != nil {
			return err
		}
		check(i, run, "traced cell")
		if i == 0 {
			c := &cellCounters{}
			c.add(run, tr)
			if first == nil {
				first = c
			} else if !c.equal(first) {
				out.fail(true, "traced counters of instance 0 differ between operations")
			}
		}
		callSeconds = append(callSeconds, tr.calls.total)
		rtt = append(rtt, tr.rtt.samples...)
		wireBytes += tr.wireBytes.Load()
		return nil
	})
	if err != nil {
		return nil, err
	}
	first.report(out)
	out.values["cosched.peer_call_s"] = median(callSeconds)
	reportRTT(out, rtt, wireBytes)
	out.values["trace.overhead"] = median(ratios(tracedSamples, samples)) - 1
	return out, spans.write(spanPath(rc.workload, rc.seed))
}

// runLoadSweep is the load_sweep workload: the Figures 3–6 sweep at paper
// scale on one worker per core, cycling through sweepInstances seeds.
func runLoadSweep(rc runConfig) (*outcome, error) {
	out := newOutcome()
	seeds := sweepSeeds(rc.seed)
	var traces [][]tracePair // per instance, the sweep's trace pair per load
	gen, err := setUp(3, func() error {
		traces = traces[:0]
		for _, s := range seeds {
			pairs, err := loadSweepTraces(s, rc.size.factor)
			if err != nil {
				return err
			}
			traces = append(traces, pairs)
		}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	out.values["setup_s"] = gen
	out.values["workload.gen_s"] = gen
	jobs := make([]float64, len(seeds)) // jobs one sweep simulates
	for i, pairs := range traces {
		for _, p := range pairs {
			jobs[i] += float64(p.jobs * (1 + len(experiments.Combos))) // the baseline and every combo
		}
	}
	book, err := newDigestBook(len(seeds), rc.want)
	if err != nil {
		return nil, err
	}

	w := workers()
	sweeps := make([]*experiments.LoadSweep, len(seeds))
	sweep := func(i, workers int, what string) error {
		s, d, err := runSweep(seeds[i], workers, rc.size.factor)
		if err != nil {
			return err
		}
		if err := checkSweepInputs(s, traces[i]); err != nil {
			return err
		}
		sweeps[i] = s
		out.attempted++
		book.check(out, i, d, what)
		return nil
	}
	cyc := &cycle{n: len(seeds)}
	var allocs, bytes []float64
	times := make([][]float64, len(seeds)) // seconds per sweep, per instance
	op := func() error {
		i := cyc.take()
		t := time.Now()
		m, b, err := memDelta(func() error { return sweep(i, w, "sweep") })
		secs := time.Since(t).Seconds()
		if err != nil {
			return err
		}
		times[i] = append(times[i], secs)
		allocs = append(allocs, float64(m)/jobs[i])
		bytes = append(bytes, float64(b)/jobs[i])
		return nil
	}
	if _, err := measure(0, true, op); err != nil { // warm-up
		return nil, err
	}
	*cyc = cycle{n: len(seeds)}
	allocs, bytes = nil, nil
	times = make([][]float64, len(seeds))
	untraced, traced := phases(rc)
	samples, err := measure(untraced, true, op)
	if err != nil {
		return nil, err
	}
	out.setLatency("sweeps", samples)
	// The instances differ in size, so the sweep times of a run form one
	// cluster per instance, and the median of them all falls in the gap
	// between two clusters, on one side or the other by chance. The
	// figures rest on each instance's own median instead.
	var swept, jobsSwept float64
	n := 0
	for i, t := range times {
		if len(t) > 0 {
			swept += median(t)
			jobsSwept += jobs[i]
			n++
		}
	}
	out.values["sim_jobs_per_s"] = jobsSwept / swept
	out.values["costart_p50_ms"] = swept / float64(n) * 1e3
	out.values["mem.allocs_per_job"] = median(allocs)
	out.values["mem.bytes_per_job"] = median(bytes)
	if !rc.trace {
		return out, nil
	}

	// Traced: each instance's sweep runs serially and in parallel in turn,
	// in the untraced half's instance order, so the speedup compares passes
	// made under the same conditions; their tables must match.
	spans := newSpanLog()
	*cyc = cycle{n: len(seeds)}
	var serial, parallel []float64
	_, err = measure(traced, true, func() error {
		i := cyc.take()
		for _, n := range []int{1, w} {
			sp := spans.beginOp(fmt.Sprintf("experiments.RunLoadSweep/workers=%d", n))
			t := time.Now()
			err := sweep(i, n, fmt.Sprintf("traced %d-worker sweep", n))
			secs := time.Since(t).Seconds()
			spans.end(sp)
			if err != nil {
				return err
			}
			if n == 1 {
				serial = append(serial, secs)
			} else {
				parallel = append(parallel, secs)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	speedup := median(ratios(serial, parallel))
	out.values["parallel.speedup"] = speedup
	out.values["parallel.efficiency"] = speedup / float64(w)
	out.values["trace.overhead"] = median(ratios(parallel, samples)) - 1

	// The sweep's cells hide their engines and managers, so the exact
	// counters come from instance 0's cells rebuilt from the same traces
	// with the benchmark's wrappers, checked cell by cell against the
	// sweep's own.
	tr := newTracer(spans)
	var c cellCounters
	var buf arena.Arena[job.Job]
	t := time.Now()
	for ui, util := range sweeps[0].Utils {
		for ci := -1; ci < len(experiments.Combos); ci++ {
			opts := cellOptions{tr: tr}
			if ci >= 0 {
				opts.combo, opts.cosched = experiments.Combos[ci], true
			}
			sp := spans.beginOp("coupled.Run/rebuilt")
			run, err := runCell(&traces[0][ui], &buf, opts)
			spans.end(sp)
			if err != nil {
				return nil, err
			}
			out.attempted++
			if ci >= 0 {
				if err := sameCell(sweeps[0].Cell(util, opts.combo), run); err != nil {
					out.fail(true, "rebuilt cell %.2f/%s: %v", util, opts.combo.Label(), err)
				}
			}
			c.add(run, tr)
		}
	}
	c.report(out)
	out.values["sim.events_per_s"] = float64(c.events) / time.Since(t).Seconds()
	out.values["cosched.peer_call_s"] = tr.calls.total
	return out, spans.write(spanPath(rc.workload, rc.seed))
}

// sameCell checks that a rebuilt cell reproduces the sweep's cell.
func sameCell(c *experiments.Cell, run *cellRun) error {
	ri := run.res.Reports[experiments.DomIntrepid]
	re := run.res.Reports[experiments.DomEureka]
	if c == nil {
		return fmt.Errorf("missing from the sweep")
	}
	//simlint:allow R5 both sides are the same float computation; byte identity is the contract
	if c.IntrepidWait != ri.Wait.Mean || c.EurekaWait != re.Wait.Mean ||
		c.IntrepidSync != ri.PairedSync.Mean || c.EurekaSync != re.PairedSync.Mean ||
		c.PairedJobs != ri.PairedCount {
		return fmt.Errorf("rebuilt cell differs from the sweep's")
	}
	return nil
}

// runLivePair is the live_pair workload: two daemons over loopback TCP and
// one closed-loop client co-submitting pairs back to back.
func runLivePair(rc runConfig) (*outcome, error) { return runLive(rc, false) }

// runLiveHold is the live_hold workload: the same daemons and client, with
// each pair's second half submitted once the first holds.
func runLiveHold(rc runConfig) (*outcome, error) { return runLive(rc, true) }

func runLive(rc runConfig, hold bool) (*outcome, error) {
	out := newOutcome()
	root, err := os.MkdirTemp(buildDir, "live-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	var p *daemonPair
	n := 0
	setup, err := setUp(3, func() (err error) {
		n++
		p, err = startPair(filepath.Join(root, fmt.Sprint("setup-", n)), nil)
		return err
	}, func() { p.close() })
	if err != nil {
		return nil, err
	}
	out.values["setup_s"] = setup
	p.waitRunning()

	// The untraced phase runs sessions of at most sessionPairs pairs and
	// liveSession each, the first on the set-up pair and each later one on
	// a pair started afresh from a collected heap. On live_pair, how the
	// start-up stalls trip the two peer links decides a session's regime
	// (see README.md); a run that pools several sessions rests less on one
	// draw of it. The daemons keep every job they have seen, so their
	// memory grows with the pairs; a session of a fixed number of pairs
	// makes the peak resident set not depend on how fast the host ran. For
	// the same reason a run keeps only two numbers of each finished pair.
	in := newPairInputs(rc.seed)
	untraced, traced := phases(rc)
	var lat, cycles []float64
	var mallocs, bytes uint64
	pairs := 0
	for start, n := time.Now(), 0; n == 0 || time.Since(start) < untraced; n++ {
		if n > 0 {
			debug.FreeOSMemory()
			if p, err = startPair(filepath.Join(root, fmt.Sprint("session-", n)), nil); err != nil {
				return nil, err
			}
			p.waitRunning()
		}
		budget := min(liveSession, max(untraced-time.Since(start), 0))
		var rs []pairResult
		var phaseErr error
		m, b, err := memDelta(func() error {
			rs, phaseErr = runPairs(p, in, budget, sessionPairs, hold, nil)
			return phaseErr
		})
		p.close()
		if err != nil {
			return nil, err
		}
		l, c := out.checkPairs(fmt.Sprintf("session %d pair", n), rs)
		lat, cycles = append(lat, l...), append(cycles, c...)
		pairs += len(rs)
		mallocs, bytes = mallocs+m, bytes+b
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("none of %d pairs co-started within %v", pairs, lateLimit)
	}
	out.setLatency("co-started pairs", lat)
	out.values["sim_jobs_per_s"] = 2 / median(cycles)
	out.values["mem.allocs_per_job"] = float64(mallocs) / float64(2*pairs)
	out.values["mem.bytes_per_job"] = float64(bytes) / float64(2*pairs)
	if !rc.trace {
		return out, nil
	}

	spans := newSpanLog()
	tr := newTracer(spans)
	p, err = startPair(filepath.Join(root, "traced"), tr)
	if err != nil {
		return nil, err
	}
	p.waitRunning()
	start := time.Now()
	tracedResults, err := runPairs(p, in, traced, 0, hold, spans)
	elapsed := time.Since(start).Seconds()
	if err != nil {
		p.close()
		return nil, err
	}
	var c cellCounters
	var links []peerlink.Snapshot
	var stats []journal.Stats
	for _, d := range p.d {
		d.driver.Do(func() {
			c.events += d.mgr.Engine().Fired()
			c.iterations += d.mgr.Iterations()
			c.skips += d.mgr.Skips()
		})
		links = append(links, d.link.Snapshot())
		stats = append(stats, d.store.Stats())
	}
	p.close()
	agreed := p.track.agreedPairs()
	tracedLat, _ := out.checkPairs("traced pair", tracedResults)
	pairs = len(tracedResults)
	c.holds, c.yields, c.releases = tr.holds.Load(), tr.yields.Load(), tr.releases.Load()
	c.calls = tr.calls.calls
	c.pairs = pairs
	c.report(out)
	out.values["sim.events_per_s"] = float64(c.events) / elapsed
	out.values["cosched.peer_call_s"] = tr.calls.total / float64(pairs)
	reportRTT(out, tr.rtt.samples, tr.wireBytes.Load())
	var admin []float64
	late, split := 0, 0
	for _, r := range tracedResults {
		admin = append(admin, r.admin...)
		switch {
		case r.lost || r.latency > lateLimit:
			late++
		case r.split:
			split++
		}
	}
	out.values["live.admin_rtt_us"] = median(admin) * 1e6
	out.values["live.late_pairs"] = float64(late)
	out.values["live.split_pairs"] = float64(split)
	out.values["live.agreed_pairs"] = float64(agreed)
	for _, s := range links {
		out.values["peerlink.calls"] += float64(s.Calls)
		out.values["peerlink.retries"] += float64(s.Retries)
		out.values["peerlink.transport_errors"] += float64(s.TransportErrors)
		out.values["peerlink.fast_fails"] += float64(s.FastFails)
		out.values["peerlink.trips"] += float64(s.Trips)
	}
	for _, s := range stats {
		out.values["journal.appends"] += float64(s.Appends)
		out.values["journal.fsyncs"] += float64(s.Fsyncs)
		out.values["journal.compacts"] += float64(s.Compacts)
	}
	out.values["journal.fsyncs_per_pair"] = out.values["journal.fsyncs"] / float64(pairs)
	out.values["journal.fsync_s"] = median(tr.fsyncSamples)
	out.values["journal.write_bytes"] = float64(tr.writeBytes.Load())
	out.values["trace.overhead"] = median(tracedLat)/median(lat) - 1
	return out, spans.write(spanPath(rc.workload, rc.seed))
}

// runPairs co-submits pairs one after another for budget, or until limit
// pairs when limit is positive, one span per pair when spans is set.
func runPairs(p *daemonPair, in *pairInputs, budget time.Duration, limit int, hold bool, spans *spanLog) ([]pairResult, error) {
	var results []pairResult
	start := time.Now()
	for len(results) == 0 || (time.Since(start) < budget && (limit <= 0 || len(results) < limit)) {
		var sp spanHandle
		if spans != nil {
			sp = spans.beginOp("live.pair")
		}
		r, err := p.runPair(in, len(results), hold)
		if spans != nil {
			spans.end(sp)
		}
		if err != nil {
			return results, err
		}
		results = append(results, r)
	}
	return results, nil
}

// checkPairs counts the pairs toward attempted and failed and returns the
// co-start latencies and cycle times, in seconds, of the pairs whose halves
// both started within the limit. Late and lost pairs are failures; so is a
// split pair, whose halves recorded different start instants, but its
// halves did start in time, so it is timed with the rest.
func (o *outcome) checkPairs(what string, results []pairResult) (latency, cycle []float64) {
	for i, r := range results {
		o.attempted++
		switch {
		case r.lost:
			o.fail(false, "%s %d not started on both daemons within %v", what, i, lostLimit)
			continue
		case r.latency > lateLimit:
			o.fail(false, "%s %d co-started %v after its last submit", what, i, r.latency.Round(time.Millisecond))
			continue
		case r.split:
			o.fail(false, "%s %d: halves recorded different start instants", what, i)
		}
		latency = append(latency, r.latency.Seconds())
		cycle = append(cycle, r.cycle.Seconds())
	}
	return latency, cycle
}

// outputDigests computes the output digest of each of the workload's
// instances at seed, for recording in digests.json.
func outputDigests(workload string, seed uint64, size sizes) ([]string, error) {
	var buf arena.Arena[job.Job]
	cells := func(pairs []tracePair, opts cellOptions) ([]string, error) {
		var ds []string
		for i := range pairs {
			run, err := runCell(&pairs[i], &buf, opts)
			if err != nil {
				return nil, err
			}
			ds = append(ds, run.digest)
		}
		return ds, nil
	}
	switch workload {
	case "load_sweep":
		var ds []string
		for _, s := range sweepSeeds(seed) {
			_, d, err := runSweep(s, workers(), size.factor)
			if err != nil {
				return nil, err
			}
			ds = append(ds, d)
		}
		return ds, nil
	case "long_cell":
		pair, err := longCellTraces(seed, size.longJobs)
		if err != nil {
			return nil, err
		}
		return cells([]tracePair{pair}, cellOptions{combo: experiments.Combos[0], cosched: true})
	case "wire_cell":
		pairs, err := wireCellInstances(seed, size.factor)
		if err != nil {
			return nil, err
		}
		return cells(pairs, cellOptions{combo: experiments.Combos[1], cosched: true, wire: true})
	}
	return nil, fmt.Errorf("%s has no output digest", workload)
}
