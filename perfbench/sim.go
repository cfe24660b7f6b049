package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"runtime"

	"cosched/internal/arena"
	"cosched/internal/cosched"
	"cosched/internal/coupled"
	"cosched/internal/experiments"
	"cosched/internal/job"
	"cosched/internal/proto"
	"cosched/internal/sim"
	"cosched/internal/workload"
)

// Sizes of the simulated workloads. The sweeps run at paper scale; the long
// cell packs 200k Intrepid jobs (≈22 months of arrivals) into one HH cell.
const (
	paperScale     = 1.0
	longCellJobs   = 200000
	longCellUtil   = 0.75
	wireCellProp   = 0.33
	wireCellPoint  = 4 // index of 0.33 in experiments.ProportionSweepPoints
	intrepidUtil   = 0.68
	loadSeedStride = 1000 // per-point seed offset of the sweep runners
)

// tracePair is one frozen (Intrepid, Eureka) workload, captured the way the
// sweep runners capture theirs so every cell materializes private jobs.
type tracePair struct {
	intr, eur *workload.Snapshot
	jobs      int     // Intrepid + Eureka jobs
	frac      float64 // paired fraction of Intrepid jobs
}

// intrepidTrace mirrors the sweeps' Intrepid trace: the paper's month at
// factor × 9,219 jobs, scaled to the fixed Intrepid load.
func intrepidTrace(seed uint64, factor float64) ([]*job.Job, error) {
	spec := workload.IntrepidSpec(seed)
	spec.Jobs = scaleCount(spec.Jobs, factor)
	jobs, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}
	if _, err := workload.ScaleToUtilization(jobs, experiments.IntrepidNodes, intrepidUtil); err != nil {
		return nil, err
	}
	return jobs, nil
}

// loadTraces mirrors the load sweep's trace pair for one Eureka load: the
// Eureka job count tracks the target load, and pairs form by the 2-minute
// submission window.
func loadTraces(seed uint64, factor, util float64) (tracePair, error) {
	intr, err := intrepidTrace(seed, factor)
	if err != nil {
		return tracePair{}, err
	}
	spec := workload.EurekaSpec(seed + 1)
	base, err := workload.Generate(spec)
	if err != nil {
		return tracePair{}, err
	}
	offered := workload.OfferedLoad(base, experiments.EurekaNodes)
	spec.Jobs = scaleCount(int(float64(spec.Jobs)*util/offered+0.5), factor)
	eur, err := workload.Generate(spec)
	if err != nil {
		return tracePair{}, err
	}
	if _, err := workload.ScaleToUtilization(eur, experiments.EurekaNodes, util); err != nil {
		return tracePair{}, err
	}
	workload.PairByWindow(
		workload.Eligible(intr, experiments.MaxPairedIntrepidNodes),
		workload.Eligible(eur, experiments.MaxPairedEurekaNodes),
		experiments.DomIntrepid, experiments.DomEureka, experiments.PairWindow)
	return capture(intr, eur), nil
}

// propTraces mirrors the proportion sweep's trace pair for one paired
// proportion: equal job counts on both machines, Eureka at medium load, and
// the wanted share of jobs paired with a temporally close mate.
func propTraces(seed uint64, factor, prop float64) (tracePair, error) {
	intr, err := intrepidTrace(seed, factor)
	if err != nil {
		return tracePair{}, err
	}
	spec := workload.EurekaSpec(seed + 1)
	spec.Jobs = len(intr)
	spec.RuntimeMu = 6.05
	spec.RuntimeSigma = 1.10
	spec.MaxRuntime = 3 * sim.Hour
	eur, err := workload.Generate(spec)
	if err != nil {
		return tracePair{}, err
	}
	if _, err := workload.ScaleToUtilization(eur, experiments.EurekaNodes, 0.5); err != nil {
		return tracePair{}, err
	}
	want := int(float64(len(intr))*prop + 0.5)
	workload.PairNearest(workload.NewRNG(seed+2),
		workload.Eligible(intr, experiments.MaxPairedIntrepidNodes),
		workload.Eligible(eur, experiments.MaxPairedEurekaNodes),
		experiments.DomIntrepid, experiments.DomEureka, want, experiments.PairMaxGap)
	return capture(intr, eur), nil
}

func capture(intr, eur []*job.Job) tracePair {
	return tracePair{
		intr: workload.Capture(intr),
		eur:  workload.Capture(eur),
		jobs: len(intr) + len(eur),
		frac: workload.PairedFraction(intr),
	}
}

// scaleCount is the sweeps' job-count scaling rule.
func scaleCount(n int, factor float64) int {
	s := int(float64(n)*factor + 0.5)
	if s < 10 {
		s = 10
	}
	return s
}

// loadSweepTraces builds the load sweep's trace pair for every Eureka load,
// seeded as experiments.RunLoadSweep seeds its single repetition.
func loadSweepTraces(seed uint64, factor float64) ([]tracePair, error) {
	pairs := make([]tracePair, len(experiments.LoadSweepUtils))
	for ui, util := range experiments.LoadSweepUtils {
		p, err := loadTraces(seed+uint64(ui*loadSeedStride), factor, util)
		if err != nil {
			return nil, err
		}
		pairs[ui] = p
	}
	return pairs, nil
}

// longCellTraces is the long cell's workload: the load-sweep trace shape
// with the Intrepid trace scaled to longCellJobs jobs and Eureka at 0.75.
func longCellTraces(seed uint64, intrepidJobs int) (tracePair, error) {
	factor := float64(intrepidJobs) / float64(workload.IntrepidSpec(seed).Jobs)
	return loadTraces(seed, factor, longCellUtil)
}

// wireCellTraces is the wire cell's workload: repetition rep of the
// proportion sweep's highest point, seeded as RunProportionSweep seeds it.
func wireCellTraces(seed uint64, factor float64, rep int) (tracePair, error) {
	return propTraces(seed+uint64(wireCellPoint*loadSeedStride+rep*propRepStride), factor, wireCellProp)
}

// Instances per run. A run cycles its operations through several
// workload instances drawn from its seed, so that one run's figures
// describe the workload rather than one draw of it.
const (
	// sweepInstances load sweeps, at the run's seed and at seeds drawn
	// from it.
	sweepInstances = 4
	// wireInstances repetitions of the wire cell's point; the paper ran
	// ten of every point.
	wireInstances = 10
	// propRepStride is RunProportionSweep's per-repetition seed offset.
	propRepStride = 104729
)

// sweepSeeds returns the seeds of the load sweeps a run cycles through:
// the run's seed, then seeds drawn from it.
func sweepSeeds(seed uint64) []uint64 {
	rng := workload.NewRNG(seed)
	seeds := []uint64{seed}
	for len(seeds) < sweepInstances {
		seeds = append(seeds, rng.Uint64()>>16)
	}
	return seeds
}

// wireCellInstances builds every repetition of the wire cell's point.
func wireCellInstances(seed uint64, factor float64) ([]tracePair, error) {
	pairs := make([]tracePair, wireInstances)
	for rep := range pairs {
		p, err := wireCellTraces(seed, factor, rep)
		if err != nil {
			return nil, err
		}
		pairs[rep] = p
	}
	return pairs, nil
}

// cellRun is one simulated cell's outcome and the counters read from it.
type cellRun struct {
	res        *coupled.Result
	digest     string
	events     uint64 // Engine.Fired
	iterations uint64 // summed Manager.Iterations
	skips      uint64 // summed Manager.Skips
}

// cellOptions selects how a cell's domains are wired.
type cellOptions struct {
	combo   experiments.Combo
	cosched bool // false runs the no-coscheduling baseline
	wire    bool // peers speak proto over net.Pipe (coupled.UseWireProtocol)
	// tr, when set, wraps every observer and peer with the benchmark's
	// counting and timing wrappers. A wired cell then builds its own pipes
	// so the bytes on the client end can be counted.
	tr *tracer
}

// runCell materializes the pair into buf and simulates one cell, built as
// the experiments package builds its cells.
func runCell(p *tracePair, buf *arena.Arena[job.Job], o cellOptions) (*cellRun, error) {
	buf.Reset()
	intr := p.intr.MaterializeInto(buf, nil)
	eur := p.eur.MaterializeInto(buf, nil)
	domains := []coupled.DomainConfig{
		{Name: experiments.DomIntrepid, Nodes: experiments.IntrepidNodes, Backfilling: true, Trace: intr},
		{Name: experiments.DomEureka, Nodes: experiments.EurekaNodes, Backfilling: true, Trace: eur},
	}
	if o.cosched {
		domains[0].Cosched = cosched.DefaultConfig(o.combo.Intrepid)
		domains[1].Cosched = cosched.DefaultConfig(o.combo.Eureka)
	}
	if o.tr != nil {
		for i := range domains {
			domains[i].Observer = o.tr.observer()
		}
	}
	s, err := coupled.New(coupled.Options{Domains: domains, UseWireProtocol: o.wire && o.tr == nil})
	if err != nil {
		return nil, err
	}
	if o.tr != nil {
		closeAll, err := o.tr.rewire(s, domains, o.wire)
		defer closeAll()
		if err != nil {
			return nil, err
		}
	}
	res := s.Run()
	run := &cellRun{res: res, events: s.Engine().Fired()}
	for _, d := range domains {
		m := s.Manager(d.Name)
		run.iterations += m.Iterations()
		run.skips += m.Skips()
	}
	b, err := json.Marshal(res)
	if err != nil {
		return nil, fmt.Errorf("encode result: %w", err)
	}
	run.digest = digest(b)
	return run, nil
}

// rewire replaces the direct peers coupled.New installed with wrapped
// ones: the manager itself for a direct cell, or a proto client over a
// benchmark-owned net.Pipe for a wired cell (the same server, pipe and
// client coupled builds for UseWireProtocol). It returns the function that
// closes the pipes.
func (t *tracer) rewire(s *coupled.Sim, domains []coupled.DomainConfig, wire bool) (func(), error) {
	var closers []func()
	closeAll := func() {
		for _, c := range closers {
			c()
		}
	}
	for _, a := range domains {
		for _, b := range domains {
			if a.Name == b.Name {
				continue
			}
			target := s.Manager(b.Name)
			var peer fullPeer = target
			if wire {
				server := proto.NewServer(target, nil, nil)
				clientEnd, serverEnd := net.Pipe()
				go server.ServeConn(serverEnd)
				client := proto.NewClient(t.countConn(clientEnd), 0)
				closers = append(closers, func() {
					client.Close()
					server.Close()
				})
				if _, err := client.Ping(); err != nil {
					return closeAll, fmt.Errorf("pipe peer ping: %w", err)
				}
				peer = t.rtt.wrap(client, a.Name)
			}
			s.Manager(a.Name).AddPeer(b.Name, t.calls.wrap(peer, a.Name))
		}
	}
	return closeAll, nil
}

// digest is the hex SHA-256 of b, shortened to 16 bytes.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// sweepDigest hashes the load sweep's rendered Figure 3–6 tables and its
// paired fractions, the bytes a researcher reads.
func sweepDigest(s *experiments.LoadSweep) string {
	var b []byte
	for _, util := range s.Utils {
		b = append(b, fmt.Sprintf("paired %.2f: %.6f\n", util, s.PairedFraction[util])...)
	}
	f3a, f3b := s.Fig3Table()
	f4a, f4b := s.Fig4Table()
	f5a, f5b := s.Fig5Table()
	f6a, f6b := s.Fig6Table()
	for _, t := range []interface{ Render() string }{f3a, f3b, f4a, f4b, f5a, f5b, f6a, f6b} {
		b = append(b, t.Render()...)
		b = append(b, '\n')
	}
	return digest(b)
}

// runSweep runs the Figures 3–6 load sweep at the given scale on the given
// number of workers.
func runSweep(seed uint64, workers int, factor float64) (*experiments.LoadSweep, string, error) {
	cfg := experiments.DefaultConfig(seed, factor)
	cfg.Parallelism = workers
	s, err := experiments.RunLoadSweep(cfg)
	if err != nil {
		return nil, "", err
	}
	return s, sweepDigest(s), nil
}

// workers is the benchmark's worker-goroutine budget: one per core.
func workers() int { return runtime.NumCPU() }

// checkSweepInputs confirms the benchmark's copy of the load sweep's trace
// construction matches the sweep's own, so jobs-per-second counts the jobs
// the sweep really simulated.
func checkSweepInputs(s *experiments.LoadSweep, pairs []tracePair) error {
	for ui, util := range s.Utils {
		if got, want := pairs[ui].frac, s.PairedFraction[util]; got != want {
			return fmt.Errorf("load %.2f: benchmark traces pair %.6f of Intrepid jobs, the sweep %.6f", util, got, want)
		}
	}
	return nil
}
