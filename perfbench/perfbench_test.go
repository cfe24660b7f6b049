package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"cosched/internal/arena"
	"cosched/internal/cosched"
	"cosched/internal/experiments"
	"cosched/internal/job"
	"cosched/internal/resmgr"
)

// quickSizes are the workload shapes at a size the tests can afford.
var quickSizes = sizes{factor: 0.03, longJobs: 1500}

// TestWrappersKeepTheResult runs a small wire cell with and without the
// benchmark's wrappers: the result must be byte-identical, and the wrapped
// peers must still reach the co-start-instant extension rather than its
// fallback.
func TestWrappersKeepTheResult(t *testing.T) {
	pair, err := wireCellTraces(7, quickSizes.factor, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf arena.Arena[job.Job]
	opts := cellOptions{combo: experiments.Combos[1], cosched: true, wire: true}
	plain, err := runCell(&pair, &buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(newSpanLog())
	opts.tr = tr
	wrapped, err := runCell(&pair, &buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plain.digest != wrapped.digest {
		t.Fatalf("wrapped cell digest %s, unwrapped %s", wrapped.digest, plain.digest)
	}
	if plain.events != wrapped.events || plain.iterations != wrapped.iterations {
		t.Fatalf("wrapped cell fired %d events in %d iterations, unwrapped %d in %d",
			wrapped.events, wrapped.iterations, plain.events, plain.iterations)
	}
	if tr.calls.calls["TryStartMateAt"] == 0 || tr.calls.calls["TryStartMate"] != 0 {
		t.Fatalf("wrapped peers made %d TryStartMateAt and %d TryStartMate calls; the co-start extension must be used",
			tr.calls.calls["TryStartMateAt"], tr.calls.calls["TryStartMate"])
	}
	if tr.calls.count() != tr.rtt.count() || tr.wireBytes.Load() == 0 {
		t.Fatalf("%d peer calls, %d round trips, %d bytes: every call must cross the counted pipe",
			tr.calls.count(), tr.rtt.count(), tr.wireBytes.Load())
	}

	var peer cosched.Peer = tr.calls.wrap(tr.rtt.wrap(fakePeer{}, "x"), "x")
	if _, ok := peer.(cosched.CoStarter); !ok {
		t.Error("a wrapped peer does not implement cosched.CoStarter")
	}
	if _, ok := peer.(cosched.Reconciler); !ok {
		t.Error("a wrapped peer does not implement cosched.Reconciler")
	}
	var obs resmgr.Observer = tr.observer()
	if _, ok := obs.(resmgr.ExpectObserver); !ok {
		t.Error("the counting observer does not implement resmgr.ExpectObserver")
	}
	if _, ok := obs.(resmgr.PeerDecisionObserver); !ok {
		t.Error("the counting observer does not implement resmgr.PeerDecisionObserver")
	}
}

// fakePeer is a fullPeer that answers nothing.
type fakePeer struct{ fullPeer }

// TestTracesMatchTheSweeps checks that the benchmark's copies of the trace
// construction reproduce the experiments package's cells, so each workload
// runs the cells it claims to.
func TestTracesMatchTheSweeps(t *testing.T) {
	const seed = 5
	cfg := experiments.DefaultConfig(seed, quickSizes.factor)
	cfg.Parallelism = 1
	var buf arena.Arena[job.Job]

	sweep, _, err := runSweep(seed, 1, quickSizes.factor)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := loadSweepTraces(seed, quickSizes.factor)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSweepInputs(sweep, pairs); err != nil {
		t.Fatal(err)
	}
	util, combo := experiments.LoadSweepUtils[2], experiments.Combos[3]
	run, err := runCell(&pairs[2], &buf, cellOptions{combo: combo, cosched: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sameCell(sweep.Cell(util, combo), run); err != nil {
		t.Errorf("load sweep %.2f/%s: %v", util, combo.Label(), err)
	}

	props, err := experiments.RunProportionSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := wireCellTraces(seed, quickSizes.factor, 0)
	if err != nil {
		t.Fatal(err)
	}
	run, err = runCell(&wire, &buf, cellOptions{combo: experiments.Combos[1], cosched: true, wire: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sameCell(props.Cell(wireCellProp, experiments.Combos[1]), run); err != nil {
		t.Errorf("wire cell: %v", err)
	}

	mega, err := experiments.BuildMegaTraces(cfg, quickSizes.longJobs, longCellUtil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mega.Run(cfg, experiments.Combos[0])
	if err != nil {
		t.Fatal(err)
	}
	long, err := longCellTraces(seed, quickSizes.longJobs)
	if err != nil {
		t.Fatal(err)
	}
	run, err = runCell(&long, &buf, cellOptions{combo: experiments.Combos[0], cosched: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sameCell(want, run); err != nil {
		t.Errorf("long cell: %v", err)
	}
}

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestQuickRunReportsEveryMetric runs every workload once at the quick size,
// untraced and traced, and checks that each run is correct and emits
// exactly the metrics BENCHMARK.json names, with their units; a second seed
// must change the inputs but not the metric set.
func TestQuickRunReportsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench benchmarkFile
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	wantUnits := func(trace bool) map[string]string {
		m := make(map[string]string)
		list := bench.EndToEnd
		if trace {
			list = bench.PerLayer
		}
		for _, d := range list {
			m[d.Name] = d.Unit
		}
		return m
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(buildDir)
	for _, w := range bench.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	// Every implemented workload, listed in BENCHMARK.json or not, must
	// emit the same metrics.
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		run := workloads[name]
		// The first two live pairs after start-up wait out the 2 s
		// peer-call timeout, so each half of a traced live run needs more
		// than 4 s to co-start any pair in time.
		budget := 100 * time.Millisecond
		if name == "live_pair" {
			budget = 10 * time.Second
		}
		for _, c := range []struct {
			seed  uint64
			trace bool
		}{{1, false}, {1, true}, {2, false}} {
			seed, trace := c.seed, c.trace
			out, err := run(runConfig{workload: name, seed: seed, budget: budget, trace: trace, size: quickSizes})
			if err != nil {
				t.Fatalf("%s seed %d trace %v: %v", name, seed, trace, err)
			}
			if !out.correct {
				t.Errorf("%s seed %d trace %v: incorrect output: %v", name, seed, trace, out.problems)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			out.values["peak_rss_mb"] = peakRSSMB()
			res, err := out.result(defs)
			if err != nil {
				t.Fatalf("%s seed %d trace %v: %v", name, seed, trace, err)
			}
			want := wantUnits(trace)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s seed %d trace %v: %d metrics, BENCHMARK.json names %d", name, seed, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("%s seed %d trace %v: metric %s = %+v, want unit %s", name, seed, trace, name, got, unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s seed %d: end-to-end metric %s is %v", name, seed, name, got.Value)
				}
			}
		}
	}
}

// TestSeedChangesTheInputs checks that the seed reaches every workload's
// inputs.
func TestSeedChangesTheInputs(t *testing.T) {
	var buf arena.Arena[job.Job]
	digestOf := func(build func(uint64) (tracePair, error), seed uint64) string {
		p, err := build(seed)
		if err != nil {
			t.Fatal(err)
		}
		run, err := runCell(&p, &buf, cellOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return run.digest
	}
	builds := map[string]func(uint64) (tracePair, error){
		"load_sweep": func(s uint64) (tracePair, error) {
			pairs, err := loadSweepTraces(s, quickSizes.factor)
			if err != nil {
				return tracePair{}, err
			}
			return pairs[0], nil
		},
		"long_cell": func(s uint64) (tracePair, error) { return longCellTraces(s, quickSizes.longJobs) },
		"wire_cell": func(s uint64) (tracePair, error) { return wireCellTraces(s, quickSizes.factor, 0) },
	}
	for name, build := range builds {
		if digestOf(build, 1) == digestOf(build, 2) {
			t.Errorf("%s: seeds 1 and 2 give the same inputs", name)
		}
	}
	a, b := newPairInputs(1), newPairInputs(2)
	same := true
	for i := 0; i < 16; i++ {
		if a.rng.Intn(8) != b.rng.Intn(8) {
			same = false
		}
	}
	if same {
		t.Error("live_pair: seeds 1 and 2 give the same pair sizes")
	}
}

// TestHeldPairsCountAsAgreed runs live_hold's pairs, which stage Algorithm
// 1's branch in which the mate is holding: one half is submitted and holds,
// then the other is submitted and its daemon starts both halves at one
// instant. Every pair must co-start in time at one instant and count as
// agreed, although the holder's start completes the pair before the start
// request returns.
func TestHeldPairsCountAsAgreed(t *testing.T) {
	p, err := startPair(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	p.waitRunning()
	const pairs = 20
	rs, err := runPairs(p, newPairInputs(1), time.Minute, pairs, true, nil)
	p.close()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if r.lost || r.latency > lateLimit || r.split {
			t.Errorf("pair %d: lost %v, split %v, co-started %v after its last submit", i, r.lost, r.split, r.latency)
		}
	}
	if n := p.track.agreedPairs(); n != pairs {
		t.Errorf("%d agreed pairs, want %d", n, pairs)
	}
}
