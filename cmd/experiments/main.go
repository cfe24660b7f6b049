// Command experiments reproduces the evaluation of Tang et al. (ICPP 2011):
// the §V-B capability validation and Figures 3–10.
//
// Usage:
//
//	experiments -exp all                 # everything at paper scale
//	experiments -exp fig3 -factor 0.1    # one figure at 10% job count
//	experiments -exp validate -reps 3
//	experiments -exp all -parallel 0     # fan cells across every core
//
// Figures come in pairs that share simulations (3–6 share the load sweep,
// 7–10 the proportion sweep); asking for any figure in a group runs the
// whole group's simulations once and prints only the requested tables.
//
// Every sweep fans its (point × combo × rep) cells across -parallel
// workers (0 = one per core, 1 = serial). Each cell derives its traces
// from its own (point, rep) seed and results are aggregated by cell
// index, so tables are byte-identical for every -parallel value; only
// wall-clock time changes. The repo benchmark (perfbench/README.md)
// measures the sweep; the tests pin its byte-identity.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"

	"cosched/internal/experiments"
	"cosched/internal/metrics"
)

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment: validate, fig3..fig10, load, prop, reservation, nway, ablations, or all")
		seed        = flag.Uint64("seed", 1, "workload random seed")
		factor      = flag.Float64("factor", 1.0, "job-count scale factor (1.0 = paper scale)")
		reps        = flag.Int("reps", 1, "repetitions per cell (paper used 10)")
		svgDir      = flag.String("svg", "", "also render each figure as an SVG into this directory")
		par         = flag.Int("parallel", 0, "sweep-cell workers: 0 = one per core, 1 = serial, N = at most N")
		schedCore   = flag.String("schedcore", "", "scheduler core: incremental (default) or reference")
		profDir     = flag.String("pprof", "", "write cpu.pprof and allocs.pprof profiles of the run into this directory")
		gcPercent   = flag.Int("gcpercent", 1000, "GC target percentage (runtime/debug.SetGCPercent); negative leaves the GOGC default")
		memLimitMiB = flag.Int64("memlimit", 1536, "soft heap memory limit in MiB (runtime/debug.SetMemoryLimit); 0 or negative leaves it unlimited")
		distWorker  = flag.Bool("distworker", false, "run as a sweep worker: dial the -distconnect address, serve one sweep, exit")
		distServe   = flag.String("distserve", "", "run as a standing sweep worker listening on this address (serves one sweep per connection, forever)")
		distWorkers = flag.Int("distworkers", 0, "fan sweep groups across N spawned worker processes")
		distConnect = flag.String("distconnect", "", "comma-separated worker addresses to dial (workers started with -distserve)")
		chaosN      = flag.Int("chaoscampaign", 0, "run N seeded deterministic fault-injection campaigns across the journal, peerlink, and distsweep seams, gating robustness invariants")
		chaosSeed   = flag.Uint64("chaosseed", 1, "chaoscampaign: first campaign seed (seeds are consecutive; a failing seed's printed repro replays it alone)")
		chaosInject = flag.Bool("chaosinject", false, "chaoscampaign: corrupt one distsweep row before the byte-identity gate — CI's deterministic proof the campaign fails loudly")
	)
	flag.Parse()

	// Worker modes dispatch before anything else: they are spawned by a
	// coordinator process and speak JSON on their socket.
	if *distWorker {
		addrs := splitAddrs(*distConnect)
		if len(addrs) != 1 {
			fmt.Fprintln(os.Stderr, "experiments: -distworker needs exactly one -distconnect address")
			os.Exit(2)
		}
		if err := runDistWorker(addrs[0]); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: distworker: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *distServe != "" {
		if err := runDistServe(*distServe); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: distserve: %v\n", err)
			os.Exit(1)
		}
		return
	}

	// The arena/free-list memory architecture keeps the live set small and
	// bounded, so the default GOGC=100 collects far too eagerly: with a
	// few-MiB live heap the sweep spends ~30% of CPU in GC marking and
	// write barriers. A relaxed target raises the headroom between
	// collections; the soft memory limit is the backstop that forces
	// collection pressure back up before RSS can approach the 2 GiB
	// budget that TestMegaCellHH holds a 100k-job cell to, which is why
	// GOGC=off would be wrong here.
	if *gcPercent >= 0 {
		debug.SetGCPercent(*gcPercent)
	}
	if *memLimitMiB > 0 {
		debug.SetMemoryLimit(*memLimitMiB << 20)
	}

	cfg := experiments.DefaultConfig(*seed, *factor)
	cfg.Reps = *reps
	cfg.Parallelism = *par
	cfg.SchedCore = *schedCore
	if *distWorkers > 0 || *distConnect != "" {
		cfg.Dist = &procDistributor{Workers: *distWorkers, Connect: splitAddrs(*distConnect)}
	}

	if *profDir != "" {
		stop, err := startProfiles(*profDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: pprof: %v\n", err)
			os.Exit(1)
		}
		defer stop()
	}

	if *chaosN > 0 {
		if err := runChaosCampaign(*chaosN, *chaosSeed, *chaosInject); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: chaoscampaign: %v\n", err)
			os.Exit(1)
		}
		return
	}

	want := map[string]bool{}
	for _, w := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(w)] = true
	}
	all := want["all"]
	anyOf := func(names ...string) bool {
		if all {
			return true
		}
		for _, n := range names {
			if want[n] {
				return true
			}
		}
		return false
	}

	ran := false
	if anyOf("validate") {
		ran = true
		run("capability validation", func() error {
			v, err := experiments.RunValidation(cfg)
			if err != nil {
				return err
			}
			fmt.Println(v.Table().Render())
			if v.Passed() {
				fmt.Println("VALIDATION PASSED: all combinations coschedule; deadlock only without the release enhancement")
			} else {
				fmt.Println("VALIDATION FAILED")
			}
			return nil
		})
	}
	if anyOf("load", "fig3", "fig4", "fig5", "fig6") {
		ran = true
		run("load sweep (Figures 3-6)", func() error {
			sweep, err := experiments.RunLoadSweep(cfg)
			if err != nil {
				return err
			}
			// Iterate Utils, not the map: map range order would make
			// otherwise byte-identical runs print in different orders.
			for _, util := range sweep.Utils {
				fmt.Printf("paired fraction at eureka_util %.2f: %.1f%%\n", util, sweep.PairedFraction[util]*100)
			}
			fmt.Println()
			if err := writeCharts(*svgDir, sweep.Charts()); err != nil {
				return err
			}
			printPair := func(a, b *metrics.Table) {
				fmt.Println(a.Render())
				fmt.Println(b.Render())
			}
			if anyOf("load", "fig3") {
				printPair(sweep.Fig3Table())
			}
			if anyOf("load", "fig4") {
				printPair(sweep.Fig4Table())
			}
			if anyOf("load", "fig5") {
				printPair(sweep.Fig5Table())
			}
			if anyOf("load", "fig6") {
				printPair(sweep.Fig6Table())
			}
			return nil
		})
	}
	if anyOf("prop", "fig7", "fig8", "fig9", "fig10") {
		ran = true
		run("proportion sweep (Figures 7-10)", func() error {
			sweep, err := experiments.RunProportionSweep(cfg)
			if err != nil {
				return err
			}
			if err := writeCharts(*svgDir, sweep.Charts()); err != nil {
				return err
			}
			printPair := func(a, b *metrics.Table) {
				fmt.Println(a.Render())
				fmt.Println(b.Render())
			}
			if anyOf("prop", "fig7") {
				printPair(sweep.Fig7Table())
			}
			if anyOf("prop", "fig8") {
				printPair(sweep.Fig8Table())
			}
			if anyOf("prop", "fig9") {
				printPair(sweep.Fig9Table())
			}
			if anyOf("prop", "fig10") {
				printPair(sweep.Fig10Table())
			}
			return nil
		})
	}
	if anyOf("reservation") {
		ran = true
		run("co-reservation comparison (§III)", func() error {
			c, err := experiments.RunReservationComparison(cfg)
			if err != nil {
				return err
			}
			fmt.Println(c.Table().Render())
			return nil
		})
	}
	if anyOf("nway") {
		ran = true
		run("N-way extension sweep (§VI)", func() error {
			s, err := experiments.RunNWaySweep(cfg)
			if err != nil {
				return err
			}
			fmt.Println(s.Table().Render())
			return writeCharts(*svgDir, []experiments.NamedChart{s.Chart()})
		})
	}
	if anyOf("ablations") {
		ran = true
		run("design ablations", func() error {
			a, err := experiments.RunAblations(cfg)
			if err != nil {
				return err
			}
			fmt.Println(a.Table().Render())
			return nil
		})
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want validate, fig3..fig10, load, prop, reservation, nway, ablations, all)\n", *exp)
		os.Exit(2)
	}
}

// writeCharts renders the named charts as SVG files under dir (no-op when
// dir is empty).
func writeCharts(dir string, charts []experiments.NamedChart) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, nc := range charts {
		svg, err := nc.Chart.SVG()
		if err != nil {
			return err
		}
		path := filepath.Join(dir, nc.Name+".svg")
		if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}

// startProfiles begins a CPU profile and returns a stop function that
// finishes it and writes an allocation profile, both under dir. The alloc
// profile records cumulative allocation sites (sample_index=alloc_space/
// alloc_objects in `go tool pprof`), which is what the memory-architecture
// work optimizes for.
func startProfiles(dir string) (stop func(), err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cpuPath := filepath.Join(dir, "cpu.pprof")
	cpuFile, err := os.Create(cpuPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpuFile); err != nil {
		cpuFile.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		cpuFile.Close()
		fmt.Printf("wrote %s\n", cpuPath)
		allocPath := filepath.Join(dir, "allocs.pprof")
		allocFile, err := os.Create(allocPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: pprof: %v\n", err)
			return
		}
		defer allocFile.Close()
		runtime.GC() // flush the final allocation samples
		if err := pprof.Lookup("allocs").WriteTo(allocFile, 0); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: pprof: %v\n", err)
			return
		}
		fmt.Printf("wrote %s\n", allocPath)
	}, nil
}

// run times one experiment group and exits on error.
func run(name string, f func() error) {
	fmt.Printf("=== %s ===\n", name)
	start := time.Now()
	if err := f(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
		os.Exit(1)
	}
	fmt.Printf("(%s completed in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
}
