package resmgr_test

import (
	"fmt"
	"testing"

	"cosched/internal/resmgr"
	"cosched/internal/schedbench"
)

// BenchmarkIterate measures one scheduling iteration for each core and
// queue depth in two scenarios. At the FCFS blocked steady state (every
// queued job too large to start or backfill) the incremental core's
// skip-cache elides planning entirely. In the WFP churn scenario every
// iteration scores, sorts and plans the queue and starts one job, so an op
// is one simulated second: a completion, an arrival and that iteration.
// Neither steady-state path may allocate.
func BenchmarkIterate(b *testing.B) {
	for _, core := range []resmgr.Core{resmgr.CoreReference, resmgr.CoreIncremental} {
		for _, queue := range schedbench.QueueSizes {
			b.Run(fmt.Sprintf("%s/queue%d", core, queue), func(b *testing.B) {
				eng, m, _, _ := schedbench.Steady(core, queue)
				now := eng.Now()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Iterate(now)
				}
			})
		}
		for _, queue := range schedbench.WFPQueueSizes {
			b.Run(fmt.Sprintf("%s/wfp_queue%d", core, queue), func(b *testing.B) {
				w := schedbench.NewWFPChurn(core, queue)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					w.Step()
				}
			})
		}
	}
}

// BenchmarkIterateChurn interleaves a cancel+submit with every iteration, so
// each plan runs against a changed queue: the sorted-insert/remove index and
// cache invalidation rather than the pure skip path.
func BenchmarkIterateChurn(b *testing.B) {
	for _, core := range []resmgr.Core{resmgr.CoreReference, resmgr.CoreIncremental} {
		for _, queue := range schedbench.QueueSizes {
			b.Run(fmt.Sprintf("%s/queue%d", core, queue), func(b *testing.B) {
				eng, m, blocked, nextID := schedbench.Steady(core, queue)
				now := eng.Now()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k := i % len(blocked)
					blocked[k], nextID = schedbench.Churn(m, blocked[k], nextID)
					m.Iterate(now)
				}
			})
		}
	}
}

// TestWFPScenarioPlans pins the WFP churn scenario's invariants so its
// BenchmarkIterate numbers measure planning: on both cores, every step
// runs exactly one iteration, nothing skips, one job completes and one
// starts, and the queue depth and running population hold.
func TestWFPScenarioPlans(t *testing.T) {
	for _, core := range []resmgr.Core{resmgr.CoreReference, resmgr.CoreIncremental} {
		w := schedbench.NewWFPChurn(core, 64)
		running := w.M.RunningCount()
		for i := 0; i < 500; i++ {
			iters, skips, done := w.M.Iterations(), w.M.Skips(), w.M.CompletedCount()
			w.Step()
			if got := w.M.Iterations() - iters; got != 1 {
				t.Fatalf("%v step %d: %d iterations, want 1", core, i, got)
			}
			if w.M.Skips() != skips {
				t.Fatalf("%v step %d: iteration skipped", core, i)
			}
			if w.M.CompletedCount() != done+1 || w.M.RunningCount() != running || w.M.QueueLength() != 64 {
				t.Fatalf("%v step %d: completed %d→%d, running %d (want %d), queue %d (want 64)",
					core, i, done, w.M.CompletedCount(), w.M.RunningCount(), running, w.M.QueueLength())
			}
		}
	}
}

// TestIterateWFPZeroAlloc is the zero-alloc gate for the planning path of
// the incremental core: with a WFP queue scored, warm-sorted and planned on
// every iteration, and jobs completing, arriving and folding out of the
// registry, a steady-state step must not allocate.
func TestIterateWFPZeroAlloc(t *testing.T) {
	if resmgr.DebugBuild {
		t.Skip("the debug build's order checks allocate")
	}
	w := schedbench.NewWFPChurn(resmgr.CoreIncremental, 64)
	for i := 0; i < 2000; i++ { // grow every buffer to its steady size
		w.Step()
	}
	if allocs := testing.AllocsPerRun(2000, w.Step); allocs != 0 {
		t.Fatalf("WFP steady-state step allocated %.0f times per run, want 0", allocs)
	}
}

// TestSteadyScenarioSettles pins the shared benchmark scenario's invariants
// so BenchmarkIterate numbers stay comparable across changes:
// the blocked queue never drains and the skip-cache engages on the
// incremental core.
func TestSteadyScenarioSettles(t *testing.T) {
	for _, core := range []resmgr.Core{resmgr.CoreReference, resmgr.CoreIncremental} {
		eng, m, blocked, _ := schedbench.Steady(core, 100)
		if got := m.QueueLength(); got != 100 {
			t.Fatalf("%v: queue length = %d, want 100", core, got)
		}
		for i := 0; i < 3; i++ {
			m.Iterate(eng.Now())
		}
		if got := m.QueueLength(); got != 100 {
			t.Fatalf("%v: queue drained to %d after extra iterations", core, got)
		}
		if core == resmgr.CoreIncremental && m.Skips() == 0 {
			t.Fatalf("incremental: skip-cache never engaged at steady state")
		}
		if core == resmgr.CoreReference && m.Skips() != 0 {
			t.Fatalf("reference: skip-cache engaged (%d skips) on the reference core", m.Skips())
		}
		if blocked[0].ID == blocked[1].ID {
			t.Fatalf("scenario job IDs collide")
		}
	}
}
