package resmgr_test

import (
	"fmt"
	"testing"

	"cosched/internal/resmgr"
	"cosched/internal/schedbench"
)

// BenchmarkIterate measures one scheduling iteration at the blocked steady
// state (every queued job too large to start or backfill) for each core and
// queue depth. The incremental core's skip-cache elides planning entirely
// here, and its steady-state path must not allocate.
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
