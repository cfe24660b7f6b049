package main

import (
	"testing"

	"cosched/internal/experiments"
)

// megaRSSBudget is the peak-RSS budget for the whole process around a
// mega cell: a million-job cell fits in ~830 MB, so 2 GiB leaves room
// for the allocator and the rest of the test binary.
const megaRSSBudget = int64(2) << 30

// TestMegaCellHH pushes one 100k-job HH cell — both domains hold, the
// heaviest coordination load — through the same snapshot/arena/free-list
// path the sweeps use. Every job must finish and the process must stay
// under the RSS budget.
func TestMegaCellHH(t *testing.T) {
	cfg := experiments.DefaultConfig(1, 1.0)
	traces, err := experiments.BuildMegaTraces(cfg, 100_000, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	cell, err := traces.Run(cfg, experiments.Combos[0])
	if err != nil {
		t.Fatal(err)
	}
	if cell.Stuck != 0 {
		t.Fatalf("mega cell left %d of %d jobs stuck", cell.Stuck, traces.IntrepidJobs+traces.EurekaJobs)
	}
	if rss := peakRSSBytes(); rss >= megaRSSBudget {
		t.Fatalf("peak RSS %d bytes exceeds the %d-byte budget", rss, megaRSSBudget)
	}
}
