package experiments

import (
	"fmt"

	"cosched/internal/workload"
)

// MegaTraces is one frozen giant workload instance for the single-cell
// stress runs (cmd/experiments TestMegaCellHH and perfbench's long cell):
// the Intrepid trace scaled to a requested job count (paper scale is 9,219
// jobs/month; a million-job cell packs ~108 months of arrivals into the
// same span), the matching Eureka trace at the target utilization, both
// captured as immutable snapshots so the simulated cell exercises the
// exact copy-on-write materialization path the sweeps use.
type MegaTraces struct {
	pair tracePair
	// IntrepidJobs and EurekaJobs are the realized trace lengths (the
	// Intrepid count can differ from the request by rounding).
	IntrepidJobs, EurekaJobs int
	// PairedFraction is the fraction of Intrepid jobs paired by the
	// 2-minute submission window.
	PairedFraction float64
	// EurekaUtil is the offered Eureka load the traces were built for.
	EurekaUtil float64
}

// BuildMegaTraces generates and freezes a load-sweep-shaped trace pair
// with the Intrepid trace scaled to intrepidJobs jobs. Generation is
// deliberately separate from Run so callers can time and profile the two
// phases independently.
func BuildMegaTraces(cfg Config, intrepidJobs int, eurekaUtil float64) (*MegaTraces, error) {
	cfg = cfg.normalized()
	if intrepidJobs <= 0 {
		return nil, fmt.Errorf("megacell: intrepid job count must be positive, got %d", intrepidJobs)
	}
	base := workload.IntrepidSpec(cfg.Seed).Jobs
	cfg.JobFactor = float64(intrepidJobs) / float64(base)
	intr, eur, frac, err := loadSweepTraces(cfg, cfg.Seed, eurekaUtil)
	if err != nil {
		return nil, err
	}
	return &MegaTraces{
		pair:           tracePair{intr: workload.Capture(intr), eur: workload.Capture(eur), frac: frac},
		IntrepidJobs:   len(intr),
		EurekaJobs:     len(eur),
		PairedFraction: frac,
		EurekaUtil:     eurekaUtil,
	}, nil
}

// Run materializes private jobs from the frozen snapshots and simulates
// one cell under the given scheme combination, exactly as a sweep cell
// would. The materialization arena is NOT drawn from the shared cell-buffer
// pool: a million-job arena returned to the pool would pin hundreds of MiB
// for every later sweep, so the mega cell owns a private one that dies with
// the call.
func (t *MegaTraces) Run(cfg Config, combo Combo) (*Cell, error) {
	cfg = cfg.normalized()
	buf := new(cellBuffers)
	intr, eur := t.pair.materialize(buf)
	c := &Cell{Combo: combo, X: t.EurekaUtil}
	if err := runCell(c, cfg, combo, intr, eur); err != nil {
		return nil, err
	}
	return c, nil
}
