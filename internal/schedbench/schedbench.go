// Package schedbench builds the standard scheduler-core benchmark scenario
// behind the resmgr BenchmarkIterate suite, so every run of those
// benchmarks measures exactly the same workload.
//
// The scenario is a blocked steady state on an Intrepid-sized pool: filler
// jobs occupy most of the machine, and every queued job needs more nodes
// than remain free, so each scheduling iteration plans nothing. That is the
// hot path of a loaded simulation — Iterate runs on every queue/pool change
// and usually starts nothing — and the path the incremental core's
// skip-cache, sorted queue, and maintained timeline optimize.
package schedbench

import (
	"fmt"

	"cosched/internal/cluster"
	"cosched/internal/job"
	"cosched/internal/policy"
	"cosched/internal/predict"
	"cosched/internal/resmgr"
	"cosched/internal/sim"
)

// Scenario dimensions. Fillers leave FreeNodes free; blocked jobs each ask
// for BlockedNodes > FreeNodes, so no plan can start or backfill them.
const (
	PoolNodes    = 40960 // Intrepid
	fillerCount  = 64
	fillerNodes  = 512 // 64 × 512 = 32768 busy
	FreeNodes    = PoolNodes - fillerCount*fillerNodes
	BlockedNodes = 2 * FreeNodes
)

// QueueSizes are the queue depths the BenchmarkIterate suite sweeps.
var QueueSizes = []int{1000, 4000, 16000}

// Steady returns an engine and manager settled at the blocked steady state:
// fillerCount running jobs and `queued` blocked jobs, FCFS + EASY backfill +
// walltime estimates. The returned blocked slice holds the queued jobs in
// submission order (for churn drivers); nextID is the first unused job ID.
func Steady(core resmgr.Core, queued int) (eng *sim.Engine, m *resmgr.Manager, blocked []*job.Job, nextID job.ID) {
	eng = sim.NewEngine()
	pool := cluster.New("bench", PoolNodes)
	m = resmgr.New(eng, resmgr.Options{
		Name:        "bench",
		Pool:        pool,
		Policy:      policy.FCFS{},
		Backfilling: true,
		Estimator:   predict.Walltime{},
		Core:        core,
	})

	id := job.ID(1)
	for i := 0; i < fillerCount; i++ {
		f := job.New(id, fillerNodes, 0, 30*sim.Day, 30*sim.Day)
		id++
		if err := m.Submit(f); err != nil {
			panic(fmt.Sprintf("schedbench: submit filler: %v", err))
		}
	}
	eng.RunUntil(0) // the coalesced iteration starts every filler
	if pool.Free() != FreeNodes {
		panic(fmt.Sprintf("schedbench: fillers did not settle: free=%d want %d", pool.Free(), FreeNodes))
	}

	blocked = make([]*job.Job, 0, queued)
	for i := 0; i < queued; i++ {
		j := job.New(id, BlockedNodes, 0, sim.Hour, sim.Hour)
		id++
		if err := m.Submit(j); err != nil {
			panic(fmt.Sprintf("schedbench: submit blocked: %v", err))
		}
		blocked = append(blocked, j)
	}
	eng.RunUntil(0) // one iteration over the full queue; plans nothing
	if m.QueueLength() != queued || pool.Free() != FreeNodes {
		panic(fmt.Sprintf("schedbench: blocked queue did not settle: queue=%d free=%d", m.QueueLength(), pool.Free()))
	}
	return eng, m, blocked, id
}

// Churn cancels victim (a queued blocked job) and submits a replacement,
// returning the replacement and next ID. Driving Iterate between Churn calls
// exercises queue removal/insertion and cache invalidation rather than the
// pure skip path; callers typically rotate victims through the blocked set.
func Churn(m *resmgr.Manager, victim *job.Job, nextID job.ID) (*job.Job, job.ID) {
	if err := m.Cancel(victim.ID); err != nil {
		panic(fmt.Sprintf("schedbench: churn cancel: %v", err))
	}
	j := job.New(nextID, BlockedNodes, 0, sim.Hour, sim.Hour)
	nextID++
	if err := m.Submit(j); err != nil {
		panic(fmt.Sprintf("schedbench: churn submit: %v", err))
	}
	return j, nextID
}
