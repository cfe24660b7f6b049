// Package schedbench builds the standard scheduler-core benchmark scenarios
// behind the resmgr BenchmarkIterate suite, so every run of those
// benchmarks measures exactly the same workloads.
//
// Steady is a blocked steady state on an Intrepid-sized pool: filler jobs
// occupy most of the machine, and every queued job needs more nodes than
// remain free, so each scheduling iteration plans nothing. That is the hot
// path of a loaded simulation — Iterate runs on every queue/pool change
// and usually starts nothing — and the path the incremental core's
// skip-cache, sorted queue, and maintained timeline optimize.
//
// WFPChurn is the other half: a WFP queue (time-varying scores, so no
// pre-sorted queue and no skip across instants) where every iteration
// scores, sorts and plans, and starts a job while others complete — the
// path of the paper's load sweep.
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

// WFP scenario dimensions: wfpRunning jobs of wfpNodes nodes fill the pool
// exactly, and each runs wfpRuntime seconds, so once their starts are
// staggered one second apart exactly one completes per simulated second.
const (
	wfpNodes   = 512
	wfpRunning = PoolNodes / wfpNodes
	wfpRuntime = sim.Duration(wfpRunning)
	wfpWindow  = 8 // stream look-ahead
)

// WFPQueueSizes are the queue depths the WFP benchmarks sweep. Paper-scale
// load sweeps average under ten eligible jobs per iteration; the deeper
// queues show how the warm-started sort scales.
var WFPQueueSizes = []int{8, 64, 512}

// WFPChurn is the planning counterpart of Steady: a WFP + EASY manager
// (indexed queue on the incremental core) whose every scheduling iteration
// scores, sorts and plans a non-empty plan. The pool is full of jobs whose
// completions fall one per simulated second; one job also arrives each
// second, so the queue stays `queued` deep and each second's single
// iteration starts the WFP head on the nodes the completion freed.
// Walltimes vary, so the WFP order shifts from one iteration to the next.
// Jobs stream in through SubmitTraceStream from a source that reuses a job
// record once the manager has folded it out of its registry, so the
// registry, the event heap and every buffer stay bounded: the steady state
// allocates nothing.
type WFPChurn struct {
	Eng *sim.Engine
	M   *resmgr.Manager
	src *recycler
}

// NewWFPChurn builds the scenario and runs it until every job started at
// time 0 has completed, so each Step from then on is the steady state.
func NewWFPChurn(core resmgr.Core, queued int) *WFPChurn {
	eng := sim.NewEngine()
	m := resmgr.New(eng, resmgr.Options{
		Name:        "bench",
		Pool:        cluster.New("bench", PoolNodes),
		Policy:      policy.WFP{},
		Backfilling: true,
		Estimator:   predict.Walltime{},
		Core:        core,
	})
	// Arrivals are one per second, and a job's WFP wait is bounded by the
	// queue depth times the walltime spread (4x), so this many records
	// outlive every job still registered.
	src := &recycler{m: m, queued: queued, ring: make([]job.Job, 8*(queued+wfpRunning+wfpWindow))}
	if err := m.SubmitTraceStream(src, wfpWindow); err != nil {
		panic(fmt.Sprintf("schedbench: %v", err))
	}
	w := &WFPChurn{Eng: eng, M: m, src: src}
	eng.RunUntil(0)
	if m.RunningCount() != wfpRunning || m.QueueLength() != queued {
		panic(fmt.Sprintf("schedbench: WFP scenario did not fill: running=%d queue=%d", m.RunningCount(), m.QueueLength()))
	}
	for eng.Now() < sim.Time(wfpRuntime) {
		w.Step()
	}
	return w
}

// Step advances the scenario one simulated second: one completion, one
// arrival and the one scheduling iteration they request, which starts a
// queued job.
func (w *WFPChurn) Step() { w.Eng.RunUntil(w.Eng.Now() + 1) }

// recycler is the scenario's endless job source (resmgr.JobSource). Job k
// reuses record k mod len(ring), which the manager folded out long before.
type recycler struct {
	m      *resmgr.Manager
	queued int
	ring   []job.Job
	next   int
}

// NextJob implements resmgr.JobSource: the first wfpRunning jobs arrive at
// time 0 with runtimes 1..wfpRunning (staggering the completions), the
// next `queued` at time 0 too, and then one per second, each running
// wfpRuntime under a walltime of one to four times that.
func (r *recycler) NextJob() (*job.Job, error) {
	k := r.next
	r.next++
	if folded := r.m.RegisteredCount() - len(r.m.JobsOrdered()); k >= len(r.ring) && k-len(r.ring) >= folded {
		panic("schedbench: job record reused while still registered; enlarge the ring")
	}
	runtime, submit := wfpRuntime, sim.Time(0)
	if k < wfpRunning {
		runtime = sim.Duration(k + 1)
	} else if k >= wfpRunning+r.queued {
		submit = sim.Time(k - wfpRunning - r.queued + 1)
	}
	j := &r.ring[k%len(r.ring)]
	*j = job.Job{
		ID:         job.ID(k + 1),
		Nodes:      wfpNodes,
		Runtime:    runtime,
		Walltime:   wfpRuntime * sim.Duration(1+k%4),
		SubmitTime: submit,
	}
	return j, nil
}
