// Package resmgr implements a Cobalt-style batch resource manager for one
// scheduling domain: a job queue ordered by a pluggable policy, EASY
// backfilling, and the coscheduling extension of Tang et al. (ICPP 2011) —
// Algorithm 1's Run_Job, the hold/yield schemes, the periodic-release
// deadlock breaker, and the held-fraction / max-yield / priority-boost
// enhancements.
//
// A Manager is driven entirely by a sim.Engine; the live daemon wraps the
// same Manager in a real-time driver. Managers in different domains talk to
// each other only through the cosched.Peer interface, so a direct in-process
// peer and the wire protocol are interchangeable.
package resmgr

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"cosched/internal/backfill"
	"cosched/internal/cluster"
	"cosched/internal/cosched"
	"cosched/internal/job"
	"cosched/internal/metrics"
	"cosched/internal/policy"
	"cosched/internal/predict"
	"cosched/internal/sim"
)

// Errors returned by Manager operations.
var (
	ErrUnknownJob   = errors.New("resmgr: unknown job")
	ErrDuplicateJob = errors.New("resmgr: duplicate job id")
	ErrBadState     = errors.New("resmgr: job in wrong state")
	ErrNoPeer       = errors.New("resmgr: no peer for domain")
)

// Observer receives job lifecycle notifications; all methods are optional
// via the Null implementation. Used by tests, the metrics layer, and the
// live daemon's log.
type Observer interface {
	JobSubmitted(now sim.Time, j *job.Job)
	JobStarted(now sim.Time, j *job.Job)
	JobCompleted(now sim.Time, j *job.Job)
	JobHeld(now sim.Time, j *job.Job)
	JobYielded(now sim.Time, j *job.Job)
	JobReleased(now sim.Time, j *job.Job, requeued bool)
	JobCancelled(now sim.Time, j *job.Job)
}

// ExpectObserver is an optional Observer extension notified when a job is
// pre-registered with Expect. A crash-safe daemon must journal expectations:
// a recovered manager that forgot an expected job would treat the mate's
// queries as "unknown job" and break the pair's co-start guarantee.
// Discovered by type assertion; plain Observers are unaffected.
type ExpectObserver interface {
	JobExpected(now sim.Time, j *job.Job)
}

// PeerDecisionObserver is an optional Observer extension recording the
// outcome of inbound peer start requests (TryStartMate/StartMate). The
// journal keeps these as audit records: replay does not need them (the
// resulting start/hold transitions are journaled separately), but a
// post-mortem of a recovery needs to know which starts were remotely
// initiated. Discovered by type assertion.
type PeerDecisionObserver interface {
	PeerDecision(now sim.Time, method string, id job.ID, ok bool)
}

// NullObserver ignores every notification.
type NullObserver struct{}

// JobSubmitted implements Observer.
func (NullObserver) JobSubmitted(sim.Time, *job.Job) {}

// JobStarted implements Observer.
func (NullObserver) JobStarted(sim.Time, *job.Job) {}

// JobCompleted implements Observer.
func (NullObserver) JobCompleted(sim.Time, *job.Job) {}

// JobHeld implements Observer.
func (NullObserver) JobHeld(sim.Time, *job.Job) {}

// JobYielded implements Observer.
func (NullObserver) JobYielded(sim.Time, *job.Job) {}

// JobReleased implements Observer.
func (NullObserver) JobReleased(sim.Time, *job.Job, bool) {}

// JobCancelled implements Observer.
func (NullObserver) JobCancelled(sim.Time, *job.Job) {}

// jobSlot is the manager-owned state of one active (queued, holding or
// running) job, reached through the job's Slot index instead of hashing
// its ID on every lifecycle event.
type jobSlot struct {
	j       *job.Job
	alloc   *cluster.Allocation // run or hold allocation; nil while queued
	allocID int64               // the ID alloc was granted under
	end     sim.EventRef        // completion event while running
	// endBy is the release bound the planners were told while running,
	// which doubles as the key of the job's maintained timeline entry.
	endBy sim.Time
	// pos is the job's index in m.running or m.holding, by state; while
	// queued, its index in m.queue in indexed-queue mode.
	pos     int
	yieldAt sim.Time // instant of the job's last yield here; -1 if none
	demoted bool     // ranked last for the current iteration
}

// BackfillMode selects the planner strategy.
type BackfillMode int

const (
	// BackfillNone starts jobs strictly in priority order.
	BackfillNone BackfillMode = iota
	// BackfillEASY protects only the highest-priority blocked job
	// (aggressive backfilling — the paper's production setting).
	BackfillEASY
	// BackfillConservative reserves a slot for every blocked job.
	BackfillConservative
)

// String returns the mode's configuration name.
func (m BackfillMode) String() string {
	switch m {
	case BackfillEASY:
		return "easy"
	case BackfillConservative:
		return "conservative"
	default:
		return "none"
	}
}

// ParseBackfillMode resolves "", "none", "easy", "conservative".
func ParseBackfillMode(s string) (BackfillMode, bool) {
	switch s {
	case "none":
		return BackfillNone, true
	case "", "easy":
		return BackfillEASY, true
	case "conservative":
		return BackfillConservative, true
	default:
		return BackfillNone, false
	}
}

// Options configures a Manager.
type Options struct {
	Name        string            // domain name, e.g. "intrepid"
	Pool        *cluster.Pool     // node pool (required)
	Policy      policy.Policy     // queue order; nil = WFP
	Backfilling bool              // enable backfill (EASY unless Mode set)
	Mode        BackfillMode      // planner strategy when Backfilling is set
	Estimator   predict.Estimator // backfill planning runtimes; nil = walltime
	Cosched     cosched.Config    // coscheduling configuration
	Observer    Observer          // nil = NullObserver
	Core        Core              // scheduling core; zero value = incremental
}

// Manager is the resource manager for one domain. Not safe for concurrent
// use; the engine's single-threaded event loop serializes everything.
type Manager struct {
	name string
	eng  *sim.Engine
	pool *cluster.Pool
	pol  policy.Policy
	bf   BackfillMode
	est  predict.Estimator
	cfg  cosched.Config
	obs  Observer

	peers map[string]cosched.Peer

	// jobs serves lookups by ID (Cancel, Job, the peer methods); the
	// lifecycle path reaches a job's state through its slot instead.
	jobs map[job.ID]*job.Job
	// all mirrors jobs in insertion order. Jobs() iterates it instead of
	// the map so downstream consumers (streaming metrics, audits) see a
	// deterministic order without sorting; nothing is ever removed from
	// the registry, so the two stay in lockstep.
	all   []*job.Job
	queue []*job.Job
	// running and holding list the jobs in those states in no particular
	// order; each job's slot records its index for O(1) swap-removal.
	running []*job.Job
	holding []*job.Job

	// slots holds the dense per-job state of every active job, indexed by
	// job.Slot. slots[0] is never bound, so Slot 0 means "not active
	// here"; freeSlots recycles the indexes of jobs that ended.
	slots     []jobSlot
	freeSlots []int32

	// lastYield is the instant of the most recent yield (-1 before the
	// first): Iterate scans the queue for same-instant yielders only when
	// it is now. demoting is set for the one iteration in which the
	// release scan's requeued holders (slots marked demoted) rank last.
	lastYield sim.Time
	demoting  bool

	// releaseScan is the single armed timer implementing the periodic
	// hold-release enhancement; it fires when the longest-held job
	// reaches the release interval and is retargeted as holds come and
	// go. One scan (and one scheduling iteration) replaces what would
	// otherwise be a timer per holding job.
	releaseScan sim.EventRef

	iterPending bool
	completed   int
	cancelled   int
	iterations  uint64

	// holdBudget caps concurrent holds when the daemon degrades to
	// journal-less mode (-1 = no cap); holdsRefused counts the holds the
	// budget downgraded to yields. See SetHoldBudget.
	holdBudget   int
	holdsRefused uint64

	// ord, releasesBuf, eligBuf, planBuf and dueBuf are reusable
	// per-iteration buffers; Iterate runs on every queue/pool change, so
	// allocating them fresh each time is a measurable share of a
	// simulation's allocation bill. boostFn and estFn pin the bound-method
	// closures once instead of re-creating (and heap-allocating) them
	// every iteration.
	ord         policy.Orderer
	releasesBuf []backfill.Release
	eligBuf     []*job.Job
	planBuf     []backfill.Decision
	dueBuf      []*job.Job
	boostFn     policy.Boost
	estFn       backfill.EstimateFunc

	// Incremental core state (see Core in incremental.go). The mode flags
	// are fixed at construction: sortedQueue keeps the queue canonically
	// ordered (time-invariant policy, yield-boost off); indexedQueue
	// otherwise, with slot positions for O(1) removal and the storage left
	// in the last canonical order to warm-start the next sort; maintainTL
	// keeps the release timeline sorted across iterations (stable
	// estimator); acrossInstant widens the skip-cache beyond a single
	// simulated instant.
	core          Core
	sortedQueue   bool
	indexedQueue  bool
	maintainTL    bool
	acrossInstant bool
	timeline      []backfill.Release

	queueV, timelineV, yieldV uint64

	lastFP      iterFP
	lastFPValid bool
	lastEmpty   bool
	skips       uint64

	// Prebuilt event handlers. Scheduling with a fresh closure (or method
	// value) heap-allocates the function value per event; building these
	// once in New and passing the varying job through AtArg/AfterArg makes
	// every steady-state event on the job lifecycle path allocation-free.
	iterFn     sim.Handler    // RequestIteration body
	releaseFn  sim.Handler    // releaseScanFire method value, pinned once
	submitFn   sim.ArgHandler // trace-replay submission (arg = *job.Job)
	completeFn sim.ArgHandler // job completion (arg = *job.Job)

	// Chained trace replay (SubmitTrace): the sorted trace, the cursor to
	// the next unsubmitted job, and the pinned chain handler.
	replay    []*job.Job
	replayIdx int
	replayFn  sim.Handler

	// Streaming trace replay (SubmitTraceStream): the pull source feeding
	// the cursor window, the look-ahead size, and the fold state that lets
	// terminal jobs leave the registry — see stream.go. allHead is the
	// index of the first live registry entry; entries before it were folded
	// into collector (registration order) and evicted.
	streaming        bool
	src              JobSource
	streamWindow     int
	srcDone          bool
	streamErr        error
	streamStarted    bool
	lastStreamSubmit sim.Time
	collector        *metrics.Collector
	allHead          int
	folded           int
}

// bind gives j a slot as it becomes active here (submission or restore),
// recycling the slot of a job that ended when one is free.
func (m *Manager) bind(j *job.Job) {
	var s int32
	if k := len(m.freeSlots); k > 0 {
		s = m.freeSlots[k-1]
		m.freeSlots = m.freeSlots[:k-1]
	} else {
		m.slots = append(m.slots, jobSlot{})
		s = int32(len(m.slots) - 1)
	}
	m.slots[s] = jobSlot{j: j, yieldAt: -1}
	j.Slot = s
}

// unbind frees j's slot as it reaches a terminal state.
func (m *Manager) unbind(j *job.Job) {
	m.slots[j.Slot] = jobSlot{}
	m.freeSlots = append(m.freeSlots, j.Slot)
	j.Slot = 0
}

// slotOf returns j's slot, or nil when j is not active in this manager.
// Paths that may see a job another manager owns, or one that ended, check
// through it; paths that know j is active here index m.slots directly.
func (m *Manager) slotOf(j *job.Job) *jobSlot {
	if s := j.Slot; s > 0 && int(s) < len(m.slots) && m.slots[s].j == j {
		return &m.slots[s]
	}
	return nil
}

// listAdd appends an active job to m.running or m.holding (or the indexed
// queue), recording its index in its slot.
func (m *Manager) listAdd(list *[]*job.Job, j *job.Job) {
	m.slots[j.Slot].pos = len(*list)
	*list = append(*list, j)
}

// listRemove swap-removes j from the list listAdd put it in.
func (m *Manager) listRemove(list *[]*job.Job, j *job.Job) {
	l := *list
	idx, last := m.slots[j.Slot].pos, len(l)-1
	moved := l[last]
	l[idx] = moved
	m.slots[moved.Slot].pos = idx
	l[last] = nil
	*list = l[:last]
}

// New creates a Manager bound to engine eng.
func New(eng *sim.Engine, opt Options) *Manager {
	if opt.Pool == nil {
		panic("resmgr: Options.Pool is required")
	}
	pol := opt.Policy
	if pol == nil {
		pol = policy.WFP{}
	}
	obs := opt.Observer
	if obs == nil {
		obs = NullObserver{}
	}
	name := opt.Name
	if name == "" {
		name = opt.Pool.Name()
	}
	est := opt.Estimator
	if est == nil {
		est = predict.Walltime{}
	}
	mode := BackfillNone
	if opt.Backfilling {
		mode = BackfillEASY
		if opt.Mode != BackfillNone {
			mode = opt.Mode
		}
	}
	m := &Manager{
		name:       name,
		eng:        eng,
		pool:       opt.Pool,
		pol:        pol,
		bf:         mode,
		est:        est,
		cfg:        opt.Cosched,
		obs:        obs,
		peers:      make(map[string]cosched.Peer),
		jobs:       make(map[job.ID]*job.Job),
		slots:      make([]jobSlot, 1),
		lastYield:  -1,
		core:       opt.Core,
		holdBudget: -1,
	}
	m.boostFn = m.boost
	m.estFn = m.est.Estimate
	m.iterFn = func(now sim.Time) {
		m.iterPending = false
		m.Iterate(now)
	}
	m.releaseFn = m.releaseScanFire
	m.submitFn = func(_ sim.Time, arg any) {
		j := arg.(*job.Job)
		if j.State == job.Cancelled {
			return // withdrawn before arrival
		}
		// Submit resets SubmitTime to now, which equals j.SubmitTime.
		if err := m.submit(j); err != nil {
			panic(fmt.Sprintf("resmgr %s: replay submit job %d: %v", m.name, j.ID, err))
		}
	}
	m.completeFn = func(end sim.Time, arg any) {
		m.completeJob(arg.(*job.Job), end)
	}
	m.replayFn = m.replayStep
	if m.core == CoreIncremental {
		// The queue stays pre-sorted only when the canonical order is a
		// function of queue membership alone: time-invariant scores and no
		// per-yield boosts (demotion iterations fall back to a full sort
		// per iteration instead of disabling the mode). Otherwise slot
		// positions give O(1) removal and each iteration sorts the queue
		// storage in place, starting from the last iteration's order.
		m.sortedQueue = policy.IsTimeInvariant(pol) && !m.cfg.YieldBoost
		m.indexedQueue = !m.sortedQueue
		// The timeline caches each running job's endBy at start, so it is
		// maintainable only while the estimator's predictions cannot drift
		// afterwards; unstable estimators rebuild per iteration.
		m.maintainTL = predict.IsStable(est)
		// Skips may span instants only when plan emptiness is monotone in
		// now — see iterFP. Conservative backfilling re-derives every
		// reservation from a full profile, so it stays same-instant.
		m.acrossInstant = policy.IsTimeInvariant(pol) && m.maintainTL &&
			mode != BackfillConservative
	}
	return m
}

// Name returns the domain name.
func (m *Manager) Name() string { return m.name }

// Pool returns the node pool.
func (m *Manager) Pool() *cluster.Pool { return m.pool }

// Config returns the coscheduling configuration.
func (m *Manager) Config() cosched.Config { return m.cfg }

// Engine returns the simulation engine driving this manager.
func (m *Manager) Engine() *sim.Engine { return m.eng }

// Iterations returns how many scheduling iterations have run.
func (m *Manager) Iterations() uint64 { return m.iterations }

// AddPeer registers the peer serving the named remote domain.
func (m *Manager) AddPeer(domain string, p cosched.Peer) { m.peers[domain] = p }

// peerFor returns the peer for a mate reference.
func (m *Manager) peerFor(ref job.MateRef) (cosched.Peer, error) {
	p, ok := m.peers[ref.Domain]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoPeer, ref.Domain)
	}
	return p, nil
}

// addJob is the single registration point for the job registry: every path
// that writes m.jobs goes through it so the insertion-ordered mirror stays
// consistent with the map.
func (m *Manager) addJob(j *job.Job) {
	m.jobs[j.ID] = j
	m.all = append(m.all, j)
}

// Expect pre-registers a job that will be submitted later (trace-driven
// operation). Until Submit, peers asking about it see StatusUnsubmitted.
func (m *Manager) Expect(j *job.Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if _, dup := m.jobs[j.ID]; dup {
		return fmt.Errorf("%w: %d", ErrDuplicateJob, j.ID)
	}
	if j.State != job.Unsubmitted {
		return fmt.Errorf("%w: job %d is %s, want unsubmitted", ErrBadState, j.ID, j.State)
	}
	m.addJob(j)
	if eo, ok := m.obs.(ExpectObserver); ok {
		eo.JobExpected(m.eng.Now(), j)
	}
	return nil
}

// Submit moves a job into the queue. Jobs not previously registered with
// Expect are registered on the fly. A scheduling iteration is requested.
func (m *Manager) Submit(j *job.Job) error {
	existing, known := m.jobs[j.ID]
	if known && existing != j {
		return fmt.Errorf("%w: %d", ErrDuplicateJob, j.ID)
	}
	if !known {
		if err := j.Validate(); err != nil {
			return err
		}
		m.addJob(j)
	}
	return m.submit(j)
}

// submit queues a job registered with this manager. The trace-replay
// paths call it directly: they registered the job themselves, so the
// registry lookup Submit makes would only re-hash a known ID.
func (m *Manager) submit(j *job.Job) error {
	if j.State != job.Unsubmitted {
		return fmt.Errorf("%w: job %d is %s, want unsubmitted", ErrBadState, j.ID, j.State)
	}
	if err := j.Advance(job.Queued); err != nil {
		return err
	}
	now := m.eng.Now()
	j.SubmitTime = now
	m.bind(j)
	m.enqueue(j)
	m.obs.JobSubmitted(now, j)
	m.RequestIteration()
	return nil
}

// SubmitAt schedules Submit(j) at the job's SubmitTime on the engine.
// It is the single-job trace-replay entry point; bulk traces should use
// SubmitTrace, which replays through one chained event instead of
// preloading the event heap with one submission per job.
func (m *Manager) SubmitAt(j *job.Job) error {
	if err := m.Expect(j); err != nil {
		return err
	}
	_, err := m.eng.AtArg(j.SubmitTime, sim.PrioritySubmit, m.submitFn, j)
	return err
}

// SubmitTrace registers a whole submit-time-sorted trace and replays it
// through a single chained submission event: only the next arrival is ever
// in the event heap, so the heap's size — and every push/pop's comparison
// depth — tracks the running-job population instead of the full trace
// length. Jobs cancelled before their submit instant are skipped, exactly
// as SubmitAt's replay event would. The relative order of same-instant
// submissions is the trace order, which matches scheduling one SubmitAt
// event per job in trace order (both fire in PrioritySubmit band, in
// sequence order). Call once per manager, before the run starts.
func (m *Manager) SubmitTrace(jobs []*job.Job) error {
	if m.replay != nil || m.streaming {
		return fmt.Errorf("resmgr %s: SubmitTrace called twice", m.name)
	}
	if len(m.jobs) == 0 && len(jobs) > 0 {
		// Presize the registry for the whole trace: incremental map growth
		// during bulk Expect is a measurable slice of short simulations.
		m.jobs = make(map[job.ID]*job.Job, len(jobs))
		m.all = make([]*job.Job, 0, len(jobs))
	}
	for i, j := range jobs {
		if i > 0 && j.SubmitTime < jobs[i-1].SubmitTime {
			return fmt.Errorf("resmgr %s: SubmitTrace: trace not sorted by submit time at index %d", m.name, i)
		}
		if err := m.Expect(j); err != nil {
			return err
		}
	}
	m.replay = jobs
	m.armReplay()
	return nil
}

// armReplay schedules the chained submission event for the next
// unsubmitted trace job, if any.
func (m *Manager) armReplay() {
	if m.replayIdx >= len(m.replay) {
		return
	}
	if _, err := m.eng.At(m.replay[m.replayIdx].SubmitTime, sim.PrioritySubmit, m.replayFn); err != nil {
		panic(fmt.Sprintf("resmgr %s: armReplay: %v", m.name, err))
	}
}

// replayStep submits every trace job due at the current instant, then
// re-arms the chain for the next arrival. In streaming mode the window is
// refilled between submission bursts: a refill may surface more jobs due
// at this same instant, which must submit now to match what SubmitTrace
// would have done with the materialized trace.
func (m *Manager) replayStep(now sim.Time) {
	for {
		for m.replayIdx < len(m.replay) {
			j := m.replay[m.replayIdx]
			if j.SubmitTime != now {
				break
			}
			m.replayIdx++
			if j.State == job.Cancelled {
				continue // withdrawn before arrival; see Cancel
			}
			if err := m.submit(j); err != nil {
				panic(fmt.Sprintf("resmgr %s: replay submit job %d: %v", m.name, j.ID, err))
			}
		}
		if !m.streaming || m.srcDone || m.streamErr != nil {
			break
		}
		before := len(m.replay) - m.replayIdx
		if err := m.refillStream(); err != nil {
			// A bad source stops further arrivals; the jobs already in
			// flight finish normally and StreamErr reports the cause.
			m.streamErr = err
			break
		}
		if len(m.replay)-m.replayIdx == before {
			break // window already full (or drained): nothing new due now
		}
		if m.replayIdx >= len(m.replay) || m.replay[m.replayIdx].SubmitTime != now {
			break
		}
	}
	m.armReplay()
}

// Job returns the job with the given ID, if known.
func (m *Manager) Job(id job.ID) (*job.Job, bool) {
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns all known jobs (any state) in registration order. The order
// is deterministic — streaming metrics accumulate in it — and the slice is
// freshly allocated; the pointed-to jobs are live. In streaming mode,
// terminal jobs already folded out of the registry are absent (their
// contribution lives in the manager's collector; see CollectReport).
func (m *Manager) Jobs() []*job.Job {
	live := m.all[m.allHead:]
	out := make([]*job.Job, len(live))
	copy(out, live)
	return out
}

// JobsOrdered returns the internal registration-ordered job slice without
// copying. Callers must not mutate it; it is meant for read-only metric
// sweeps over very large job populations.
func (m *Manager) JobsOrdered() []*job.Job { return m.all[m.allHead:] }

// QueueLength returns the number of queued jobs.
func (m *Manager) QueueLength() int { return len(m.queue) }

// RunningCount returns the number of running jobs.
func (m *Manager) RunningCount() int { return len(m.running) }

// HoldingCount returns the number of holding jobs.
func (m *Manager) HoldingCount() int { return len(m.holding) }

// SetHoldBudget caps how many jobs may hold concurrently; a hold that
// would exceed the cap is downgraded to a yield (counted by
// HoldsRefused). Negative removes the cap. The daemon's degradation
// controller sets this when the journal is lost: without durability the
// held-job table cannot survive a crash, so a degraded daemon keeps its
// exposure bounded rather than refusing service outright.
func (m *Manager) SetHoldBudget(n int) { m.holdBudget = n }

// HoldBudget returns the current hold cap (-1 = none).
func (m *Manager) HoldBudget() int { return m.holdBudget }

// HoldsRefused returns how many holds the budget downgraded to yields.
func (m *Manager) HoldsRefused() uint64 { return m.holdsRefused }

// CompletedCount returns the number of completed jobs.
func (m *Manager) CompletedCount() int { return m.completed }

// CancelledCount returns the number of cancelled jobs.
func (m *Manager) CancelledCount() int { return m.cancelled }

// Cancel withdraws a job (the qdel operation): a queued job leaves the
// queue, a holding job releases its nodes, a running job is killed and its
// nodes freed, an expected job will never be submitted. Terminal jobs
// cannot be cancelled.
func (m *Manager) Cancel(id job.ID) error {
	j, ok := m.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownJob, id)
	}
	now := m.eng.Now()
	switch j.State {
	case job.Unsubmitted:
		// The replay submit event (if any) checks the state and skips.
	case job.Queued:
		m.removeFromQueue(j)
		m.unbind(j)
	case job.Holding:
		s := &m.slots[j.Slot]
		j.HeldNodeSeconds += int64(s.alloc.Allocated) * (now - j.HoldStart)
		if err := m.pool.Release(now, s.alloc, s.allocID); err != nil {
			panic(fmt.Sprintf("resmgr %s: cancel hold: %v", m.name, err))
		}
		m.listRemove(&m.holding, j)
		m.unbind(j)
		m.scheduleReleaseScan()
	case job.Running:
		s := &m.slots[j.Slot]
		s.end.Cancel()
		if err := m.pool.Release(now, s.alloc, s.allocID); err != nil {
			panic(fmt.Sprintf("resmgr %s: cancel run: %v", m.name, err))
		}
		m.runReleaseDrop(s)
		m.listRemove(&m.running, j)
		m.unbind(j)
	default:
		return fmt.Errorf("%w: job %d is %s", ErrBadState, id, j.State)
	}
	if err := j.Advance(job.Cancelled); err != nil {
		panic(fmt.Sprintf("resmgr %s: cancel: %v", m.name, err))
	}
	j.EndTime = now
	m.cancelled++
	m.obs.JobCancelled(now, j)
	m.foldTerminalPrefix()
	m.RequestIteration()
	return nil
}

// RequestIteration schedules a scheduling iteration at the current instant
// (priority PrioritySchedule). Multiple requests at one instant coalesce.
func (m *Manager) RequestIteration() {
	if m.iterPending {
		return
	}
	m.iterPending = true
	m.eng.After(0, sim.PrioritySchedule, m.iterFn)
}

// boost computes the per-job additive priority adjustment: iteration-scoped
// demotion for released holders, escalation boosts for repeat yielders.
func (m *Manager) boost(j *job.Job) float64 {
	if m.demoting && m.slots[j.Slot].demoted {
		return policy.DemotionBoost
	}
	if m.cfg.YieldBoost {
		return policy.YieldBoost(j.YieldCount)
	}
	return 0
}

// Iterate runs one scheduling iteration: order the queue, plan starts with
// (optional) EASY backfill, then push each planned job through Run_Job.
// The incremental core consults its skip-cache first — when no planner
// input has changed since an iteration whose plan was empty, planning is
// elided outright (the iteration still counts in Iterations()).
func (m *Manager) Iterate(now sim.Time) {
	m.iterations++
	// A job that yielded at this instant gave up its slot for the rest of
	// the instant: excluding it from the plan lets other jobs use the
	// nodes it declined (the "additional scheduling iteration" yieldJob
	// requests), and prevents a yield livelock within one event time.
	eligible, excluded := m.queue, 0
	if m.lastYield == now {
		eligible, excluded = m.dropYielders(now)
	}

	// Stale-timeline check before fingerprinting: a correction bumps
	// timelineV, so a cached empty plan computed against the old release
	// bounds cannot be replayed.
	if m.maintainTL && len(m.timeline) > 0 && m.timeline[0].EndBy <= now {
		m.timelineRebuild(now)
	}
	// Demotion iterations (the release-scan deadlock breaker) reorder via
	// boosts the fingerprint does not see; they bypass and poison the
	// cache rather than widen it for a once-per-interval event.
	useCache := m.core == CoreIncremental && !m.demoting
	var fp iterFP
	if useCache {
		fp = m.fingerprint(now, excluded)
		if m.lastFPValid && fp == m.lastFP && m.lastEmpty {
			m.skips++
			return
		}
	}

	// A completely full pool cannot start, hold, or backfill anything at
	// this instant — every plan entry charges at least one node — so the
	// plan is empty by construction under every planner and the whole
	// score/sort/plan pass can be skipped. Completions free their nodes
	// before the same-instant scheduling iteration fires (PriorityEnd <
	// PrioritySchedule), so the shortcut is exact, not heuristic. The
	// incremental core widens it to every pool no eligible job fits (see
	// noneFits).
	if m.pool.Free() == 0 || m.noneFits(eligible) {
		if m.core == CoreIncremental {
			if useCache {
				m.lastFP, m.lastEmpty, m.lastFPValid = fp, true, true
			} else {
				m.lastFPValid = false
			}
		}
		return
	}

	var ordered []*job.Job
	switch {
	case m.sortedQueue && !m.demoting:
		// The queue storage already holds the canonical order and every
		// boost is zero (time-invariant policy, yield-boost off, no
		// demotions), so Orderer.Order would return this exact
		// permutation — skip the score-and-sort entirely.
		ordered = eligible
	case m.indexedQueue:
		// Sort in place: storage order is free in indexed mode, so no
		// copy is needed. eligible is either the queue itself (refresh
		// the slot positions) or the exclusion buffer copied from it.
		m.ord.Sort(m.pol, eligible, now, m.boostFn)
		if excluded == 0 {
			for i, j := range eligible {
				m.slots[j.Slot].pos = i
			}
		}
		ordered = eligible
	default:
		ordered = m.ord.Order(m.pol, eligible, now, m.boostFn)
	}
	m.checkOrder(ordered, now)

	releases := m.planReleases(now)

	var plan []backfill.Decision
	if m.bf == BackfillConservative {
		plan = backfill.PlanConservativeInto(m.planBuf, ordered, m.pool.Total(), m.pool.Free(),
			m.pool.ChargeFor, releases, now, m.estFn)
	} else {
		plan = backfill.PlanInto(m.planBuf, ordered, m.pool.Free(), m.pool.ChargeFor,
			releases, now, m.bf == BackfillEASY, m.estFn)
	}
	m.planBuf = plan[:0]

	if m.core == CoreIncremental {
		if useCache {
			// Record the pre-execution state: if the plan is empty,
			// execution changes nothing and an identical future state may
			// skip; if not, execution bumps versions and the entry is inert.
			m.lastFP, m.lastEmpty, m.lastFPValid = fp, len(plan) == 0, true
		} else {
			m.lastFPValid = false
		}
	}

	for _, d := range plan {
		j := d.Job
		if j.State != job.Queued {
			continue // started/held meanwhile (e.g. via TryStartMate)
		}
		if !m.pool.CanAllocate(j.Nodes) {
			continue // nodes consumed by an earlier hold in this plan
		}
		m.RunJob(j, now, d.HoldSafe)
	}
}

// dropYielders returns the queue without the jobs that yielded at now (in
// the reusable eligibility buffer) and how many it dropped.
func (m *Manager) dropYielders(now sim.Time) ([]*job.Job, int) {
	for i, j := range m.queue {
		if m.slots[j.Slot].yieldAt != now {
			continue
		}
		buf := m.eligBuf[:0]
		if cap(buf) < len(m.queue) {
			buf = make([]*job.Job, 0, len(m.queue))
		}
		buf = append(buf, m.queue[:i]...)
		excluded := 1
		for _, k := range m.queue[i+1:] {
			if m.slots[k.Slot].yieldAt == now {
				excluded++
				continue
			}
			buf = append(buf, k)
		}
		m.eligBuf = buf
		return buf, excluded
	}
	return m.queue, 0
}

// noneFits reports, for the incremental core under EASY or no backfill,
// that no eligible job's charge fits the free nodes. Both planners admit a
// job only if it fits now, so the plan is then empty by construction and
// Iterate returns before scoring, sorting and planning, as for a full
// pool.
func (m *Manager) noneFits(eligible []*job.Job) bool {
	if m.core != CoreIncremental || m.bf == BackfillConservative {
		return false
	}
	free := m.pool.Free()
	for _, j := range eligible {
		if m.pool.ChargeFor(j.Nodes) <= free {
			return false
		}
	}
	return true
}

// RunJob is Algorithm 1: start, hold, or yield a scheduled job j that the
// planner selected to run now with sufficient free nodes. holdSafe reports
// whether the job may occupy its nodes indefinitely without trampling the
// backfill reservation of a blocked higher-priority job; a job admitted
// only for its bounded walltime must yield rather than hold, since a hold
// is an unbounded occupation the EASY guarantee cannot absorb.
func (m *Manager) RunJob(j *job.Job, now sim.Time, holdSafe bool) {
	j.MarkReady(now)

	// Lines 34–36: coscheduling disabled → start normally.
	if !m.cfg.Enabled || !j.Paired() {
		m.startJob(j, now)
		return
	}

	// Query every mate (one for the paper's pairs; several for the N-way
	// extension). Fault tolerance: peer errors and unknown mates drop out
	// of the coordination set.
	type mateInfo struct {
		peer   cosched.Peer
		ref    job.MateRef
		status cosched.MateStatus
	}
	// Coordination sets are tiny (one mate for the paper's pairs, a
	// handful for N-way groups); stack-backed storage keeps this hot path
	// off the heap, falling back to append growth only past 4 mates.
	var matesArr [4]mateInfo
	mates := matesArr[:0]
	for _, ref := range j.Mates {
		p, err := m.peerFor(ref)
		if err != nil {
			continue // no peer configured: behave as mate unknown
		}
		known, err := p.GetMateJob(ref.Job)
		if err != nil || !known {
			continue // lines 30–31 / 25–26: start normally
		}
		st, err := p.GetMateStatus(ref.Job)
		if err != nil || st == cosched.StatusUnknown {
			continue
		}
		mates = append(mates, mateInfo{peer: p, ref: ref, status: st})
	}
	if len(mates) == 0 {
		m.startJob(j, now)
		return
	}

	// Partition the mates by what must happen for a simultaneous start.
	var releaseArr, tryArr [4]mateInfo
	toRelease := releaseArr[:0] // holding: release into run once we start
	toTry := tryArr[:0]         // queuing/unsubmitted: need TryStartMate
	terminalOnly := true
	for _, mi := range mates {
		switch mi.status {
		case cosched.StatusHolding:
			toRelease = append(toRelease, mi)
			terminalOnly = false
		case cosched.StatusQueuing, cosched.StatusUnsubmitted:
			toTry = append(toTry, mi)
			terminalOnly = false
		case cosched.StatusRunning, cosched.StatusCompleted:
			// Mate already past coordination (fault-tolerance fallback
			// start, or finished); it imposes no constraint.
		}
	}
	if terminalOnly {
		m.startJob(j, now)
		return
	}

	// Probe the non-ready mates first so an N-way group never starts
	// partially: every TryStartMate must be expected to succeed before any
	// is issued. (For 2-way this is one probe + one try, matching the
	// paper's tryStartMate exchange.)
	allStartable := true
	for _, mi := range toTry {
		ok, err := mi.peer.CanStartMate(mi.ref.Job)
		if err != nil || !ok {
			allStartable = false
			break
		}
	}
	if allStartable {
		// The resolver proposes now as the group's co-start instant; every
		// callee records it verbatim (see cosched.CoStarter), so the whole
		// group shares one start time even across live wall clocks.
		started := true
		for _, mi := range toTry {
			ok, err := tryStartMateAt(mi.peer, mi.ref.Job, now)
			if err != nil || !ok {
				started = false
				break
			}
		}
		if started {
			// Line 14 + lines 7–8: start self, then release holders.
			m.startJob(j, now)
			for _, mi := range toRelease {
				if err := startMateAt(mi.peer, mi.ref.Job, now); err != nil {
					// Peer failure after our start: nothing to undo —
					// the mate's own fault tolerance applies.
					continue
				}
			}
			return
		}
	}

	// Lines 16–23: mate cannot run now → hold or yield per local scheme.
	m.holdOrYield(j, now, holdSafe)
}

// holdOrYield applies the locally configured scheme with the §IV-E2
// threshold adjustments and the reservation-safety constraint.
func (m *Manager) holdOrYield(j *job.Job, now sim.Time, holdSafe bool) {
	scheme := m.cfg.Scheme

	// A hold that would delay a blocked higher-priority job's backfill
	// reservation is downgraded to a yield regardless of configuration.
	if !holdSafe {
		scheme = cosched.Yield
	}

	// Max-yield escalation: a job that yielded too often may hold.
	if scheme == cosched.Yield && m.cfg.MaxYields > 0 && j.YieldCount >= m.cfg.MaxYields {
		scheme = cosched.Hold
	}
	// Held-fraction cap: a hold that would exceed the cap yields instead.
	if scheme == cosched.Hold {
		maxFrac := m.cfg.EffectiveMaxHeldFraction()
		charge := m.pool.ChargeFor(j.Nodes)
		frac := float64(m.pool.Held()+charge) / float64(m.pool.Total())
		if frac > maxFrac {
			scheme = cosched.Yield
		}
	}
	// Degraded-mode hold budget: a journal-less daemon refuses holds
	// beyond the ceiling — holds are exactly the state that cannot be
	// rebuilt after a crash without a journal, so the budget bounds the
	// blast radius while durability is gone. Refused holds yield.
	if scheme == cosched.Hold && m.holdBudget >= 0 && len(m.holding) >= m.holdBudget {
		m.holdsRefused++
		scheme = cosched.Yield
	}

	if scheme == cosched.Hold {
		m.holdJob(j, now)
	} else {
		m.yieldJob(j, now)
	}
}

// startJob transitions a queued job to Running on freshly allocated nodes
// and schedules its completion. The planner guaranteed the allocation fits.
func (m *Manager) startJob(j *job.Job, now sim.Time) {
	m.startJobAt(j, now, now)
}

// startJobAt is startJob recording `at` as the job's start instant. at == now
// everywhere except when a remote resolver proposed the co-start instant over
// the wire (cosched.CoStarter) or a reconciliation adopts a surviving mate's
// historical start; the completion is always scheduled from the local clock,
// so adopted instants never rewind the engine.
func (m *Manager) startJobAt(j *job.Job, at, now sim.Time) {
	alloc, err := m.pool.Allocate(now, j.Nodes, cluster.AllocRun)
	if err != nil {
		// Plan raced with a TryStartMate that consumed nodes; leave the
		// job queued for the next iteration.
		return
	}
	if err := j.Advance(job.Running); err != nil {
		_ = m.pool.Release(now, alloc, alloc.ID)
		panic(fmt.Sprintf("resmgr %s: startJob: %v", m.name, err))
	}
	j.StartTime = at
	m.removeFromQueue(j)
	s := &m.slots[j.Slot]
	s.alloc, s.allocID = alloc, alloc.ID
	m.runReleaseAdd(s)
	s.end = m.eng.AfterArg(j.Runtime, sim.PriorityEnd, m.completeFn, j)
	m.listAdd(&m.running, j)
	m.obs.JobStarted(at, j)
}

// startHeldJob converts a Holding job's allocation to Run and schedules
// completion — the "its mate got ready, start now" path.
func (m *Manager) startHeldJob(j *job.Job, now sim.Time) error {
	return m.startHeldJobAt(j, now, now)
}

// startHeldJobAt is startHeldJob recording `at` as the start instant (see
// startJobAt). Held-node-seconds accrue to the local clock: the hold really
// did occupy nodes until now, whatever instant the pair agrees to record.
func (m *Manager) startHeldJobAt(j *job.Job, at, now sim.Time) error {
	s := m.slotOf(j)
	if s == nil || j.State != job.Holding {
		return fmt.Errorf("%w: job %d not holding", ErrBadState, j.ID)
	}
	if _, err := m.pool.Convert(now, s.alloc, s.allocID, cluster.AllocRun); err != nil {
		return err
	}
	m.listRemove(&m.holding, j)
	m.scheduleReleaseScan()
	j.HeldNodeSeconds += int64(s.alloc.Allocated) * (now - j.HoldStart)
	if err := j.Advance(job.Running); err != nil {
		panic(fmt.Sprintf("resmgr %s: startHeldJob: %v", m.name, err))
	}
	j.StartTime = at
	m.runReleaseAdd(s)
	s.end = m.eng.AfterArg(j.Runtime, sim.PriorityEnd, m.completeFn, j)
	m.listAdd(&m.running, j)
	m.obs.JobStarted(at, j)
	return nil
}

// holdJob implements self.holdJob(j, N): allocate the nodes as held and
// arm the periodic release timer.
func (m *Manager) holdJob(j *job.Job, now sim.Time) {
	alloc, err := m.pool.Allocate(now, j.Nodes, cluster.AllocHold)
	if err != nil {
		return // lost the nodes inside this iteration; stay queued
	}
	if err := j.Advance(job.Holding); err != nil {
		_ = m.pool.Release(now, alloc, alloc.ID)
		panic(fmt.Sprintf("resmgr %s: holdJob: %v", m.name, err))
	}
	j.HoldStart = now
	j.HoldCount++
	m.removeFromQueue(j)
	s := &m.slots[j.Slot]
	s.alloc, s.allocID = alloc, alloc.ID
	m.listAdd(&m.holding, j)
	m.obs.JobHeld(now, j)
	m.scheduleReleaseScan()
}

// yieldJob implements self.yieldJob(j): the job stays queued, its yield is
// recorded, and another scheduling iteration is requested so other jobs can
// use the nodes it declined.
func (m *Manager) yieldJob(j *job.Job, now sim.Time) {
	j.YieldCount++
	m.slots[j.Slot].yieldAt = now
	m.lastYield = now
	m.yieldV++ // yield counts and same-instant exclusions feed the fingerprint
	m.obs.JobYielded(now, j)
	m.RequestIteration()
}

// scheduleReleaseScan (re)arms the release timer at the earliest instant a
// holding job reaches the release interval. With no holds (or the
// enhancement disabled) no timer is armed, so the event queue can drain.
func (m *Manager) scheduleReleaseScan() {
	if m.cfg.ReleaseInterval <= 0 {
		return
	}
	if m.releaseScan.Pending() {
		return // a scan is already armed; it re-arms itself while holds exist
	}
	due := sim.Time(math.MaxInt64)
	for _, j := range m.holding {
		if t := j.HoldStart + m.cfg.ReleaseInterval; t < due {
			due = t
		}
	}
	if due == math.MaxInt64 {
		return // nothing holding: let the event queue drain
	}
	if now := m.eng.Now(); due < now {
		due = now
	}
	ref, err := m.eng.At(due, sim.PriorityRelease, m.releaseFn)
	if err != nil {
		panic(fmt.Sprintf("resmgr %s: scheduleReleaseScan: %v", m.name, err))
	}
	m.releaseScan = ref
}

// releaseScanFire is the deadlock-breaking enhancement (§IV-E1): at every
// release boundary all holding jobs temporarily release their nodes and
// are ranked last for one scheduling iteration, so the machine's entire
// held capacity is offered to waiting jobs at a single instant (a
// staggered per-job release can never accumulate enough nodes for a
// blocked full-machine job, leaving a cross-machine circular wait the
// enhancement exists to break). Holders whose nodes nobody takes re-hold
// within the same iteration; the rest stay queued.
func (m *Manager) releaseScanFire(now sim.Time) {
	// The holding list is in swap-removal order; release (and notify) in
	// ID order, which event logs make visible.
	due := append(m.dueBuf[:0], m.holding...)
	slices.SortFunc(due, func(a, b *job.Job) int { return cmp.Compare(a.ID, b.ID) })
	for _, j := range due {
		s := &m.slots[j.Slot]
		j.HeldNodeSeconds += int64(s.alloc.Allocated) * (now - j.HoldStart)
		if err := m.pool.Release(now, s.alloc, s.allocID); err != nil {
			panic(fmt.Sprintf("resmgr %s: release scan: %v", m.name, err))
		}
		s.alloc = nil
		s.demoted = true
		m.listRemove(&m.holding, j)
		if err := j.Advance(job.Queued); err != nil {
			panic(fmt.Sprintf("resmgr %s: release scan: %v", m.name, err))
		}
		m.enqueue(j)
		m.obs.JobReleased(now, j, true)
	}
	if len(due) > 0 {
		// One iteration with every released holder demoted to the back;
		// the demotion window is exactly this iteration.
		m.demoting = true
		m.Iterate(now)
		m.demoting = false
		for _, j := range due {
			m.slots[j.Slot].demoted = false
		}
	}
	clear(due)
	m.dueBuf = due[:0]
	m.scheduleReleaseScan()
}

// completeJob finishes a running job, frees its nodes, and triggers a new
// scheduling iteration.
func (m *Manager) completeJob(j *job.Job, now sim.Time) {
	s := m.slotOf(j)
	if s == nil || j.State != job.Running {
		return
	}
	if err := m.pool.Release(now, s.alloc, s.allocID); err != nil {
		panic(fmt.Sprintf("resmgr %s: completeJob: %v", m.name, err))
	}
	m.runReleaseDrop(s)
	m.listRemove(&m.running, j)
	m.unbind(j)
	if err := j.Advance(job.Completed); err != nil {
		panic(fmt.Sprintf("resmgr %s: completeJob: %v", m.name, err))
	}
	j.EndTime = now
	m.est.Observe(j)
	if uo, ok := m.pol.(policy.UsageObserver); ok {
		uo.ObserveCompletion(j, now)
	}
	m.completed++
	m.obs.JobCompleted(now, j)
	m.foldTerminalPrefix()
	m.RequestIteration()
}

// ---------------------------------------------------------------------------
// cosched.Peer implementation: a Manager can serve directly as the peer of
// another in-process Manager, which is how the coupled simulator wires
// domains by default. The proto package exposes exactly these methods over
// a connection.

var (
	_ cosched.Peer       = (*Manager)(nil)
	_ cosched.CoStarter  = (*Manager)(nil)
	_ cosched.Reconciler = (*Manager)(nil)
)

// tryStartMateAt routes through the CoStarter extension when the peer has
// it, falling back to the plain protocol otherwise.
func tryStartMateAt(p cosched.Peer, id job.ID, at sim.Time) (bool, error) {
	if cs, ok := p.(cosched.CoStarter); ok {
		return cs.TryStartMateAt(id, at)
	}
	return p.TryStartMate(id)
}

// startMateAt routes through the CoStarter extension when the peer has it.
func startMateAt(p cosched.Peer, id job.ID, at sim.Time) error {
	if cs, ok := p.(cosched.CoStarter); ok {
		return cs.StartMateAt(id, at)
	}
	return p.StartMate(id)
}

// notePeerDecision forwards an inbound peer start decision to the optional
// audit observer (the journal, in live mode).
func (m *Manager) notePeerDecision(now sim.Time, method string, id job.ID, ok bool) {
	if po, isPO := m.obs.(PeerDecisionObserver); isPO {
		po.PeerDecision(now, method, id, ok)
	}
}

// PeerName implements cosched.Peer.
func (m *Manager) PeerName() string { return m.name }

// GetMateJob implements cosched.Peer: true if the job is registered here in
// any state.
func (m *Manager) GetMateJob(id job.ID) (bool, error) {
	_, ok := m.jobs[id]
	return ok, nil
}

// GetMateStatus implements cosched.Peer.
func (m *Manager) GetMateStatus(id job.ID) (cosched.MateStatus, error) {
	j, ok := m.jobs[id]
	if !ok {
		return cosched.StatusUnknown, nil
	}
	return cosched.FromJobState(j.State), nil
}

// CanStartMate implements cosched.Peer: reports whether TryStartMate would
// succeed right now, without side effects.
func (m *Manager) CanStartMate(id job.ID) (bool, error) {
	j, ok := m.jobs[id]
	if !ok {
		return false, nil
	}
	switch j.State {
	case job.Queued:
		return m.pool.CanAllocate(j.Nodes), nil
	case job.Holding, job.Running:
		return true, nil
	default:
		return false, nil
	}
}

// TryStartMate implements cosched.Peer: the "additional scheduling
// iteration" of Algorithm 1 line 12, scoped to the mate job. The mate is
// started directly, bypassing its own coscheduling logic — the coordination
// already happened on the caller's side.
func (m *Manager) TryStartMate(id job.ID) (bool, error) {
	return m.TryStartMateAt(id, m.eng.Now())
}

// TryStartMateAt implements cosched.CoStarter: TryStartMate recording the
// caller's proposed co-start instant as the mate's StartTime.
func (m *Manager) TryStartMateAt(id job.ID, at sim.Time) (bool, error) {
	j, ok := m.jobs[id]
	if !ok {
		m.notePeerDecision(m.eng.Now(), "try_start_mate", id, false)
		return false, nil
	}
	now := m.eng.Now()
	started := false
	switch j.State {
	case job.Queued:
		if m.pool.CanAllocate(j.Nodes) {
			j.MarkReady(now)
			m.startJobAt(j, at, now)
			started = j.State == job.Running
		}
	case job.Holding:
		if err := m.startHeldJobAt(j, at, now); err != nil {
			m.notePeerDecision(now, "try_start_mate", id, false)
			return false, err
		}
		started = true
	case job.Running:
		started = true
	}
	m.notePeerDecision(now, "try_start_mate", id, started)
	return started, nil
}

// StartMate implements cosched.Peer: release a holding mate into execution
// (Algorithm 1 line 8). Starting an already-running mate is a no-op.
func (m *Manager) StartMate(id job.ID) error {
	return m.StartMateAt(id, m.eng.Now())
}

// StartMateAt implements cosched.CoStarter: StartMate recording the
// caller's proposed co-start instant as the mate's StartTime.
func (m *Manager) StartMateAt(id job.ID, at sim.Time) error {
	j, ok := m.jobs[id]
	if !ok {
		m.notePeerDecision(m.eng.Now(), "start_mate", id, false)
		return fmt.Errorf("%w: %d", ErrUnknownJob, id)
	}
	now := m.eng.Now()
	switch j.State {
	case job.Holding:
		err := m.startHeldJobAt(j, at, now)
		m.notePeerDecision(now, "start_mate", id, err == nil)
		return err
	case job.Running:
		m.notePeerDecision(now, "start_mate", id, true)
		return nil
	default:
		m.notePeerDecision(now, "start_mate", id, false)
		return fmt.Errorf("%w: job %d is %s, want holding", ErrBadState, id, j.State)
	}
}
