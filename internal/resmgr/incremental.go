package resmgr

import (
	"fmt"
	"sort"

	"cosched/internal/backfill"
	"cosched/internal/job"
	"cosched/internal/policy"
	"cosched/internal/sim"
)

// Core selects the Manager's scheduling-iteration implementation.
//
// The incremental core (the default) maintains three structures across
// iterations instead of rebuilding them inside every Iterate:
//
//   - a release timeline, kept in the planners' canonical sorted order and
//     updated on job start/completion/cancel, replacing the per-iteration
//     running-map range + sort;
//   - a queue index: for time-invariant policies (FCFS, SJF, LargestFirst)
//     a queue kept canonically ordered by binary-search insertion so the
//     per-iteration full sort disappears; for time-varying ones (WFP,
//     FairShare) O(1) removal through each job's slot position, with every
//     iteration's canonical order written back into the queue storage
//     (sorted in place, no copy);
//   - an iteration skip-cache that fingerprints every planner input and
//     skips planning when the previous iteration at the identical state
//     produced an empty plan, plus a no-fit exit that returns the empty
//     plan without scoring, sorting or planning when no eligible job fits
//     the free nodes (EASY and no backfill).
//
// The reference core preserves the original allocate-and-sort path; the
// differential tests assert both cores produce byte-identical results.
type Core int

const (
	// CoreIncremental is the default: sorted timeline, queue index, and
	// skip-cache as described on Core.
	CoreIncremental Core = iota
	// CoreReference rebuilds the queue order and release list on every
	// iteration — the original implementation, kept as the behavioral
	// baseline for differential testing.
	CoreReference
)

// String returns the core's configuration name.
func (c Core) String() string {
	if c == CoreReference {
		return "reference"
	}
	return "incremental"
}

// ParseCore resolves "", "incremental", "reference".
func ParseCore(s string) (Core, bool) {
	switch s {
	case "", "incremental":
		return CoreIncremental, true
	case "reference":
		return CoreReference, true
	default:
		return CoreIncremental, false
	}
}

// iterFP fingerprints every input the planners read. Two iterations with
// equal fingerprints see identical queues (membership and order), release
// timelines, pool occupancy, and yield/boost state, so they compute
// identical plans — which lets Iterate skip planning entirely when the
// fingerprint is unchanged and the previous plan was empty.
//
// instantOnly pins the fingerprint to a single simulated instant. It is set
// whenever plan emptiness is not provably monotone in `now`: time-varying
// policy scores (WFP, FairShare), unstable estimators, the conservative
// planner's full-profile feasibility, and iterations where a same-instant
// yielder was excluded from eligibility (the exclusion lapses at the next
// instant, growing the eligible set). For time-invariant policies with
// stable estimators under EASY/none, emptiness IS monotone — the greedy
// prefix reads no clock, and a backfill candidate's now+estimate only grows
// toward the fixed shadow time — so those skips may span instants.
type iterFP struct {
	queueV      uint64
	timelineV   uint64
	yieldV      uint64
	free        int
	held        int
	instantOnly bool
	instant     sim.Time
}

// fingerprint captures the current planner-input state. excluded is how
// many same-instant yielders the eligibility filter dropped.
func (m *Manager) fingerprint(now sim.Time, excluded int) iterFP {
	fp := iterFP{
		queueV:    m.queueV,
		timelineV: m.timelineV,
		yieldV:    m.yieldV,
		free:      m.pool.Free(),
		held:      m.pool.Held(),
	}
	if !m.acrossInstant || excluded > 0 {
		fp.instantOnly = true
		fp.instant = now
	}
	return fp
}

// Skips returns how many scheduling iterations the skip-cache elided.
// Skipped iterations still count in Iterations().
func (m *Manager) Skips() uint64 { return m.skips }

// ---------------------------------------------------------------------------
// Queue index

// queueRank returns j's position in the canonically ordered queue (sorted
// mode only): the index where j sits if present, or its insertion point.
// The comparator is exactly policy.Precedes over time-invariant scores, so
// binary search and policy.Orderer's full sort agree on every permutation.
func (m *Manager) queueRank(j *job.Job) int {
	s := m.pol.Score(j, 0) // time-invariant: any instant gives the same score
	return sort.Search(len(m.queue), func(i int) bool {
		qi := m.queue[i]
		return !policy.Precedes(m.pol.Score(qi, 0), qi, s, j)
	})
}

// enqueue appends a bound job to the queue, keeping the canonical order in
// sorted mode and the slot position in indexed mode.
func (m *Manager) enqueue(j *job.Job) {
	m.queueV++
	switch {
	case m.sortedQueue:
		idx := m.queueRank(j)
		m.queue = append(m.queue, nil)
		copy(m.queue[idx+1:], m.queue[idx:])
		m.queue[idx] = j
	case m.indexedQueue:
		m.listAdd(&m.queue, j)
	default:
		m.queue = append(m.queue, j)
	}
}

// removeFromQueue deletes a queued job from the queue. Sorted mode locates
// it by binary search and shifts (order must be preserved — it IS the
// schedule order); indexed mode swap-removes at the slot position, which
// is safe because storage order is invisible there: every iteration sorts
// the storage into canonical order before planning. The reference core
// keeps the original linear order-preserving scan.
func (m *Manager) removeFromQueue(j *job.Job) {
	switch {
	case m.sortedQueue:
		idx := m.queueRank(j)
		if idx < len(m.queue) && m.queue[idx] == j {
			copy(m.queue[idx:], m.queue[idx+1:])
			m.queue[len(m.queue)-1] = nil
			m.queue = m.queue[:len(m.queue)-1]
			m.queueV++
		}
	case m.indexedQueue:
		m.listRemove(&m.queue, j)
		m.queueV++
	default:
		for i, q := range m.queue {
			if q == j {
				m.queue = append(m.queue[:i], m.queue[i+1:]...)
				m.queueV++
				return
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Sorted release timeline

// timelineKeyAt returns the first timeline index whose entry is >= r in the
// canonical (EndBy, Nodes) order.
func (m *Manager) timelineKeyAt(r backfill.Release) int {
	return sort.Search(len(m.timeline), func(i int) bool {
		t := m.timeline[i]
		return t.EndBy > r.EndBy || (t.EndBy == r.EndBy && t.Nodes >= r.Nodes)
	})
}

// timelineInsert adds a running job's bounded release to the sorted
// timeline: O(log R) search plus one shift.
func (m *Manager) timelineInsert(r backfill.Release) {
	idx := m.timelineKeyAt(r)
	m.timeline = append(m.timeline, backfill.Release{})
	copy(m.timeline[idx+1:], m.timeline[idx:])
	m.timeline[idx] = r
	m.timelineV++
}

// timelineRemove deletes one entry equal to r. Entries are plain values,
// so any member of an equal-(EndBy,Nodes) run is interchangeable; removal
// needs no job identity, only the endBy the job's slot recorded at insert.
func (m *Manager) timelineRemove(r backfill.Release) {
	idx := m.timelineKeyAt(r)
	if idx >= len(m.timeline) || m.timeline[idx] != r {
		panic(fmt.Sprintf("resmgr %s: timeline entry %+v missing — incremental maintenance out of sync", m.name, r))
	}
	copy(m.timeline[idx:], m.timeline[idx+1:])
	m.timeline = m.timeline[:len(m.timeline)-1]
	m.timelineV++
}

// timelineRebuild recomputes the whole timeline from the running set,
// applying the Tsafrir-style correction: a running job that has outlived
// its estimate plans with its walltime bound instead (treating it as
// "about to finish" would collapse the shadow time and let backfill starve
// the head job). Called only when the earliest entry has gone stale
// (EndBy <= now), which with a stable estimator honoring the
// estimate <= walltime contract is rare to never — the completion event at
// StartTime+Runtime <= StartTime+Walltime removes the entry first.
func (m *Manager) timelineRebuild(now sim.Time) {
	m.timeline = m.timeline[:0]
	for _, j := range m.running {
		s := &m.slots[j.Slot]
		if s.endBy <= now {
			s.endBy = j.StartTime + j.Walltime
		}
		m.timeline = append(m.timeline, backfill.Release{Nodes: s.alloc.Allocated, EndBy: s.endBy})
	}
	backfill.SortReleases(m.timeline) // running-list order is arbitrary; canonicalize
	m.timelineV++
}

// runReleaseAdd records a newly running job (its slot, allocation set) in
// the maintained timeline (no-op when the timeline is rebuilt per
// iteration instead).
func (m *Manager) runReleaseAdd(s *jobSlot) {
	s.endBy = s.j.StartTime + m.est.Estimate(s.j)
	if m.maintainTL {
		m.timelineInsert(backfill.Release{Nodes: s.alloc.Allocated, EndBy: s.endBy})
	}
}

// runReleaseDrop removes a no-longer-running job's timeline entry.
func (m *Manager) runReleaseDrop(s *jobSlot) {
	if m.maintainTL {
		m.timelineRemove(backfill.Release{Nodes: s.alloc.Allocated, EndBy: s.endBy})
	}
}

// planReleases returns the release list for this iteration in canonical
// sorted order. The maintained timeline is returned by reference (zero
// copies, zero sorts at steady state); otherwise — reference core, or an
// unstable estimator whose predictions drift between iterations — the list
// is rebuilt from the running list into the reusable buffer and sorted,
// exactly the reference semantics.
func (m *Manager) planReleases(now sim.Time) []backfill.Release {
	if m.maintainTL {
		if len(m.timeline) > 0 && m.timeline[0].EndBy <= now {
			m.timelineRebuild(now)
		}
		return m.timeline
	}
	releases := m.releasesBuf[:0]
	for _, j := range m.running {
		// Plan with the estimator's runtime; once a running job outlives
		// its prediction, correct to the walltime bound (Tsafrir-style
		// prediction correction) — treating it as "about to finish"
		// would collapse the shadow time and let backfill starve the
		// head job.
		endBy := j.StartTime + m.est.Estimate(j)
		if endBy <= now {
			endBy = j.StartTime + j.Walltime
		}
		releases = append(releases, backfill.Release{
			Nodes: m.slots[j.Slot].alloc.Allocated,
			EndBy: endBy,
		})
	}
	backfill.SortReleases(releases)
	m.releasesBuf = releases
	return releases
}
