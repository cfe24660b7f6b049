//go:build debug

package resmgr

import (
	"fmt"
	"slices"

	"cosched/internal/job"
	"cosched/internal/policy"
	"cosched/internal/sim"
)

// debugBuild reports that the debug-only checks are compiled in; they
// allocate, so allocation gates skip under this tag.
const debugBuild = true

// checkOrder enforces the incremental core's ordering contract in debug
// builds (`go test -tags debug ./internal/resmgr`): the order Iterate
// plans with must equal an independent cold sort of the same jobs, so a
// warm-started (or pre-sorted) queue never drifts from the canonical
// order, and in indexed-queue mode every queued job's slot position must
// point at it. Release builds compile it to a no-op (check_release.go).
func (m *Manager) checkOrder(ordered []*job.Job, now sim.Time) {
	type keyed struct {
		j *job.Job
		s float64
	}
	cold := make([]keyed, len(ordered))
	for i, j := range ordered {
		cold[i] = keyed{j, m.pol.Score(j, now) + m.boost(j)}
	}
	slices.SortFunc(cold, func(a, b keyed) int {
		switch {
		case policy.Precedes(a.s, a.j, b.s, b.j):
			return -1
		case policy.Precedes(b.s, b.j, a.s, a.j):
			return 1
		}
		return 0
	})
	for i := range cold {
		if cold[i].j != ordered[i] {
			panic(fmt.Sprintf("resmgr %s: planning order differs from a cold sort at %d: job %d, want %d",
				m.name, i, ordered[i].ID, cold[i].j.ID))
		}
	}
	if m.indexedQueue {
		m.checkQueueIndex()
	}
}

// checkQueueIndex panics unless every queued job's slot position points at
// it and the bound slots are exactly the queued, holding and running jobs.
func (m *Manager) checkQueueIndex() {
	for i, j := range m.queue {
		if s := m.slotOf(j); s == nil || s.pos != i {
			panic(fmt.Sprintf("resmgr %s: queued job %d at %d has a stale slot position", m.name, j.ID, i))
		}
	}
	bound := 0
	for _, s := range m.slots[1:] {
		if s.j != nil {
			bound++
		}
	}
	if active := len(m.queue) + len(m.running) + len(m.holding); bound != active {
		panic(fmt.Sprintf("resmgr %s: %d bound slots for %d active jobs", m.name, bound, active))
	}
}
