// Crash-recovery support for the Manager: re-installing journaled jobs into
// a freshly constructed manager (RestoreJob) and the post-restart mate
// reconciliation handshake (ReconcileMates as callee, ReconcileWith as
// caller) that resolves pairs orphaned by the crash per the paper's fault
// tolerance rules. All of it runs on the engine's single thread, before or
// between scheduling iterations.

package resmgr

import (
	"fmt"
	"sort"

	"cosched/internal/cluster"
	"cosched/internal/cosched"
	"cosched/internal/job"
	"cosched/internal/sim"
)

// RestoreJob re-installs a journal-recovered job in its recorded state:
// queued jobs re-enter the queue, holding jobs re-acquire held allocations
// (preserving their recorded HoldStart, so the release-scan clock survives
// the restart), running jobs re-acquire run allocations with completion
// scheduled at max(now, StartTime+Runtime), and terminal jobs feed the
// counters. No Observer notifications fire — the journal already holds
// these transitions, and re-journaling them would duplicate the log the
// restore was built from. The caller requests an iteration after the batch.
func (m *Manager) RestoreJob(j *job.Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if _, dup := m.jobs[j.ID]; dup {
		return fmt.Errorf("%w: %d", ErrDuplicateJob, j.ID)
	}
	now := m.eng.Now()
	switch j.State {
	case job.Unsubmitted:
		m.addJob(j)
	case job.Queued:
		m.addJob(j)
		m.bind(j)
		m.enqueue(j)
	case job.Holding:
		alloc, err := m.pool.Allocate(now, j.Nodes, cluster.AllocHold)
		if err != nil {
			return fmt.Errorf("restore hold for job %d: %w", j.ID, err)
		}
		m.addJob(j)
		m.bind(j)
		s := &m.slots[j.Slot]
		s.alloc, s.allocID = alloc, alloc.ID
		m.listAdd(&m.holding, j)
		m.scheduleReleaseScan()
	case job.Running:
		alloc, err := m.pool.Allocate(now, j.Nodes, cluster.AllocRun)
		if err != nil {
			return fmt.Errorf("restore run for job %d: %w", j.ID, err)
		}
		m.addJob(j)
		end := j.StartTime + sim.Time(j.Runtime)
		if end < now {
			// The job finished while the daemon was down; complete it at
			// the first opportunity rather than rewinding the clock.
			end = now
		}
		ref, err := m.eng.AtArg(end, sim.PriorityEnd, m.completeFn, j)
		if err != nil {
			return fmt.Errorf("restore completion for job %d: %w", j.ID, err)
		}
		m.bind(j)
		s := &m.slots[j.Slot]
		s.alloc, s.allocID, s.end = alloc, alloc.ID, ref
		m.runReleaseAdd(s)
		m.listAdd(&m.running, j)
	case job.Completed:
		m.addJob(j)
		m.completed++
	case job.Cancelled:
		m.addJob(j)
		m.cancelled++
	default:
		return fmt.Errorf("%w: job %d is %s", ErrBadState, j.ID, j.State)
	}
	return nil
}

// releaseHold returns one holding job to the queue (outside the periodic
// release scan): nodes freed, held time accrued, job requeued without the
// demotion the scan applies. Used by reconciliation when the mate no longer
// knows the job — it re-enters Run_Job on the next iteration, where the
// unknown mate now means "start normally".
func (m *Manager) releaseHold(j *job.Job, now sim.Time) {
	s := m.slotOf(j)
	if s == nil || j.State != job.Holding {
		return
	}
	j.HeldNodeSeconds += int64(s.alloc.Allocated) * (now - j.HoldStart)
	if err := m.pool.Release(now, s.alloc, s.allocID); err != nil {
		panic(fmt.Sprintf("resmgr %s: reconcile release: %v", m.name, err))
	}
	s.alloc = nil
	m.listRemove(&m.holding, j)
	if err := j.Advance(job.Queued); err != nil {
		panic(fmt.Sprintf("resmgr %s: reconcile release: %v", m.name, err))
	}
	m.enqueue(j)
	m.obs.JobReleased(now, j, true)
	m.scheduleReleaseScan()
	m.RequestIteration()
}

// mateViews reports this manager's side of every pair shared with the named
// domain, sorted by local job ID for deterministic exchanges.
func (m *Manager) mateViews(domain string) []cosched.MateView {
	ids := make([]job.ID, 0, len(m.jobs))
	for id := range m.jobs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	var out []cosched.MateView
	for _, id := range ids {
		j := m.jobs[id]
		for _, ref := range j.Mates {
			if ref.Domain != domain {
				continue
			}
			v := cosched.MateView{
				Local:  j.ID,
				Mate:   ref.Job,
				Status: cosched.FromJobState(j.State),
			}
			if j.State == job.Running || j.State == job.Completed {
				v.Start = j.StartTime
			}
			out = append(out, v)
		}
	}
	return out
}

// DrainViews builds the shutdown notification for each peer domain: every
// non-terminal paired job reported as StatusUnknown, so a remote holder
// waiting on one of our jobs falls back immediately (release, re-enter
// Run_Job, start normally against our dead daemon) instead of waiting out
// its release interval. Domains iterate in sorted order.
func (m *Manager) DrainViews() map[string][]cosched.MateView {
	ids := make([]job.ID, 0, len(m.jobs))
	for id := range m.jobs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	out := make(map[string][]cosched.MateView)
	for _, id := range ids {
		j := m.jobs[id]
		if j.State == job.Completed || j.State == job.Cancelled {
			continue
		}
		for _, ref := range j.Mates {
			out[ref.Domain] = append(out[ref.Domain], cosched.MateView{
				Local:  j.ID,
				Mate:   ref.Job,
				Status: cosched.StatusUnknown,
			})
		}
	}
	return out
}

// ReconcileMates implements cosched.Reconciler (the callee side): apply the
// caller's views to our holds, then report our current views back.
//
// For each of our holds paired into the calling domain:
//   - the caller doesn't report the mate (or reports unknown) — the mate is
//     lost; release the hold so Run_Job's fault tolerance takes over;
//   - the mate is already running or completed — start now, adopting the
//     mate's recorded start instant so the pair's log stays byte-exact;
//   - the mate is holding too — keep holding; only the caller resolves
//     both-holding, so exactly one resolver proposes the co-start instant;
//   - the mate is queued or unsubmitted — keep holding, it is still coming.
//
// The exchange is idempotent: every action moves state toward agreement and
// repeats as a no-op, so peerlink may retry it safely.
func (m *Manager) ReconcileMates(from string, views []cosched.MateView) ([]cosched.MateView, error) {
	now := m.eng.Now()
	type pairKey struct{ local, mate job.ID }
	reported := make(map[pairKey]cosched.MateView, len(views))
	for _, v := range views {
		// The caller's Local is our Mate and vice versa.
		reported[pairKey{local: v.Mate, mate: v.Local}] = v
	}
	for _, ours := range m.mateViews(from) {
		j := m.jobs[ours.Local]
		if j == nil || j.State != job.Holding {
			continue
		}
		rv, known := reported[pairKey{local: ours.Local, mate: ours.Mate}]
		switch {
		case !known || rv.Status == cosched.StatusUnknown:
			m.releaseHold(j, now)
		case rv.Status == cosched.StatusRunning || rv.Status == cosched.StatusCompleted:
			if err := m.startHeldJobAt(j, rv.Start, now); err != nil {
				return nil, fmt.Errorf("reconcile adopt start for job %d: %w", j.ID, err)
			}
			m.RequestIteration()
		}
	}
	return m.mateViews(from), nil
}

// ReconcileReport summarizes one caller-side reconciliation exchange.
type ReconcileReport struct {
	Peer     string // remote domain
	Sent     int    // pair views we reported
	CoStarts int    // both sides holding → co-started at one instant
	Adopted  int    // mate already running/completed → its instant adopted
	Released int    // mate lost our job → hold released to the queue
	Kept     int    // mate still coming → hold kept
}

// ReconcileWith drives the caller side of the reconciliation handshake with
// one peer: exchange views, then resolve every local hold against the
// mate's answer. Both-holding pairs co-start at this manager's current
// instant, proposed to the peer through the CoStarter extension so both
// logs record the identical start time.
func (m *Manager) ReconcileWith(domain string, p cosched.Peer) (ReconcileReport, error) {
	rep := ReconcileReport{Peer: domain}
	r, ok := p.(cosched.Reconciler)
	if !ok {
		return rep, fmt.Errorf("resmgr %s: peer %q does not support reconciliation", m.name, domain)
	}
	views := m.mateViews(domain)
	rep.Sent = len(views)
	resp, err := r.ReconcileMates(m.name, views)
	if err != nil {
		return rep, err
	}
	type pairKey struct{ local, mate job.ID }
	theirs := make(map[pairKey]cosched.MateView, len(resp))
	for _, v := range resp {
		theirs[pairKey{local: v.Mate, mate: v.Local}] = v
	}
	now := m.eng.Now()
	changed := false
	for _, ours := range views {
		j := m.jobs[ours.Local]
		if j == nil || j.State != job.Holding {
			continue
		}
		rv, known := theirs[pairKey{local: ours.Local, mate: ours.Mate}]
		switch {
		case !known || rv.Status == cosched.StatusUnknown:
			m.releaseHold(j, now)
			rep.Released++
		case rv.Status == cosched.StatusHolding:
			// Both sides held through the crash: co-start now. Our clock is
			// the proposed instant; the peer records it verbatim.
			if err := startMateAt(p, ours.Mate, now); err != nil {
				rep.Kept++ // peer unreachable mid-handshake; retry later
				continue
			}
			if err := m.startHeldJobAt(j, now, now); err != nil {
				return rep, fmt.Errorf("reconcile co-start of job %d: %w", j.ID, err)
			}
			rep.CoStarts++
			changed = true
		case rv.Status == cosched.StatusRunning || rv.Status == cosched.StatusCompleted:
			if err := m.startHeldJobAt(j, rv.Start, now); err != nil {
				return rep, fmt.Errorf("reconcile adopt start for job %d: %w", j.ID, err)
			}
			rep.Adopted++
			changed = true
		default:
			rep.Kept++
		}
	}
	if changed {
		m.RequestIteration()
	}
	return rep, nil
}
