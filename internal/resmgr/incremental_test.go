package resmgr

import (
	"math/rand"
	"slices"
	"testing"

	"cosched/internal/cluster"
	"cosched/internal/cosched"
	"cosched/internal/job"
	"cosched/internal/policy"
	"cosched/internal/sim"
)

// checkQueueIndex asserts the queue structures are consistent with the live
// job set after an arbitrary Submit/Cancel history: exact membership, every
// queued job's slot position pointing at it (indexed mode), one bound slot
// per queued job and none for a cancelled one, and storage order agreeing
// with the canonical policy order (sorted mode).
func checkQueueIndex(t *testing.T, m *Manager, live map[job.ID]*job.Job) {
	t.Helper()
	if len(m.queue) != len(live) {
		t.Fatalf("queue length = %d, want %d", len(m.queue), len(live))
	}
	seen := make(map[job.ID]bool, len(m.queue))
	for i, q := range m.queue {
		if _, ok := live[q.ID]; !ok {
			t.Fatalf("queue[%d] holds cancelled job %d", i, q.ID)
		}
		if seen[q.ID] {
			t.Fatalf("job %d appears twice in queue", q.ID)
		}
		seen[q.ID] = true
		s := m.slotOf(q)
		if s == nil {
			t.Fatalf("queued job %d at %d has no slot", q.ID, i)
		}
		if m.indexedQueue && s.pos != i {
			t.Fatalf("slot position of job %d = %d; job is at %d", q.ID, s.pos, i)
		}
	}
	bound := 0
	for _, s := range m.slots[1:] {
		if s.j != nil {
			bound++
			if _, ok := live[s.j.ID]; !ok {
				t.Fatalf("cancelled job %d still holds a slot", s.j.ID)
			}
		}
	}
	if bound != len(m.queue) {
		t.Fatalf("%d bound slots, queue has %d", bound, len(m.queue))
	}
	if m.sortedQueue {
		var ord policy.Orderer
		want := ord.Order(m.pol, m.queue, 0, func(*job.Job) float64 { return 0 })
		for i := range want {
			if want[i] != m.queue[i] {
				t.Fatalf("sorted queue out of canonical order at %d: have job %d, want %d",
					i, m.queue[i].ID, want[i].ID)
			}
		}
	}
}

// TestQueueIndexInterleavedCancelSubmit drives hundreds of interleaved
// Submit/Cancel operations against each queue representation — sorted
// (time-invariant policy), position-indexed (time-varying policy), and the
// reference linear scan — and checks the index invariants after every step.
// The engine never runs, so every job stays queued until cancelled.
func TestQueueIndexInterleavedCancelSubmit(t *testing.T) {
	cases := []struct {
		name string
		pol  policy.Policy
		core Core
	}{
		{"incremental_sorted_sjf", policy.SJF{}, CoreIncremental},
		{"incremental_indexed_wfp", policy.WFP{}, CoreIncremental},
		{"reference_sjf", policy.SJF{}, CoreReference},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			m := New(eng, Options{
				Name: "q", Pool: cluster.New("q", 1),
				Policy: tc.pol, Core: tc.core,
			})
			if tc.core == CoreIncremental {
				wantSorted := policy.IsTimeInvariant(tc.pol)
				if m.sortedQueue != wantSorted {
					t.Fatalf("sortedQueue = %v, want %v", m.sortedQueue, wantSorted)
				}
			}
			rng := rand.New(rand.NewSource(42))
			live := map[job.ID]*job.Job{}
			var order []job.ID // insertion order, for deterministic victim picks
			nextID := job.ID(1)
			for step := 0; step < 600; step++ {
				if len(order) == 0 || rng.Intn(3) != 0 {
					wall := sim.Duration(60 + rng.Intn(5000))
					j := job.New(nextID, 1+rng.Intn(4), 0, wall, wall)
					nextID++
					if err := m.Submit(j); err != nil {
						t.Fatalf("step %d: submit: %v", step, err)
					}
					live[j.ID] = j
					order = append(order, j.ID)
				} else {
					k := rng.Intn(len(order))
					id := order[k]
					order = append(order[:k], order[k+1:]...)
					if err := m.Cancel(id); err != nil {
						t.Fatalf("step %d: cancel %d: %v", step, id, err)
					}
					delete(live, id)
				}
				checkQueueIndex(t, m, live)
			}
		})
	}
}

// pairDomainsCore is pairDomains with an explicit scheduling core.
func pairDomainsCore(t *testing.T, core Core, cfgA, cfgB cosched.Config) (*sim.Engine, *Manager, *Manager) {
	t.Helper()
	eng := sim.NewEngine()
	a := New(eng, Options{
		Name: "A", Pool: cluster.New("A", 100),
		Policy: policy.FCFS{}, Backfilling: true, Cosched: cfgA, Core: core,
	})
	b := New(eng, Options{
		Name: "B", Pool: cluster.New("B", 100),
		Policy: policy.FCFS{}, Backfilling: true, Cosched: cfgB, Core: core,
	})
	a.AddPeer("B", b)
	b.AddPeer("A", a)
	return eng, a, b
}

// TestCancelHoldingJobRetriggersIteration pins the cancel→replan path on
// both cores: cancelling a holding job frees its nodes and the iteration it
// requests must start the blocked job at the same instant — in particular
// the incremental core's skip-cache must notice the freed nodes.
func TestCancelHoldingJobRetriggersIteration(t *testing.T) {
	for _, core := range []Core{CoreReference, CoreIncremental} {
		t.Run(core.String(), func(t *testing.T) {
			cfg := cosched.DefaultConfig(cosched.Hold)
			eng, a, b := pairDomainsCore(t, core, cfg, cfg)
			ja := job.New(1, 100, 0, 600, 600)
			jb := job.New(1, 10, 5000, 600, 600)
			pairJobs(ja, jb)
			blocked := job.New(2, 100, 10, 600, 600)
			submitAll(t, a, ja, blocked)
			submitAll(t, b, jb)
			eng.RunUntil(100)
			if ja.State != job.Holding {
				t.Fatalf("ja state = %s, want holding", ja.State)
			}
			if err := a.Cancel(1); err != nil {
				t.Fatal(err)
			}
			eng.Run()
			if blocked.StartTime != 100 {
				t.Fatalf("blocked start = %d, want 100 (cancel instant)", blocked.StartTime)
			}
			if blocked.State != job.Completed {
				t.Fatalf("blocked state = %s", blocked.State)
			}
		})
	}
}

// steadyBlocked builds a one-domain blocked steady state: a 90-node filler
// runs on a 100-node pool and every queued job needs 20 nodes, so no plan
// can start or backfill anything until capacity changes.
func steadyBlocked(t *testing.T, core Core) (*sim.Engine, *Manager, []*job.Job) {
	t.Helper()
	eng := sim.NewEngine()
	m := New(eng, Options{
		Name: "s", Pool: cluster.New("s", 100),
		Policy: policy.FCFS{}, Backfilling: true, Core: core,
	})
	filler := job.New(1, 90, 0, 100000, 100000)
	blocked := []*job.Job{
		job.New(2, 20, 0, 600, 600),
		job.New(3, 20, 0, 600, 600),
		job.New(4, 20, 0, 600, 600),
	}
	if err := m.Submit(filler); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(0)
	for _, j := range blocked {
		if err := m.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(0)
	if filler.State != job.Running || m.QueueLength() != 3 {
		t.Fatalf("scenario did not settle: filler=%s queue=%d", filler.State, m.QueueLength())
	}
	return eng, m, blocked
}

// TestSkipCacheSkipsAndInvalidates is the skip-cache white-box test: at an
// unchanged blocked state iterations are elided (same instant and, for this
// time-invariant EASY configuration, across instants), every queue or pool
// change forces a real replan, and skipped iterations still count in
// Iterations().
func TestSkipCacheSkipsAndInvalidates(t *testing.T) {
	_, m, blocked := steadyBlocked(t, CoreIncremental)
	if !m.acrossInstant || !m.sortedQueue || !m.maintainTL {
		t.Fatalf("scenario not fully incremental: across=%v sorted=%v maintainTL=%v",
			m.acrossInstant, m.sortedQueue, m.maintainTL)
	}

	iters, skips := m.Iterations(), m.Skips()
	m.Iterate(0) // identical state at the same instant
	if m.Skips() != skips+1 || m.Iterations() != iters+1 {
		t.Fatalf("same-instant skip: skips %d→%d iterations %d→%d",
			skips, m.Skips(), iters, m.Iterations())
	}
	m.Iterate(100) // identical state at a later instant: emptiness is monotone
	if m.Skips() != skips+2 {
		t.Fatalf("across-instant skip did not engage: skips = %d", m.Skips())
	}

	// A queue change invalidates: the replan runs (and still plans nothing —
	// the remaining jobs are as blocked as before).
	if err := m.Cancel(blocked[2].ID); err != nil {
		t.Fatal(err)
	}
	skips = m.Skips()
	m.Iterate(0)
	if m.Skips() != skips {
		t.Fatalf("iteration after queue change was skipped")
	}
	if m.RunningCount() != 1 || m.QueueLength() != 2 {
		t.Fatalf("replan changed state: running=%d queue=%d", m.RunningCount(), m.QueueLength())
	}
	m.Iterate(0) // cached again
	if m.Skips() != skips+1 {
		t.Fatalf("cache did not re-arm after replan")
	}

	// A pool change invalidates: cancelling the filler frees the machine and
	// the very next iteration starts the survivors.
	if err := m.Cancel(1); err != nil {
		t.Fatal(err)
	}
	skips = m.Skips()
	m.Iterate(0)
	if m.Skips() != skips {
		t.Fatalf("iteration after pool change was skipped")
	}
	if m.RunningCount() != 2 || m.QueueLength() != 0 {
		t.Fatalf("freed capacity not used: running=%d queue=%d", m.RunningCount(), m.QueueLength())
	}
}

// TestReferenceCoreNeverSkips pins the reference core to the original
// semantics: no skip-cache, no maintained structures.
func TestReferenceCoreNeverSkips(t *testing.T) {
	_, m, _ := steadyBlocked(t, CoreReference)
	if m.sortedQueue || m.indexedQueue || m.maintainTL || m.acrossInstant {
		t.Fatalf("reference core enabled incremental structures")
	}
	for i := 0; i < 5; i++ {
		m.Iterate(0)
	}
	if m.Skips() != 0 {
		t.Fatalf("reference core skipped %d iterations", m.Skips())
	}
}

// TestNoFitExitSkipsOrderingAndArmsCache pins the no-fit exit on a WFP
// (indexed-queue) manager: while no queued job fits the free nodes, an
// iteration returns before sorting (the queue storage keeps its
// submission order) yet records the empty plan, so a repeat at the same
// instant is a skip; once jobs fit, the iteration orders the queue and
// starts the WFP head. Under conservative backfilling the exit does not
// apply, so the sort runs.
func TestNoFitExitSkipsOrderingAndArmsCache(t *testing.T) {
	for _, mode := range []BackfillMode{BackfillEASY, BackfillNone, BackfillConservative} {
		eng := sim.NewEngine()
		m := New(eng, Options{
			Name: "w", Pool: cluster.New("w", 100),
			Policy: policy.WFP{}, Backfilling: mode != BackfillNone, Mode: mode,
		})
		filler := job.New(1, 90, 0, 100000, 100000)
		if err := m.Submit(filler); err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(0)
		// Walltimes descend with ID, so at any later instant the WFP order
		// is the reverse of submission order.
		for id := job.ID(2); id <= 7; id++ {
			if err := m.Submit(job.New(id, 30, 0, 600, sim.Duration(5000-100*id))); err != nil {
				t.Fatal(err)
			}
		}
		eng.RunUntil(0)
		storage := func() []job.ID {
			out := make([]job.ID, len(m.queue))
			for i, j := range m.queue {
				out[i] = j.ID
			}
			return out
		}
		before, skips := storage(), m.Skips()
		m.Iterate(50)
		if got := storage(); slices.Equal(got, before) == (mode == BackfillConservative) {
			t.Fatalf("%v: queue storage %v after an empty iteration (was %v)", mode, got, before)
		}
		m.Iterate(50)
		if got := m.Skips() - skips; got != 1 {
			t.Fatalf("%v: repeat of an empty iteration at the same instant skipped %d times, want 1", mode, got)
		}

		if err := m.Cancel(filler.ID); err != nil {
			t.Fatal(err)
		}
		m.Iterate(60)
		for id := job.ID(2); id <= 7; id++ {
			j, _ := m.Job(id)
			if want := id >= 5; (j.State == job.Running) != want {
				t.Fatalf("%v: job %d is %s; want the three shortest walltimes (5-7) running", mode, id, j.State)
			}
		}
	}
}
