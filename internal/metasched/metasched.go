// Package metasched implements the other §III comparator: a metascheduler
// (GridWay / LoadLeveler / Moab style) that owns BOTH machines behind a
// single global submission portal. A paired job becomes one heterogeneous
// request that atomically allocates nodes on both machines, so co-starts
// are trivial — the cost the paper identifies is architectural (every site
// must surrender scheduling autonomy to the portal), which a simulator
// cannot price; what it can show is that coscheduling matches the
// portal's scheduling quality without requiring it.
package metasched

import (
	"fmt"
	"sort"

	"cosched/internal/cluster"
	"cosched/internal/job"
	"cosched/internal/metrics"
	"cosched/internal/policy"
	"cosched/internal/sim"
)

// DomainConfig is one machine behind the portal.
type DomainConfig struct {
	Name  string
	Nodes int
	Trace []*job.Job
}

// Options configures the metascheduler simulation.
type Options struct {
	Domains []DomainConfig
	// Policy orders the global queue; nil = WFP (scored on each request's
	// widest member).
	Policy policy.Policy
}

// Result summarizes a run.
type Result struct {
	Reports           map[string]metrics.DomainReport
	Makespan          sim.Time
	StuckJobs         int
	CoStartViolations int
}

// member is one machine-local half of a request.
type member struct {
	domain string
	j      *job.Job
	alloc  *cluster.Allocation
}

// request is one unit of global scheduling: a single job or a
// heterogeneous pair spanning machines.
type request struct {
	members []member
	started bool
}

// submitTime returns the request's arrival at the portal: the LATEST
// member submission (the portal cannot act before it has the whole
// request).
func (r *request) submitTime() sim.Time {
	t := r.members[0].j.SubmitTime
	for _, m := range r.members[1:] {
		if m.j.SubmitTime > t {
			t = m.j.SubmitTime
		}
	}
	return t
}

// Sim is a configured metascheduler run.
type Sim struct {
	eng   *sim.Engine
	pol   policy.Policy
	pools map[string]*cluster.Pool
	names []string

	queue   []*request
	pending bool
	total   int
	done    int
}

// New builds the portal: traces are merged, paired jobs fused into
// heterogeneous requests.
func New(opt Options) (*Sim, error) {
	if len(opt.Domains) == 0 {
		return nil, fmt.Errorf("metasched: need at least one domain")
	}
	pol := opt.Policy
	if pol == nil {
		pol = policy.WFP{}
	}
	s := &Sim{
		eng:   sim.NewEngine(),
		pol:   pol,
		pools: make(map[string]*cluster.Pool),
	}
	byRef := make(map[job.MateRef]*job.Job)
	for _, dc := range opt.Domains {
		if dc.Name == "" {
			return nil, fmt.Errorf("metasched: empty domain name")
		}
		if _, dup := s.pools[dc.Name]; dup {
			return nil, fmt.Errorf("metasched: duplicate domain %q", dc.Name)
		}
		s.pools[dc.Name] = cluster.New(dc.Name, dc.Nodes)
		s.names = append(s.names, dc.Name)
		for _, j := range dc.Trace {
			if err := j.Validate(); err != nil {
				return nil, fmt.Errorf("metasched: domain %q: %w", dc.Name, err)
			}
			if j.Nodes > dc.Nodes {
				return nil, fmt.Errorf("metasched: domain %q: job %d exceeds machine", dc.Name, j.ID)
			}
			byRef[job.MateRef{Domain: dc.Name, Job: j.ID}] = j
		}
	}

	// Fuse pairs into requests (each job consumed once; groups follow
	// mate links transitively).
	assigned := make(map[*job.Job]bool)
	var requests []*request
	for _, dc := range opt.Domains {
		for _, j := range dc.Trace {
			if assigned[j] {
				continue
			}
			req := &request{}
			// Walk the mate closure breadth-first.
			frontier := []job.MateRef{{Domain: dc.Name, Job: j.ID}}
			seen := map[job.MateRef]bool{}
			for len(frontier) > 0 {
				ref := frontier[0]
				frontier = frontier[1:]
				if seen[ref] {
					continue
				}
				seen[ref] = true
				mj, ok := byRef[ref]
				if !ok {
					continue // dangling mate: the portal schedules what it has
				}
				if assigned[mj] {
					continue
				}
				assigned[mj] = true
				req.members = append(req.members, member{domain: ref.Domain, j: mj})
				frontier = append(frontier, mj.Mates...)
			}
			if len(req.members) > 0 {
				requests = append(requests, req)
			}
		}
	}

	// Arrival events: the request enters the global queue when its last
	// member is submitted.
	for _, req := range requests {
		req := req
		s.total += len(req.members)
		at := req.submitTime()
		for _, m := range req.members {
			m.j.SubmitTime = at // the portal is the submission point
		}
		if _, err := s.eng.At(at, sim.PrioritySubmit, func(now sim.Time) {
			for _, m := range req.members {
				if err := m.j.Advance(job.Queued); err != nil {
					panic(fmt.Sprintf("metasched: queue: %v", err))
				}
			}
			s.queue = append(s.queue, req)
			s.requestIteration()
		}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *Sim) requestIteration() {
	if s.pending {
		return
	}
	s.pending = true
	s.eng.After(0, sim.PrioritySchedule, func(now sim.Time) {
		s.pending = false
		s.iterate(now)
	})
}

// score orders requests by their widest member's policy score.
func (s *Sim) score(r *request, now sim.Time) float64 {
	best := s.pol.Score(r.members[0].j, now)
	for _, m := range r.members[1:] {
		if v := s.pol.Score(m.j, now); v > best {
			best = v
		}
	}
	return best
}

// iterate runs one global scheduling pass: requests in priority order,
// greedy multi-resource backfill (a request starts whenever every member
// fits its machine right now — the portal sees all machines, so no
// cross-domain protocol and no reservations are needed).
func (s *Sim) iterate(now sim.Time) {
	ordered := append([]*request(nil), s.queue...)
	sort.SliceStable(ordered, func(a, b int) bool {
		sa, sb := s.score(ordered[a], now), s.score(ordered[b], now)
		//simlint:allow R5 sort comparator must be exact and total; an epsilon tie would break strict weak ordering
		if sa != sb {
			return sa > sb
		}
		return ordered[a].submitTime() < ordered[b].submitTime()
	})
	for _, req := range ordered {
		if req.started {
			continue
		}
		fits := true
		for _, m := range req.members {
			if !s.pools[m.domain].CanAllocate(m.j.Nodes) {
				fits = false
				break
			}
		}
		if !fits {
			continue
		}
		s.start(req, now)
	}
}

// start atomically allocates every member and schedules completions.
func (s *Sim) start(req *request, now sim.Time) {
	req.started = true
	for i := range req.members {
		m := &req.members[i]
		alloc, err := s.pools[m.domain].Allocate(now, m.j.Nodes, cluster.AllocRun)
		if err != nil {
			panic(fmt.Sprintf("metasched: allocate after CanAllocate: %v", err))
		}
		m.alloc = alloc
		m.j.MarkReady(now)
		if err := m.j.Advance(job.Running); err != nil {
			panic(fmt.Sprintf("metasched: start: %v", err))
		}
		m.j.StartTime = now
		mj, dom, id := m.j, m.domain, alloc.ID
		s.eng.After(mj.Runtime, sim.PriorityEnd, func(end sim.Time) {
			if err := s.pools[dom].Release(end, alloc, id); err != nil {
				panic(fmt.Sprintf("metasched: release: %v", err))
			}
			if err := mj.Advance(job.Completed); err != nil {
				panic(fmt.Sprintf("metasched: complete: %v", err))
			}
			mj.EndTime = end
			s.done++
			s.requestIteration()
		})
	}
	// Remove from the queue.
	for i, q := range s.queue {
		if q == req {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			break
		}
	}
}

// Run executes to completion and collects per-domain reports.
func (s *Sim) Run(traces map[string][]*job.Job) *Result {
	s.eng.Run()
	res := &Result{
		Reports:   make(map[string]metrics.DomainReport),
		Makespan:  s.eng.Now(),
		StuckJobs: s.total - s.done,
	}
	for _, name := range s.names {
		s.pools[name].Sync(res.Makespan)
		res.Reports[name] = metrics.Collect(name, traces[name], s.pools[name].Total(), res.Makespan)
	}
	// Atomic dual allocation makes divergent starts impossible, but
	// verify anyway.
	for _, name := range s.names {
		for _, j := range traces[name] {
			if !j.Paired() || j.State != job.Completed {
				continue
			}
			for _, ref := range j.Mates {
				mates, ok := traces[ref.Domain]
				if !ok || name > ref.Domain {
					continue
				}
				for _, mj := range mates {
					if mj.ID == ref.Job && mj.State == job.Completed && mj.StartTime != j.StartTime {
						res.CoStartViolations++
					}
				}
			}
		}
	}
	return res
}
