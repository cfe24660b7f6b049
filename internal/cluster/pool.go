// Package cluster models the compute resource of one scheduling domain as a
// pool of interchangeable nodes with busy/held accounting, plus an optional
// Blue Gene/P-style partition constraint that rounds allocations up to
// power-of-two partition sizes.
//
// The pool also integrates busy node-seconds over virtual time so the
// metrics layer can report utilization and service-unit loss without
// sampling.
package cluster

import (
	"errors"
	"fmt"

	"cosched/internal/sim"
)

// AllocKind distinguishes why nodes are occupied.
type AllocKind int

const (
	// AllocRun marks nodes executing a job.
	AllocRun AllocKind = iota
	// AllocHold marks nodes held by a coscheduling job waiting for its
	// mate. Held nodes are busy to the scheduler but perform no work, so
	// they count as service-unit loss rather than utilization.
	AllocHold
)

func (k AllocKind) String() string {
	if k == AllocHold {
		return "hold"
	}
	return "run"
}

// Errors returned by the pool.
var (
	ErrInsufficientNodes = errors.New("cluster: insufficient free nodes")
	ErrUnknownAlloc      = errors.New("cluster: unknown allocation")
	ErrBadRequest        = errors.New("cluster: invalid request")
)

// Allocation records one grant of nodes. Allocated is ≥ Requested when the
// partition constraint rounds up. The allocation pointer together with the
// ID it was granted under is the handle that Release and Convert take.
type Allocation struct {
	ID        int64
	Requested int
	Allocated int
	Kind      AllocKind
	Since     sim.Time

	pool *Pool       // granting pool while live; nil once released
	self *Allocation // the struct the pool granted, so a copy is refused
}

// Pool is the node allocator for one domain. It is not safe for concurrent
// use; the single-threaded simulation engine serializes access, and the live
// daemon wraps it in the resource manager's lock.
type Pool struct {
	name  string
	total int

	// partitioned enables BG/P-style allocation: requests are rounded up
	// to the next power of two ≥ minPartition before being charged
	// against the pool.
	partitioned  bool
	minPartition int

	free    int
	held    int // subset of busy nodes that are held, not running
	nextID  int64
	live    int           // allocations granted and not yet released
	freed   []*Allocation // released structs recycled by the next Allocate
	lastT   sim.Time
	busyInt int64 // ∫ busy(t) dt in node-seconds (includes held)
	heldInt int64 // ∫ held(t) dt in node-seconds
}

// New returns a pool of total interchangeable nodes.
func New(name string, total int) *Pool {
	if total <= 0 {
		panic(fmt.Sprintf("cluster: pool %q total must be positive, got %d", name, total))
	}
	return &Pool{
		name:  name,
		total: total,
		free:  total,
	}
}

// NewPartitioned returns a pool that rounds every request up to the next
// power-of-two multiple of minPartition, as Blue Gene/P partitions do
// (Intrepid allocates 512, 1024, 2048 … node partitions).
func NewPartitioned(name string, total, minPartition int) *Pool {
	p := New(name, total)
	if minPartition <= 0 {
		panic("cluster: minPartition must be positive")
	}
	p.partitioned = true
	p.minPartition = minPartition
	return p
}

// Name returns the pool's domain name.
func (p *Pool) Name() string { return p.name }

// Total returns the node count.
func (p *Pool) Total() int { return p.total }

// Free returns currently unallocated nodes.
func (p *Pool) Free() int { return p.free }

// Busy returns total − free (running + held).
func (p *Pool) Busy() int { return p.total - p.free }

// Held returns nodes occupied by coscheduling holds.
func (p *Pool) Held() int { return p.held }

// Running returns nodes executing jobs (busy − held).
func (p *Pool) Running() int { return p.total - p.free - p.held }

// ChargeFor returns how many nodes a request for n actually consumes under
// this pool's allocation rules (identity for plain pools; next power-of-two
// partition for partitioned pools).
func (p *Pool) ChargeFor(n int) int {
	if !p.partitioned {
		return n
	}
	size := p.minPartition
	for size < n {
		size *= 2
	}
	if size > p.total {
		size = p.total
	}
	return size
}

// CanAllocate reports whether a request for n nodes would succeed now.
func (p *Pool) CanAllocate(n int) bool {
	if n <= 0 || n > p.total {
		return false
	}
	return p.ChargeFor(n) <= p.free
}

// Allocate grants n nodes of the given kind at virtual time now. The
// returned allocation and its ID are the handle passed to Release or
// Convert; the caller keeps the ID beside the pointer.
//
// Allocation structs are recycled: after a Release the next Allocate may
// reuse the struct for an unrelated grant under a new ID. IDs are never
// reused, so a stale handle (pointer plus the ID it was granted under) is
// refused even once its struct serves another grant, and a double release
// errors instead of freeing someone else's nodes.
func (p *Pool) Allocate(now sim.Time, n int, kind AllocKind) (*Allocation, error) {
	if n <= 0 || n > p.total {
		return nil, fmt.Errorf("%w: %d nodes from pool of %d", ErrBadRequest, n, p.total)
	}
	charge := p.ChargeFor(n)
	if charge > p.free {
		return nil, fmt.Errorf("%w: need %d (charged %d), free %d", ErrInsufficientNodes, n, charge, p.free)
	}
	p.integrate(now)
	p.free -= charge
	if kind == AllocHold {
		p.held += charge
	}
	p.nextID++
	var a *Allocation
	if k := len(p.freed); k > 0 {
		a = p.freed[k-1]
		p.freed[k-1] = nil
		p.freed = p.freed[:k-1]
	} else {
		a = new(Allocation)
	}
	*a = Allocation{ID: p.nextID, Requested: n, Allocated: charge, Kind: kind, Since: now, pool: p, self: a}
	p.live++
	return a, nil
}

// owns reports whether (a, id) is a live grant of this pool: a is the
// struct the pool handed out, still granted by it, under id.
func (p *Pool) owns(a *Allocation, id int64) bool {
	return a != nil && a.pool == p && a.self == a && a.ID == id
}

// Release returns the nodes of the grant (a, id) to the free pool. A handle
// that is not a live grant of this pool — nil, foreign, already released,
// under the wrong ID, or a copy — is an ErrUnknownAlloc and changes
// nothing. The Allocation struct goes back on the recycle list — see
// Allocate.
func (p *Pool) Release(now sim.Time, a *Allocation, id int64) error {
	if !p.owns(a, id) {
		return fmt.Errorf("%w: id %d", ErrUnknownAlloc, id)
	}
	p.integrate(now)
	p.free += a.Allocated
	if a.Kind == AllocHold {
		p.held -= a.Allocated
	}
	a.pool = nil
	p.live--
	// The pool is single-threaded (engine-serialized), so same-event reads
	// of the released struct remain valid until the next Allocate reuses it.
	p.freed = append(p.freed, a)
	return nil
}

// Convert switches the grant (a, id) between hold and run in place (used
// when a holding job's mate becomes ready and the job starts on the nodes
// it already occupies). It returns the allocation for convenience.
func (p *Pool) Convert(now sim.Time, a *Allocation, id int64, kind AllocKind) (*Allocation, error) {
	if !p.owns(a, id) {
		return nil, fmt.Errorf("%w: id %d", ErrUnknownAlloc, id)
	}
	if a.Kind == kind {
		return a, nil
	}
	p.integrate(now)
	if a.Kind == AllocHold {
		p.held -= a.Allocated
	} else {
		p.held += a.Allocated
	}
	a.Kind = kind
	a.Since = now
	return a, nil
}

// Allocations returns the number of live allocations.
func (p *Pool) Allocations() int { return p.live }

// integrate advances the utilization integrals to now.
func (p *Pool) integrate(now sim.Time) {
	if now < p.lastT {
		// Clock never goes backwards in the engine; guard anyway.
		return
	}
	dt := now - p.lastT
	p.busyInt += int64(p.Busy()) * dt
	p.heldInt += int64(p.held) * dt
	p.lastT = now
}

// Sync advances the integrals to now without changing allocations. Call it
// before reading the integral accessors at the end of a run.
func (p *Pool) Sync(now sim.Time) { p.integrate(now) }

// BusyNodeSeconds returns ∫ busy dt including held nodes, up to the last
// integrate/Sync point.
func (p *Pool) BusyNodeSeconds() int64 { return p.busyInt }

// HeldNodeSeconds returns ∫ held dt — the pool-side view of service-unit
// loss.
func (p *Pool) HeldNodeSeconds() int64 { return p.heldInt }

// Utilization returns busy node-seconds (excluding held) divided by
// total × span. span must be positive.
func (p *Pool) Utilization(span sim.Duration) float64 {
	if span <= 0 {
		return 0
	}
	return float64(p.busyInt-p.heldInt) / (float64(p.total) * float64(span))
}

// HeldFraction returns the fraction of the pool currently held. The
// resource manager consults it against the max-held threshold before
// letting another job hold.
func (p *Pool) HeldFraction() float64 { return float64(p.held) / float64(p.total) }

// String renders a snapshot for logs.
func (p *Pool) String() string {
	return fmt.Sprintf("pool %s: total=%d free=%d running=%d held=%d",
		p.name, p.total, p.free, p.Running(), p.held)
}
