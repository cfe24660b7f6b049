package cluster

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestAllocateRelease(t *testing.T) {
	p := New("test", 100)
	a, err := p.Allocate(0, 40, AllocRun)
	if err != nil {
		t.Fatal(err)
	}
	if p.Free() != 60 || p.Busy() != 40 || p.Running() != 40 || p.Held() != 0 {
		t.Fatalf("after allocate: %s", p)
	}
	if err := p.Release(10, a, a.ID); err != nil {
		t.Fatal(err)
	}
	if p.Free() != 100 || p.Allocations() != 0 {
		t.Fatalf("after release: %s", p)
	}
}

func TestAllocateInsufficient(t *testing.T) {
	p := New("test", 10)
	if _, err := p.Allocate(0, 8, AllocRun); err != nil {
		t.Fatal(err)
	}
	_, err := p.Allocate(0, 3, AllocRun)
	if !errors.Is(err, ErrInsufficientNodes) {
		t.Fatalf("err = %v, want ErrInsufficientNodes", err)
	}
}

func TestAllocateBadRequest(t *testing.T) {
	p := New("test", 10)
	for _, n := range []int{0, -1, 11} {
		if _, err := p.Allocate(0, n, AllocRun); !errors.Is(err, ErrBadRequest) {
			t.Errorf("Allocate(%d) err = %v, want ErrBadRequest", n, err)
		}
	}
}

// Release refuses every handle that is not a live grant of this pool: nil,
// one granted by another pool, one already released (double release), a
// live grant under the wrong ID, and a copy of a live grant. A refused
// release leaves the accounting untouched.
func TestReleaseUnknown(t *testing.T) {
	p := New("test", 10)
	other, err := New("other", 10).Allocate(0, 2, AllocRun)
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Allocate(0, 3, AllocHold)
	if err != nil {
		t.Fatal(err)
	}
	aID := a.ID
	if err := p.Release(1, a, aID); err != nil {
		t.Fatal(err)
	}
	if err := p.Release(2, nil, 0); !errors.Is(err, ErrUnknownAlloc) {
		t.Errorf("nil: err = %v, want ErrUnknownAlloc", err)
	}
	if err := p.Release(2, other, other.ID); !errors.Is(err, ErrUnknownAlloc) {
		t.Errorf("foreign: err = %v, want ErrUnknownAlloc", err)
	}
	if err := p.Release(2, a, aID); !errors.Is(err, ErrUnknownAlloc) {
		t.Errorf("released: err = %v, want ErrUnknownAlloc", err)
	}
	if p.Free() != 10 || p.Held() != 0 || p.Allocations() != 0 {
		t.Fatalf("refused releases changed the pool: %s, %d live", p, p.Allocations())
	}

	b, err := p.Allocate(3, 4, AllocRun)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Release(4, b, b.ID+1); !errors.Is(err, ErrUnknownAlloc) {
		t.Errorf("wrong id: err = %v, want ErrUnknownAlloc", err)
	}
	c := *b
	if err := p.Release(4, &c, c.ID); !errors.Is(err, ErrUnknownAlloc) {
		t.Errorf("copy: err = %v, want ErrUnknownAlloc", err)
	}
	if p.Free() != 6 || p.Running() != 4 || p.Allocations() != 1 {
		t.Fatalf("refused releases changed the pool: %s, %d live", p, p.Allocations())
	}
}

// A released handle stays refused after the next Allocate recycles its
// struct for another grant: the stale release must neither succeed nor
// touch the new grant's accounting, and the new grant releases normally.
func TestReleaseStaleHandleAfterReuse(t *testing.T) {
	p := New("test", 10)
	a, err := p.Allocate(0, 3, AllocHold)
	if err != nil {
		t.Fatal(err)
	}
	aID := a.ID
	if err := p.Release(1, a, aID); err != nil {
		t.Fatal(err)
	}
	b, err := p.Allocate(2, 5, AllocRun)
	if err != nil {
		t.Fatal(err)
	}
	if b != a {
		t.Fatalf("Allocate did not recycle the released struct; the test needs it to")
	}
	if err := p.Release(3, a, aID); !errors.Is(err, ErrUnknownAlloc) {
		t.Fatalf("stale release: err = %v, want ErrUnknownAlloc", err)
	}
	if _, err := p.Convert(3, a, aID, AllocHold); !errors.Is(err, ErrUnknownAlloc) {
		t.Fatalf("stale convert: err = %v, want ErrUnknownAlloc", err)
	}
	if p.Free() != 5 || p.Running() != 5 || p.Held() != 0 || p.Allocations() != 1 {
		t.Fatalf("stale handle changed the new grant's accounting: %s, %d live", p, p.Allocations())
	}
	if err := p.Release(4, b, b.ID); err != nil {
		t.Fatal(err)
	}
	if p.Free() != 10 || p.Allocations() != 0 {
		t.Fatalf("after releasing the new grant: %s", p)
	}
}

func TestHeldAccounting(t *testing.T) {
	p := New("test", 100)
	h, err := p.Allocate(0, 30, AllocHold)
	if err != nil {
		t.Fatal(err)
	}
	if p.Held() != 30 || p.Running() != 0 || p.Busy() != 30 {
		t.Fatalf("after hold: %s", p)
	}
	if got := p.HeldFraction(); got != 0.3 {
		t.Fatalf("held fraction = %g, want 0.3", got)
	}
	// Convert hold → run (mate became ready).
	if _, err := p.Convert(50, h, h.ID, AllocRun); err != nil {
		t.Fatal(err)
	}
	if p.Held() != 0 || p.Running() != 30 {
		t.Fatalf("after convert: %s", p)
	}
	p.Sync(100)
	// Held for 50s × 30 nodes = 1500 held node-seconds.
	if got := p.HeldNodeSeconds(); got != 1500 {
		t.Fatalf("held integral = %d, want 1500", got)
	}
	// Busy the whole 100s × 30 nodes = 3000.
	if got := p.BusyNodeSeconds(); got != 3000 {
		t.Fatalf("busy integral = %d, want 3000", got)
	}
	// Utilization excludes the held time: (3000-1500)/(100*100) = 0.15.
	if got := p.Utilization(100); got != 0.15 {
		t.Fatalf("utilization = %g, want 0.15", got)
	}
}

func TestConvertIdempotentAndUnknown(t *testing.T) {
	p := New("test", 10)
	a, _ := p.Allocate(0, 4, AllocRun)
	if _, err := p.Convert(0, a, a.ID, AllocRun); err != nil {
		t.Fatalf("same-kind convert: %v", err)
	}
	other, _ := New("other", 10).Allocate(0, 4, AllocRun)
	if _, err := p.Convert(0, other, other.ID, AllocHold); !errors.Is(err, ErrUnknownAlloc) {
		t.Fatalf("foreign handle: err = %v, want ErrUnknownAlloc", err)
	}
	aID := a.ID
	if err := p.Release(0, a, aID); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Convert(0, a, aID, AllocHold); !errors.Is(err, ErrUnknownAlloc) {
		t.Fatalf("released handle: err = %v, want ErrUnknownAlloc", err)
	}
	if p.Held() != 0 {
		t.Fatalf("refused convert changed held accounting: %s", p)
	}
}

func TestPartitionedChargeFor(t *testing.T) {
	p := NewPartitioned("intrepid", 40960, 512)
	cases := map[int]int{
		1:     512,
		512:   512,
		513:   1024,
		1024:  1024,
		2049:  4096,
		40960: 40960,
		33000: 40960, // next pow2 is 65536 > total, clamp to total
	}
	for req, want := range cases {
		if got := p.ChargeFor(req); got != want {
			t.Errorf("ChargeFor(%d) = %d, want %d", req, got, want)
		}
	}
}

func TestPartitionedAllocation(t *testing.T) {
	p := NewPartitioned("bgp", 4096, 512)
	a, err := p.Allocate(0, 700, AllocRun) // charges 1024
	if err != nil {
		t.Fatal(err)
	}
	if a.Allocated != 1024 || a.Requested != 700 {
		t.Fatalf("alloc = %+v", a)
	}
	if p.Free() != 4096-1024 {
		t.Fatalf("free = %d", p.Free())
	}
	if !p.CanAllocate(3000) { // charges 4096 > 3072? No: ChargeFor(3000)=4096 > free 3072.
		// 3000 rounds to 4096 which exceeds free capacity — CanAllocate
		// must be false; flip the assertion.
		t.Log("CanAllocate(3000) correctly false")
	} else {
		t.Fatal("CanAllocate(3000) = true, want false (charge 4096 > free 3072)")
	}
}

// Property: any sequence of allocate/release keeps invariants:
// 0 ≤ free ≤ total, held ≤ busy, and conservation free + busy = total.
func TestPoolInvariantsProperty(t *testing.T) {
	type op struct {
		N    uint8
		Hold bool
		Rel  bool
	}
	f := func(ops []op) bool {
		p := New("q", 64)
		type grant struct {
			a  *Allocation
			id int64
		}
		var live []grant
		now := int64(0)
		for _, o := range ops {
			now++
			if o.Rel && len(live) > 0 {
				g := live[0]
				live = live[1:]
				if err := p.Release(now, g.a, g.id); err != nil {
					return false
				}
				if p.Release(now, g.a, g.id) == nil { // double release
					return false
				}
			} else {
				n := int(o.N%64) + 1
				kind := AllocRun
				if o.Hold {
					kind = AllocHold
				}
				a, err := p.Allocate(now, n, kind)
				if err == nil {
					live = append(live, grant{a, a.ID})
				}
			}
			if p.Free() < 0 || p.Free() > p.Total() {
				return false
			}
			if p.Held() > p.Busy() || p.Held() < 0 {
				return false
			}
			if p.Free()+p.Busy() != p.Total() || p.Allocations() != len(live) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUtilizationZeroSpan(t *testing.T) {
	p := New("x", 10)
	if got := p.Utilization(0); got != 0 {
		t.Fatalf("utilization with zero span = %g, want 0", got)
	}
}
