package job

import (
	"testing"
	"testing/quick"
	"unsafe"

	"cosched/internal/sim"
)

func TestLifecycleHappyPath(t *testing.T) {
	j := New(1, 64, 100, 600, 900)
	for _, next := range []State{Queued, Running, Completed} {
		if err := j.Advance(next); err != nil {
			t.Fatalf("advance to %s: %v", next, err)
		}
	}
}

func TestLifecycleHoldPath(t *testing.T) {
	j := New(1, 64, 100, 600, 900)
	steps := []State{Queued, Holding, Queued, Holding, Running, Completed}
	for _, next := range steps {
		if err := j.Advance(next); err != nil {
			t.Fatalf("advance to %s: %v", next, err)
		}
	}
}

func TestLifecycleRejectsIllegalTransitions(t *testing.T) {
	cases := []struct {
		from State
		to   State
	}{
		{Unsubmitted, Running},
		{Unsubmitted, Holding},
		{Unsubmitted, Completed},
		{Queued, Completed},
		{Queued, Unsubmitted},
		{Running, Queued},
		{Running, Holding},
		{Completed, Queued},
		{Completed, Running},
		{Holding, Completed},
		{Holding, Unsubmitted},
		{State(-1), Queued},     // out of the transition table's range
		{Cancelled + 1, Queued}, // likewise
	}
	for _, c := range cases {
		j := New(1, 4, 0, 10, 10)
		j.State = c.from
		if err := j.Advance(c.to); err == nil {
			t.Errorf("transition %s → %s allowed, want error", c.from, c.to)
		}
		if j.State != c.from {
			t.Errorf("failed transition mutated state to %s", j.State)
		}
	}
}

func TestValidate(t *testing.T) {
	good := New(1, 4, 0, 10, 20)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
	bad := []*Job{
		{ID: 1, Nodes: 0, Runtime: 10, Walltime: 10},
		{ID: 2, Nodes: 4, Runtime: -1, Walltime: 10},
		{ID: 3, Nodes: 4, Runtime: 10, Walltime: 5},
		{ID: 4, Nodes: 4, Runtime: 10, Walltime: 10, SubmitTime: -5},
		{ID: 5, Nodes: 4, Runtime: 10, Walltime: 10, Mates: []MateRef{{Domain: "", Job: 9}}},
	}
	for _, j := range bad {
		if err := j.Validate(); err == nil {
			t.Errorf("job %d accepted, want error", j.ID)
		}
	}
}

func TestNewClampsWalltime(t *testing.T) {
	j := New(1, 4, 0, 100, 50)
	if j.Walltime != 100 {
		t.Fatalf("walltime = %d, want clamped to runtime 100", j.Walltime)
	}
}

func TestMetricsAccessors(t *testing.T) {
	j := New(1, 16, 1000, 600, 600)
	j.State = Completed
	j.StartTime = 1300
	j.EndTime = 1900
	if got := j.WaitTime(); got != 300 {
		t.Errorf("wait = %d, want 300", got)
	}
	if got := j.ResponseTime(); got != 900 {
		t.Errorf("response = %d, want 900", got)
	}
	if got := j.Slowdown(); got != 1.5 {
		t.Errorf("slowdown = %g, want 1.5", got)
	}
	if got := j.NodeSeconds(); got != 16*600 {
		t.Errorf("node-seconds = %d, want %d", got, 16*600)
	}
}

func TestSlowdownZeroRuntime(t *testing.T) {
	j := New(1, 1, 0, 0, 0)
	j.StartTime = 10
	if sd := j.Slowdown(); sd != 11 {
		t.Errorf("zero-runtime slowdown = %g, want 11 (1s clamp)", sd)
	}
}

func TestBoundedSlowdown(t *testing.T) {
	j := New(1, 1, 0, 2, 2) // 2s job
	j.StartTime = 8         // wait 8
	// Unbounded would be (8+2)/2 = 5; with bound 10 it is (8+10)/10 = 1.8.
	if sd := j.BoundedSlowdown(10); sd != 1.8 {
		t.Errorf("bounded slowdown = %g, want 1.8", sd)
	}
	// Never below 1.
	quick_ := New(2, 1, 0, 100, 100)
	quick_.StartTime = 0
	if sd := quick_.BoundedSlowdown(1000); sd != 1 {
		t.Errorf("bounded slowdown = %g, want clamp to 1", sd)
	}
}

func TestSyncTime(t *testing.T) {
	j := New(1, 4, 0, 10, 10)
	if j.SyncTime() != 0 {
		t.Fatal("sync time nonzero before ever ready")
	}
	j.MarkReady(100)
	j.MarkReady(200) // second call must not move the mark
	j.StartTime = 250
	if got := j.SyncTime(); got != 150 {
		t.Errorf("sync = %d, want 150", got)
	}
}

// The job record is the unit of a simulation's memory: the workload
// snapshot, the arena and every manager hold one per job. The resource
// manager's Slot index sits in EverReady's padding; a field that grows the
// record shows up in every sweep's setup time and peak RSS.
func TestJobRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(Job{}); got > 160 {
		t.Fatalf("unsafe.Sizeof(Job{}) = %d bytes, want ≤ 160", got)
	}
}

func TestCloneResetsState(t *testing.T) {
	j := New(1, 4, 50, 10, 20)
	j.Mates = []MateRef{{Domain: "b", Job: 7}}
	j.State = Completed
	j.StartTime = 99
	j.YieldCount = 3
	j.HeldNodeSeconds = 1234
	j.Slot = 5
	j.MarkReady(60)
	c := j.Clone()
	if c.State != Unsubmitted || c.StartTime != 0 || c.YieldCount != 0 ||
		c.HeldNodeSeconds != 0 || c.EverReady || c.Slot != 0 {
		t.Fatalf("clone did not reset state: %+v", c)
	}
	if len(c.Mates) != 1 || c.Mates[0].Job != 7 {
		t.Fatalf("clone lost mates: %+v", c.Mates)
	}
	c.Mates[0].Job = 8
	if j.Mates[0].Job != 7 {
		t.Fatal("clone shares mates slice with original")
	}
}

// Property: slowdown is always ≥ 1 for non-negative waits, and wait/response
// are consistent.
func TestSlowdownProperty(t *testing.T) {
	f := func(wait uint16, runtime uint16) bool {
		rt := sim.Duration(runtime)
		j := New(1, 1, 0, rt, rt)
		j.StartTime = sim.Time(wait)
		if j.WaitTime() != sim.Duration(wait) {
			return false
		}
		return j.Slowdown() >= 1 && j.BoundedSlowdown(10) >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStateString(t *testing.T) {
	want := map[State]string{
		Unsubmitted: "unsubmitted", Queued: "queued", Holding: "holding",
		Running: "running", Completed: "completed", State(99): "state(99)",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("State(%d).String() = %q, want %q", int(s), s.String(), w)
		}
	}
}

func TestCancelledTransitions(t *testing.T) {
	for _, from := range []State{Unsubmitted, Queued, Holding, Running} {
		j := New(1, 4, 0, 10, 10)
		j.State = from
		if err := j.Advance(Cancelled); err != nil {
			t.Errorf("cancel from %s: %v", from, err)
		}
	}
	for _, from := range []State{Completed, Cancelled} {
		j := New(1, 4, 0, 10, 10)
		j.State = from
		if err := j.Advance(Cancelled); err == nil {
			t.Errorf("cancel from terminal %s accepted", from)
		}
	}
	if Cancelled.String() != "cancelled" {
		t.Fatal("string")
	}
}
