package main

import (
	"io/fs"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cosched/internal/cosched"
	"cosched/internal/job"
	"cosched/internal/journal"
	"cosched/internal/peerlink"
	"cosched/internal/resmgr"
	"cosched/internal/sim"
)

// fullPeer is the protocol every peer in this repository speaks: the plain
// calls plus the co-start-instant and reconciliation extensions. Managers,
// proto clients and peerlink links all implement it, so a wrapper that
// forwards all three never hides an extension the manager would have used.
type fullPeer interface {
	cosched.Peer
	cosched.CoStarter
	cosched.Reconciler
}

// Peer method names, as counted and as they appear in span names.
var peerMethods = []string{
	"GetMateJob", "GetMateStatus", "CanStartMate", "TryStartMate",
	"TryStartMateAt", "StartMate", "StartMateAt", "ReconcileMates",
}

// callStats counts and times the calls through one layer of peer
// wrappers. Safe for concurrent use: the live daemons call their links
// from two scheduler goroutines.
type callStats struct {
	layer string // span-name prefix: "cosched" or "proto"
	tr    *tracer
	keep  bool // record each call's duration in samples

	mu      sync.Mutex
	calls   map[string]uint64
	samples []float64 // seconds per call, when keep is set
	total   float64   // seconds inside calls
}

func newCallStats(layer string, tr *tracer, keep bool) *callStats {
	return &callStats{layer: layer, tr: tr, keep: keep, calls: make(map[string]uint64)}
}

// timed runs call under a span on lane and records its duration.
func (c *callStats) timed(lane, method string, call func()) {
	sp := c.tr.spans.begin(c.layer+"."+method, lane)
	start := time.Now()
	call()
	d := time.Since(start).Seconds()
	c.tr.spans.end(sp)
	c.mu.Lock()
	c.calls[method]++
	if c.keep {
		c.samples = append(c.samples, d)
	}
	c.total += d
	c.mu.Unlock()
}

// count returns the number of calls made, all methods together.
func (c *callStats) count() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n uint64
	for _, v := range c.calls {
		n += v
	}
	return n
}

// wrap returns p with every call counted and timed. lane names the caller
// whose goroutine makes the calls, so nested spans find their parent.
func (c *callStats) wrap(p fullPeer, lane string) *timedPeer {
	return &timedPeer{inner: p, st: c, lane: lane}
}

// timedPeer forwards every fullPeer method to inner, timing each call.
type timedPeer struct {
	inner fullPeer
	st    *callStats
	lane  string
}

var _ fullPeer = (*timedPeer)(nil)

func (p *timedPeer) PeerName() string { return p.inner.PeerName() }

func (p *timedPeer) GetMateJob(id job.ID) (ok bool, err error) {
	p.st.timed(p.lane, "GetMateJob", func() { ok, err = p.inner.GetMateJob(id) })
	return
}

func (p *timedPeer) GetMateStatus(id job.ID) (s cosched.MateStatus, err error) {
	p.st.timed(p.lane, "GetMateStatus", func() { s, err = p.inner.GetMateStatus(id) })
	return
}

func (p *timedPeer) CanStartMate(id job.ID) (ok bool, err error) {
	p.st.timed(p.lane, "CanStartMate", func() { ok, err = p.inner.CanStartMate(id) })
	return
}

func (p *timedPeer) TryStartMate(id job.ID) (ok bool, err error) {
	p.st.timed(p.lane, "TryStartMate", func() { ok, err = p.inner.TryStartMate(id) })
	return
}

func (p *timedPeer) TryStartMateAt(id job.ID, at sim.Time) (ok bool, err error) {
	p.st.timed(p.lane, "TryStartMateAt", func() { ok, err = p.inner.TryStartMateAt(id, at) })
	return
}

func (p *timedPeer) StartMate(id job.ID) (err error) {
	p.st.timed(p.lane, "StartMate", func() { err = p.inner.StartMate(id) })
	return
}

func (p *timedPeer) StartMateAt(id job.ID, at sim.Time) (err error) {
	p.st.timed(p.lane, "StartMateAt", func() { err = p.inner.StartMateAt(id, at) })
	return
}

func (p *timedPeer) ReconcileMates(from string, views []cosched.MateView) (out []cosched.MateView, err error) {
	p.st.timed(p.lane, "ReconcileMates", func() { out, err = p.inner.ReconcileMates(from, views) })
	return
}

// timedTransport is a timedPeer over a peerlink transport, so a link's
// proto client can be timed below the link's retries and breaker.
type timedTransport struct {
	*timedPeer
	t peerlink.Transport
}

var _ peerlink.Transport = timedTransport{}

func (t timedTransport) Ping() (string, error) { return t.t.Ping() }
func (t timedTransport) Close() error          { return t.t.Close() }

// countingObserver counts the hold, yield and release decisions a manager
// reports and forwards every notification, including the optional
// expect and peer-decision extensions, to next. onStart and onHold, when
// set, see every start and every hold after next has.
type countingObserver struct {
	next    resmgr.Observer
	tr      *tracer
	onStart func(now sim.Time, j *job.Job)
	onHold  func(j *job.Job)
}

var (
	_ resmgr.ExpectObserver       = (*countingObserver)(nil)
	_ resmgr.PeerDecisionObserver = (*countingObserver)(nil)
)

func (o *countingObserver) JobSubmitted(now sim.Time, j *job.Job) { o.next.JobSubmitted(now, j) }
func (o *countingObserver) JobCompleted(now sim.Time, j *job.Job) { o.next.JobCompleted(now, j) }
func (o *countingObserver) JobCancelled(now sim.Time, j *job.Job) { o.next.JobCancelled(now, j) }

func (o *countingObserver) JobStarted(now sim.Time, j *job.Job) {
	o.next.JobStarted(now, j)
	if o.onStart != nil {
		o.onStart(now, j)
	}
}

func (o *countingObserver) JobHeld(now sim.Time, j *job.Job) {
	if o.tr != nil {
		o.tr.holds.Add(1)
	}
	o.next.JobHeld(now, j)
	if o.onHold != nil {
		o.onHold(j)
	}
}

func (o *countingObserver) JobYielded(now sim.Time, j *job.Job) {
	if o.tr != nil {
		o.tr.yields.Add(1)
	}
	o.next.JobYielded(now, j)
}

func (o *countingObserver) JobReleased(now sim.Time, j *job.Job, requeued bool) {
	if o.tr != nil {
		o.tr.releases.Add(1)
	}
	o.next.JobReleased(now, j, requeued)
}

func (o *countingObserver) JobExpected(now sim.Time, j *job.Job) {
	if eo, ok := o.next.(resmgr.ExpectObserver); ok {
		eo.JobExpected(now, j)
	}
}

func (o *countingObserver) PeerDecision(now sim.Time, method string, id job.ID, ok bool) {
	if po, isPO := o.next.(resmgr.PeerDecisionObserver); isPO {
		po.PeerDecision(now, method, id, ok)
	}
}

// countingConn counts the bytes read and written on a connection the
// benchmark owns.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// timingFS is the real disk with every journal fsync timed and every
// journal write counted.
type timingFS struct {
	journal.OSFS
	tr   *tracer
	lane string
}

func (f timingFS) OpenFile(path string, flag int, perm fs.FileMode) (journal.File, error) {
	file, err := f.OSFS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return timingFile{File: file, tr: f.tr, lane: f.lane}, nil
}

type timingFile struct {
	journal.File
	tr   *tracer
	lane string
}

func (f timingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.tr.writeBytes.Add(int64(n))
	return n, err
}

func (f timingFile) Sync() error {
	sp := f.tr.spans.begin("journal.fsync", f.lane)
	start := time.Now()
	err := f.File.Sync()
	d := time.Since(start).Seconds()
	f.tr.spans.end(sp)
	f.tr.mu.Lock()
	f.tr.fsyncSamples = append(f.tr.fsyncSamples, d)
	f.tr.mu.Unlock()
	return err
}
