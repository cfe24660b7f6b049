package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cosched/internal/cluster"
	"cosched/internal/cosched"
	"cosched/internal/job"
	"cosched/internal/journal"
	"cosched/internal/live"
	"cosched/internal/peerlink"
	"cosched/internal/policy"
	"cosched/internal/proto"
	"cosched/internal/resmgr"
	"cosched/internal/sim"
	"cosched/internal/workload"
)

// coschedd's defaults, which the daemon pair is built with.
const (
	daemonNodes    = 64
	daemonSpeedup  = 1.0
	peerTimeout    = 2 * time.Second
	breakerFails   = 3
	breakerCool    = 5 * time.Second
	backoffBase    = 50 * time.Millisecond
	backoffMax     = 10 * time.Second
	snapshotEvery  = 1024
	releaseMinutes = 20
)

// Limits of one pair. A pair that has not co-started lateLimit after its
// last Submit failed: the limit sits well under the 2 s peer-call timeout,
// so a pair that waited one out counts. A pair with a half still not
// started lostLimit after its last Submit has outlived every peer-call
// timeout and fallback start; its held half waits for the release interval,
// so the client stops waiting for it.
const (
	lateLimit = 500 * time.Millisecond
	lostLimit = peerTimeout + lateLimit
)

// liveSession is how long the daemon pair of one untraced session runs.
// It holds the start-up stalls and at least one half-open probe of the
// peer breaker (see README.md).
const liveSession = 12500 * time.Millisecond

// sessionPairs is the most pairs one untraced session co-submits (see
// runLive).
const sessionPairs = 2000

// clockOffset is how much later the second daemon's clock starts than the
// first's. It is a chosen workload parameter, not a measured one: two
// daemons started independently run in an arbitrary phase, anywhere in
// [0, 1 s), and two halves started independently of each other land in
// different virtual seconds in about that share of pairs. The offset
// therefore sets the share of split pairs; it does not change which pairs
// are timed.
const clockOffset = 100 * time.Millisecond

// daemon is one in-process coschedd: manager, real-time driver, journal
// with per-transition fsync, peer server, peer link and admin server, wired
// as cmd/coschedd wires them.
type daemon struct {
	name   string
	mgr    *resmgr.Manager
	driver *live.Driver
	store  *journal.Store
	peer   *proto.Server
	admin  *live.AdminServer
	link   *peerlink.Link

	peerAddr, adminAddr string

	stop    context.CancelFunc
	running chan struct{} // closed when the run loop starts pacing
	stopped chan struct{}
}

// pairTracker records when a half of a pair first holds and when each
// half starts, as the daemons' observers report it, and which pairs a
// daemon started on its peer's request.
type pairTracker struct {
	mu    sync.Mutex
	pairs map[job.ID]*pairState
	// agreed holds the pairs with a half started on the peer's start
	// request: they went through Algorithm 1's co-start, not the
	// fault-tolerance fallback that starts each half on its own. It is
	// kept apart from pairs because the request's half starts before the
	// request returns, and that start may complete the pair.
	agreed map[job.ID]bool
}

func newPairTracker() *pairTracker {
	return &pairTracker{pairs: make(map[job.ID]*pairState), agreed: make(map[job.ID]bool)}
}

type pairState struct {
	wall    [2]time.Time
	virtual [2]sim.Time
	started [2]bool
	done    chan struct{}
	held    chan struct{} // closed when a half of the pair first holds
	holding bool
}

func (t *pairTracker) expect(id job.ID) *pairState {
	p := &pairState{done: make(chan struct{}), held: make(chan struct{})}
	t.mu.Lock()
	t.pairs[id] = p
	t.mu.Unlock()
	return p
}

// agree records that a daemon started pair id's half on its peer's
// request.
func (t *pairTracker) agree(id job.ID) {
	t.mu.Lock()
	t.agreed[id] = true
	t.mu.Unlock()
}

// agreedPairs returns how many pairs went through a peer's start request.
// Read it once the daemons have stopped, when no request is in flight.
func (t *pairTracker) agreedPairs() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.agreed)
}

// forget stops tracking pair id and reports which halves had started.
func (t *pairTracker) forget(id job.ID) [2]bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.pairs[id]
	if !ok {
		return [2]bool{true, true}
	}
	delete(t.pairs, id)
	return p.started
}

// held records that a half of pair id holds its nodes for its mate.
func (t *pairTracker) held(id job.ID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p, ok := t.pairs[id]; ok && !p.holding {
		p.holding = true
		close(p.held)
	}
}

func (t *pairTracker) started(side int, j *job.Job) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.pairs[j.ID]
	if !ok || p.started[side] {
		return
	}
	p.wall[side], p.virtual[side], p.started[side] = now, j.StartTime, true
	if p.started[0] && p.started[1] {
		close(p.done)
		delete(t.pairs, j.ID)
	}
}

// daemonPair is two daemons peered over loopback TCP plus the one client
// connection per daemon that submits pairs.
type daemonPair struct {
	d       [2]*daemon
	clients [2]*live.AdminClient
	track   *pairTracker
	dir     string
}

var daemonNames = [2]string{"alpha", "beta"}

// startPair builds, starts and connects two daemons whose journals live
// under dir. A non-nil tr wraps each link, its proto transport, its
// connection and the journal filesystem with the benchmark's wrappers.
func startPair(dir string, tr *tracer) (*daemonPair, error) {
	p := &daemonPair{track: newPairTracker(), dir: dir}
	for i, name := range daemonNames {
		d, err := newDaemon(name, filepath.Join(dir, name), i, p.track, tr)
		if err != nil {
			p.close()
			return nil, err
		}
		p.d[i] = d
	}
	for i, d := range p.d {
		other := p.d[1-i]
		seed := fnv.New64a()
		fmt.Fprintf(seed, "%s->%s", d.name, other.name)
		cfg := peerlink.Config{
			Name:          other.name,
			Addr:          other.peerAddr,
			DialTimeout:   peerTimeout,
			CallTimeout:   peerTimeout,
			FailThreshold: breakerFails,
			Cooldown:      breakerCool,
			BackoffBase:   backoffBase,
			BackoffMax:    backoffMax,
			Seed:          seed.Sum64(),
		}
		if tr != nil {
			lane := d.name
			cfg.Dial = func(addr string, dialTimeout, callTimeout time.Duration) (peerlink.Transport, error) {
				// proto.DialTimeouts on a counted connection: the same
				// errors, and the same Ping before the link may use it.
				conn, err := net.DialTimeout("tcp", addr, dialTimeout)
				if err != nil {
					return nil, &proto.TransportError{Stage: proto.StageDial, Err: fmt.Errorf("dial %s: %w", addr, err)}
				}
				c := proto.NewClient(tr.countConn(conn), callTimeout)
				if _, err := c.Ping(); err != nil {
					conn.Close()
					return nil, err
				}
				return timedTransport{timedPeer: tr.rtt.wrap(c, lane), t: c}, nil
			}
		}
		d.link = peerlink.New(cfg)
		var peer cosched.Peer = d.link
		if tr != nil {
			peer = tr.calls.wrap(d.link, d.name)
		}
		d.mgr.AddPeer(other.name, peer)
	}
	for i, d := range p.d {
		ctx, cancel := context.WithCancel(context.Background())
		d.stop = cancel
		d.running = make(chan struct{})
		d.stopped = make(chan struct{})
		go func(d *daemon, delay time.Duration) {
			defer close(d.stopped)
			select {
			case <-time.After(delay):
				close(d.running)
				d.driver.Run(ctx)
			case <-ctx.Done():
			}
		}(d, time.Duration(i)*clockOffset)
	}
	for i, d := range p.d {
		c, err := live.DialAdmin(d.adminAddr, peerTimeout)
		if err != nil {
			p.close()
			return nil, fmt.Errorf("dial %s admin: %w", d.name, err)
		}
		p.clients[i] = c
		if err := d.link.Probe(); err != nil {
			p.close()
			return nil, fmt.Errorf("%s: probe peer: %w", d.name, err)
		}
	}
	return p, nil
}

func newDaemon(name, dir string, side int, track *pairTracker, tr *tracer) (*daemon, error) {
	d := &daemon{name: name}
	opt := journal.Options{FsyncInterval: 0, SnapshotEvery: snapshotEvery}
	if tr != nil {
		opt.FS = timingFS{tr: tr, lane: name}
	}
	store, err := journal.Open(dir, opt)
	if err != nil {
		return nil, err
	}
	d.store = store
	var mgr *resmgr.Manager
	rec := journal.NewRecorder(store,
		func() journal.Snapshot { return journal.ManagerSnapshot(mgr) },
		func(err error) { fmt.Fprintf(os.Stderr, "perfbench: %s journal: %v\n", name, err) })
	obs := &countingObserver{next: rec, tr: tr,
		onStart: func(_ sim.Time, j *job.Job) { track.started(side, j) },
		onHold:  func(j *job.Job) { track.held(j.ID) },
	}
	pol, _ := policy.ByName("wfp")
	eng := sim.NewEngine()
	mgr = resmgr.New(eng, resmgr.Options{
		Name:        name,
		Pool:        cluster.New(name, daemonNodes),
		Policy:      pol,
		Backfilling: true,
		Cosched: cosched.Config{
			Enabled:         true,
			Scheme:          cosched.Hold,
			ReleaseInterval: releaseMinutes * sim.Minute,
			MaxHeldFraction: 1.0,
		},
		Observer: obs,
	})
	d.mgr = mgr
	d.driver = live.NewDriver(eng, daemonSpeedup)
	d.peer = proto.NewServer(servedPeer{fullPeer: mgr, track: track}, d.driver, nil)
	addr, err := d.peer.Listen("127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, fmt.Errorf("%s peer listen: %w", name, err)
	}
	d.peerAddr = addr.String()
	d.admin = live.NewAdminServer(mgr, d.driver, nil)
	addr, err = d.admin.Listen("127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, fmt.Errorf("%s admin listen: %w", name, err)
	}
	d.adminAddr = addr.String()
	return d, nil
}

// servedPeer is the manager as a daemon's peer server calls it. It records
// in track each pair whose half a start request finds queued or holding
// and starts; a request that finds the half already running, started by
// the fault-tolerance fallback, does not count. The server calls it under
// the driver's lock, so the status read and the start see the same state.
type servedPeer struct {
	fullPeer
	track *pairTracker
}

var _ fullPeer = servedPeer{}

// waiting reports whether job id is queued or holding here.
func (p servedPeer) waiting(id job.ID) bool {
	s, err := p.fullPeer.GetMateStatus(id)
	return err == nil && (s == cosched.StatusQueuing || s == cosched.StatusHolding)
}

func (p servedPeer) TryStartMate(id job.ID) (bool, error) {
	waiting := p.waiting(id)
	ok, err := p.fullPeer.TryStartMate(id)
	if waiting && ok && err == nil {
		p.track.agree(id)
	}
	return ok, err
}

func (p servedPeer) TryStartMateAt(id job.ID, at sim.Time) (bool, error) {
	waiting := p.waiting(id)
	ok, err := p.fullPeer.TryStartMateAt(id, at)
	if waiting && ok && err == nil {
		p.track.agree(id)
	}
	return ok, err
}

func (p servedPeer) StartMate(id job.ID) error {
	waiting := p.waiting(id)
	err := p.fullPeer.StartMate(id)
	if waiting && err == nil {
		p.track.agree(id)
	}
	return err
}

func (p servedPeer) StartMateAt(id job.ID, at sim.Time) error {
	waiting := p.waiting(id)
	err := p.fullPeer.StartMateAt(id, at)
	if waiting && err == nil {
		p.track.agree(id)
	}
	return err
}

// waitRunning returns once both daemons' run loops pace their clocks.
// Until then a daemon's clock stands still and the jobs it starts never
// complete, so no pair is submitted before.
func (p *daemonPair) waitRunning() {
	for _, d := range p.d {
		<-d.running
	}
}

// close stops the daemon's run loop and every server, link and file, and
// waits for the run loop to return.
func (d *daemon) close() {
	if d.stop != nil {
		d.stop()
		<-d.stopped
	}
	if d.admin != nil {
		d.admin.Close()
	}
	if d.peer != nil {
		d.peer.Close()
	}
	if d.link != nil {
		d.link.Close()
	}
	if d.store != nil {
		if err := d.store.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s journal close: %v\n", d.name, err)
		}
	}
}

// close shuts both daemons down and deletes their journals.
func (p *daemonPair) close() {
	for _, c := range p.clients {
		if c != nil {
			c.Close()
		}
	}
	for _, d := range p.d {
		if d != nil {
			d.close()
		}
	}
	os.RemoveAll(p.dir)
}

// pairResult is one co-submitted pair as the client saw it.
type pairResult struct {
	latency time.Duration // last Submit sent → both halves started
	cycle   time.Duration // first Expect sent → both halves started
	split   bool          // the halves recorded different start instants
	lost    bool          // not started on both within lostLimit
	admin   []float64     // seconds per Expect and Submit call
}

// pairInputs draws the pairs' node counts from the seed: each half asks for
// 1–8 of its daemon's 64 nodes.
type pairInputs struct {
	rng  *workload.RNG
	next job.ID
}

func newPairInputs(seed uint64) *pairInputs {
	return &pairInputs{rng: workload.NewRNG(seed), next: job.ID(1000 + seed%1000*1000)}
}

// runPair co-submits pair number i the way cosubmit -wait does: Expect on
// both daemons, then Submit to both back to back, the first side
// alternating with i, then wait until both halves started. With hold, the
// second Submit waits until the first half holds its nodes for its mate.
func (p *daemonPair) runPair(in *pairInputs, i int, hold bool) (pairResult, error) {
	id := in.next
	in.next++
	var w [2]live.WireJob
	for s := range w {
		w[s] = live.WireJob{
			ID:       id,
			Name:     fmt.Sprintf("pair-%d", i),
			Nodes:    1 + in.rng.Intn(8),
			Runtime:  0,
			Walltime: 60,
			Mates:    []job.MateRef{{Domain: daemonNames[1-s], Job: id}},
		}
	}
	state := p.track.expect(id)
	var r pairResult
	timedCall := func(call func() error) error {
		start := time.Now()
		err := call()
		r.admin = append(r.admin, time.Since(start).Seconds())
		return err
	}
	begin := time.Now()
	for s := range w {
		if err := timedCall(func() error { return p.clients[s].Expect(w[s]) }); err != nil {
			return r, fmt.Errorf("expect on %s: %w", daemonNames[s], err)
		}
	}
	first := i % 2
	if err := timedCall(func() error { return p.clients[first].Submit(w[first]) }); err != nil {
		return r, fmt.Errorf("submit on %s: %w", daemonNames[first], err)
	}
	if hold {
		// Submit the second half only once the first holds its nodes for
		// it, so the second half's daemon finds its mate holding.
		select {
		case <-state.held:
		case <-time.After(lostLimit):
			return p.giveUp(id, r, begin), nil
		}
	}
	last := time.Now()
	if err := timedCall(func() error { return p.clients[1-first].Submit(w[1-first]) }); err != nil {
		return r, fmt.Errorf("submit on %s: %w", daemonNames[1-first], err)
	}
	select {
	case <-state.done:
	case <-time.After(lostLimit):
		return p.giveUp(id, r, begin), nil
	}
	started := state.wall[0]
	if state.wall[1].After(started) {
		started = state.wall[1]
	}
	r.latency = started.Sub(last)
	r.cycle = started.Sub(begin)
	r.split = state.virtual[0] != state.virtual[1]
	return r, nil
}

// giveUp abandons pair id as a user would: it withdraws the halves that
// have not started, so an orphaned hold does not tie up nodes, and slow
// every later pair, until its release interval.
func (p *daemonPair) giveUp(id job.ID, r pairResult, begin time.Time) pairResult {
	r.lost = true
	r.latency = lostLimit
	r.cycle = time.Since(begin)
	for s, started := range p.track.forget(id) {
		if !started {
			// The half may have started since the wait ended, or was
			// never submitted; then there is nothing left to withdraw.
			_ = p.clients[s].Cancel(id)
		}
	}
	return r
}
