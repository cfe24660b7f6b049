// Distributed-sweep acceptance tests: real worker processes (re-execed
// test binary), real TCP, and for the failure test a real SIGKILL
// mid-sweep. The invariant under test is the distributed sweep's
// determinism contract — neither fanning groups out to worker processes
// nor a worker dying with groups in hand may change a byte of the merged
// tables.
package main

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"cosched/internal/distsweep"
	"cosched/internal/experiments"
)

const (
	helperEnv      = "EXPERIMENTS_HELPER"
	helperAddrEnv  = "EXPERIMENTS_HELPER_ADDR"
	helperStallEnv = "EXPERIMENTS_HELPER_STALL_MS"
	helperRepsEnv  = "EXPERIMENTS_HELPER_REPS"
)

// TestMain doubles as the entry point of every child process the tests
// spawn from this binary:
//   - EXPERIMENTS_HELPER=worker dials the coordinator and serves sweep
//     groups, optionally stalling before each group so a SIGKILL
//     deterministically lands while it holds an assignment;
//   - EXPERIMENTS_HELPER=streamleg runs one streaming-RSS leg and prints
//     its JSON report (see stream_test.go);
//   - "-distworker -distconnect ADDR" is the argv procDistributor gives
//     the workers it spawns from os.Executable(), which under test is
//     this binary; it serves one sweep the way main does.
func TestMain(m *testing.M) {
	var err error
	switch {
	case os.Getenv(helperEnv) == "worker":
		err = runHelperWorker(os.Getenv(helperAddrEnv), os.Getenv(helperStallEnv))
	case os.Getenv(helperEnv) == "streamleg":
		var reps int
		if reps, err = strconv.Atoi(os.Getenv(helperRepsEnv)); err == nil {
			err = runStreamRSSChild(reps)
		}
	case len(os.Args) == 4 && os.Args[1] == "-distworker" && os.Args[2] == "-distconnect":
		err = runDistWorker(os.Args[3])
	default:
		os.Exit(m.Run())
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments helper: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// renderLoadTables renders every Figures 3–6 table plus the paired
// fractions into one string for byte-level comparison.
func renderLoadTables(s *experiments.LoadSweep) string {
	var b []byte
	for _, util := range s.Utils {
		b = append(b, fmt.Sprintf("paired %.2f: %.6f\n", util, s.PairedFraction[util])...)
	}
	f3a, f3b := s.Fig3Table()
	f4a, f4b := s.Fig4Table()
	f5a, f5b := s.Fig5Table()
	f6a, f6b := s.Fig6Table()
	for _, t := range []interface{ Render() string }{f3a, f3b, f4a, f4b, f5a, f5b, f6a, f6b} {
		b = append(b, t.Render()...)
		b = append(b, '\n')
	}
	return string(b)
}

func runHelperWorker(addr, stallMS string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	var stall time.Duration
	if stallMS != "" {
		ms := 0
		fmt.Sscanf(stallMS, "%d", &ms)
		stall = time.Duration(ms) * time.Millisecond
	}
	opt := distsweep.WorkerOptions{Heartbeat: 25 * time.Millisecond}
	if stall > 0 {
		opt.Run = func(kind experiments.SweepKind, cfg experiments.Config, g int) ([]experiments.CellRow, error) {
			// Wall-clock stall in a real helper process, outside any
			// simulation: it widens the window in which the test's SIGKILL
			// lands while this worker holds an undelivered assignment.
			time.Sleep(stall)
			return experiments.RunSweepGroup(kind, cfg, g)
		}
	}
	err = distsweep.Serve(conn.(distsweep.Conn), opt)
	if err != nil && isClosedConn(err) {
		return nil
	}
	return err
}

// spawnHelperWorker re-execs the test binary as a sweep worker dialing
// addr and returns the process plus its accepted connection.
func spawnHelperWorker(t *testing.T, ln net.Listener, stall time.Duration) (*exec.Cmd, distsweep.Conn) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		helperEnv+"=worker",
		helperAddrEnv+"="+ln.Addr().String(),
		helperStallEnv+"="+fmt.Sprintf("%d", stall/time.Millisecond))
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawn worker: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	t.Cleanup(func() {
		select {
		case <-done:
		default:
			cmd.Process.Kill()
			<-done
		}
	})
	conn, err := ln.Accept()
	if err != nil {
		t.Fatalf("accept worker: %v", err)
	}
	return cmd, conn.(distsweep.Conn)
}

// killConnDistributor runs a sweep over pre-established worker
// connections and SIGKILLs the victim process shortly after dispatch
// begins.
type killConnDistributor struct {
	t      *testing.T
	conns  []distsweep.Conn
	victim *os.Process
	after  time.Duration
	logs   []string
}

func (d *killConnDistributor) RunGroups(kind experiments.SweepKind, cfg experiments.Config, numGroups int) ([][]experiments.CellRow, error) {
	timer := time.AfterFunc(d.after, func() {
		d.victim.Signal(syscall.SIGKILL)
	})
	defer timer.Stop()
	co := &distsweep.Coordinator{
		Conns:     d.conns,
		Heartbeat: 25 * time.Millisecond,
		Batch:     1,
		Logf: func(f string, a ...any) {
			d.logs = append(d.logs, fmt.Sprintf(f, a...))
			d.t.Logf(f, a...)
		},
	}
	return co.RunGroups(kind, cfg, numGroups)
}

// TestWorkerSIGKILLMidSweep: two real worker processes over TCP, one
// SIGKILLed while it stalls on its first assignment; the survivor picks
// up the orphaned groups and the merged tables are byte-identical to the
// serial in-process run.
func TestWorkerSIGKILLMidSweep(t *testing.T) {
	cfg := experiments.Config{Seed: 9, JobFactor: 0.02, Reps: 2, Parallelism: 1}

	serialCfg := cfg
	serial, err := experiments.RunLoadSweep(serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	want := renderLoadTables(serial)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// The victim stalls 30s per group — far past the sweep's runtime — so
	// the SIGKILL always finds it holding an undelivered assignment; its
	// heartbeats keep the coordinator patient until the kill.
	victim, victimConn := spawnHelperWorker(t, ln, 30*time.Second)
	_, healthyConn := spawnHelperWorker(t, ln, 0)

	dist := &killConnDistributor{
		t:      t,
		conns:  []distsweep.Conn{victimConn, healthyConn},
		victim: victim.Process,
		after:  200 * time.Millisecond,
	}
	distCfg := cfg
	distCfg.Dist = dist
	sweep, err := experiments.RunLoadSweep(distCfg)
	if err != nil {
		t.Fatalf("sweep with killed worker: %v", err)
	}
	if got := renderLoadTables(sweep); got != want {
		t.Fatalf("tables differ after worker SIGKILL:\n got:\n%s\nwant:\n%s", got, want)
	}
	death := false
	for _, l := range dist.logs {
		if strings.Contains(l, "lost") {
			death = true
		}
	}
	if !death {
		t.Fatalf("coordinator never observed the worker death; logs: %q", dist.logs)
	}
}

// TestDistWorkersMatchInProcess runs a small load sweep in process and
// again through procDistributor, which spawns two real -distworker
// processes over loopback TCP; the merged tables must be byte-identical.
func TestDistWorkersMatchInProcess(t *testing.T) {
	cfg := experiments.DefaultConfig(1, 0.05)
	cfg.Reps = 1
	cfg.Parallelism = 1
	serial, err := experiments.RunLoadSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	distCfg := cfg
	distCfg.Dist = &procDistributor{Workers: 2}
	dist, err := experiments.RunLoadSweep(distCfg)
	if err != nil {
		t.Fatalf("sweep across worker processes: %v", err)
	}
	if got, want := renderLoadTables(dist), renderLoadTables(serial); got != want {
		t.Fatalf("tables from 2 worker processes differ from in-process tables:\n got:\n%s\nwant:\n%s", got, want)
	}
}
