package main

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"strings"
	"time"

	"cosched/internal/distsweep"
	"cosched/internal/experiments"
)

// distHeartbeat is the production heartbeat cadence for worker processes;
// the coordinator declares a worker dead after a few missed beats and
// re-dispatches its groups.
const distHeartbeat = 500 * time.Millisecond

// procDistributor implements experiments.Distributor by running sweep
// groups on worker processes. Each RunGroups call builds a fresh worker
// pool — spawned locally (Workers > 0) and/or dialed (Connect addrs) —
// so the one-sweep-per-connection protocol stays simple and a multi-sweep
// invocation (-exp all) just fields a new pool per sweep.
type procDistributor struct {
	// Workers is how many local worker processes to spawn (re-executing
	// this binary with -distworker).
	Workers int
	// Connect lists remote worker addresses running -distserve.
	Connect []string
}

// RunGroups implements experiments.Distributor.
func (d *procDistributor) RunGroups(kind experiments.SweepKind, cfg experiments.Config, numGroups int) ([][]experiments.CellRow, error) {
	conns, cleanup, err := d.pool()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	fmt.Fprintf(os.Stderr, "distsweep: %s sweep, %d groups across %d worker(s) (%d spawned, %d dialed)\n",
		kind, numGroups, len(conns), d.Workers, len(d.Connect))
	co := &distsweep.Coordinator{
		Conns:     conns,
		Heartbeat: distHeartbeat,
		Logf:      func(f string, a ...any) { fmt.Fprintf(os.Stderr, f+"\n", a...) },
	}
	return co.RunGroups(kind, cfg, numGroups)
}

// pool assembles the worker connections: a loopback listener for spawned
// children plus direct dials to -distconnect addresses. cleanup closes
// whatever the coordinator has not already closed and reaps children.
func (d *procDistributor) pool() (conns []distsweep.Conn, cleanup func(), err error) {
	var procs []*exec.Cmd
	cleanup = func() {
		// Conns are closed by the coordinator; children exit on close.
		for _, p := range procs {
			_ = p.Wait()
		}
	}
	if d.Workers > 0 {
		self, err := os.Executable()
		if err != nil {
			return nil, cleanup, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, cleanup, err
		}
		defer ln.Close()
		for i := 0; i < d.Workers; i++ {
			cmd := exec.Command(self, "-distworker", "-distconnect", ln.Addr().String())
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				cleanup()
				return nil, cleanup, fmt.Errorf("spawn worker: %w", err)
			}
			procs = append(procs, cmd)
			conn, err := ln.Accept()
			if err != nil {
				cleanup()
				return nil, cleanup, err
			}
			conns = append(conns, conn.(distsweep.Conn))
		}
	}
	for _, addr := range d.Connect {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			cleanup()
			return nil, cleanup, fmt.Errorf("dial worker %s: %w", addr, err)
		}
		conns = append(conns, conn.(distsweep.Conn))
	}
	if len(conns) == 0 {
		return nil, cleanup, fmt.Errorf("distsweep: no workers (set -distworkers and/or -distconnect)")
	}
	return conns, cleanup, nil
}

// runDistWorker is the child side of -distworkers/-distserve: serve one
// sweep per connection until the coordinator closes it.
func runDistWorker(addr string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	err = distsweep.Serve(conn.(distsweep.Conn), distsweep.WorkerOptions{Heartbeat: distHeartbeat})
	if err != nil && isClosedConn(err) {
		return nil // clean coordinator shutdown
	}
	return err
}

// runDistServe listens for coordinators and serves one sweep per
// connection, sequentially, forever — the standing remote worker behind
// -distconnect.
func runDistServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "distsweep: worker listening on %s\n", ln.Addr())
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		err = distsweep.Serve(conn.(distsweep.Conn), distsweep.WorkerOptions{Heartbeat: distHeartbeat})
		if err != nil && !isClosedConn(err) {
			fmt.Fprintf(os.Stderr, "distsweep: sweep ended: %v\n", err)
		}
		conn.Close()
	}
}

// isClosedConn reports whether err is the ordinary end of a connection —
// the coordinator finished and hung up — rather than a protocol failure.
func isClosedConn(err error) bool {
	if err == nil {
		return false
	}
	s := err.Error()
	return strings.Contains(s, "EOF") ||
		strings.Contains(s, "use of closed network connection") ||
		strings.Contains(s, "connection reset by peer")
}

// splitAddrs parses a comma-separated address list.
func splitAddrs(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}
