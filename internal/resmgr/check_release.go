//go:build !debug

package resmgr

import (
	"cosched/internal/job"
	"cosched/internal/sim"
)

// debugBuild reports that the debug-only checks are compiled in.
const debugBuild = false

// checkOrder is compiled out unless the debug build tag is set; see
// check_debug.go for the enforced contract.
func (m *Manager) checkOrder([]*job.Job, sim.Time) {}
