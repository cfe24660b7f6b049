package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// simPurePackage reports whether R2 applies to path. Command-line tools
// and examples measure real elapsed time, and internal/live is the
// real-time driver whose whole job is mapping virtual to wall-clock time;
// every other internal package is sim-pure.
func simPurePackage(path string) bool {
	if !strings.HasPrefix(path, "cosched/internal/") {
		return false
	}
	return !inRepoPackage(path, "live")
}

// rngConstructors are the math/rand{,/v2} package-level functions that
// build explicitly seeded generators — the only sanctioned way to get
// randomness inside the simulator.
var rngConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// wallClockFuncs are the time functions that read or wait on the wall
// clock. Pure constructors/formatters (time.Date, time.Unix, Duration
// arithmetic) stay legal.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

// isPackageLevel distinguishes package-level functions from methods with
// the same name (rand.Intn vs (*rand.Rand).Intn — only the former uses
// the shared global source).
func isPackageLevel(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// checkPurity implements R2: sim-pure packages may not read the wall
// clock or draw from the global (implicitly seeded) RNG. Methods on an
// explicitly constructed *rand.Rand are fine; the package-level forwards
// to the shared global source are not.
//
// The rule is interprocedural: beyond the direct std-lib calls, any call
// whose resolvable callee lives in a non-sim-pure module package (cmd/,
// internal/live) and whose summary transitively reaches the wall clock
// or global RNG is flagged with the proving call chain — a one-line
// wrapper around time.Now in a cmd/ package no longer launders impurity
// into sim code. Calls to other sim-pure packages are not re-flagged:
// their own direct violations (or allows) are reported where they live.
func checkPurity(p *Pass) {
	if !simPurePackage(p.Path) {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p.Info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if wallClockFuncs[fn.Name()] && isPackageLevel(fn) {
					p.reportf(call.Pos(), "R2",
						"wall-clock call time.%s in sim-pure package %s; simulation time is sim.Time, driven by the engine",
						fn.Name(), p.Path)
				}
			case "math/rand", "math/rand/v2":
				if isPackageLevel(fn) && !rngConstructors[fn.Name()] {
					p.reportf(call.Pos(), "R2",
						"global-RNG call %s.%s in sim-pure package %s; draw from an explicitly seeded rand.New(...) instead",
						fn.Pkg().Path(), fn.Name(), p.Path)
				}
			default:
				p.checkTransitivePurity(call, fn)
			}
			return true
		})
	}
}

// checkTransitivePurity flags calls from sim-pure code into impure
// module helpers, with the summary's via-chain as evidence.
func (p *Pass) checkTransitivePurity(call *ast.CallExpr, fn *types.Func) {
	path := fn.Pkg().Path()
	if simPurePackage(path) || !strings.HasPrefix(path, "cosched/") {
		return
	}
	sum := p.Sums.of(fn)
	if sum == nil {
		return
	}
	if sum.WallClock {
		p.reportf(call.Pos(), "R2",
			"call to %s transitively reaches the wall clock (via %s) in sim-pure package %s; simulation time is sim.Time, driven by the engine",
			displayName(funcKey(fn)), strings.Join(sum.WallVia, " → "), p.Path)
	} else if sum.GlobalRNG {
		p.reportf(call.Pos(), "R2",
			"call to %s transitively draws from the global RNG (via %s) in sim-pure package %s; draw from an explicitly seeded rand.New(...) instead",
			displayName(funcKey(fn)), strings.Join(sum.RNGVia, " → "), p.Path)
	}
}
