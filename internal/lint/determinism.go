package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeterminismAnalyzer enforces the repository's reproducibility contract
// (DESIGN.md §9): every run is a pure function of its seed. It forbids
//
//   - wall-clock reads and timers from package time (Now, Since, Until,
//     Sleep, After, Tick, ...) — experiment output must not depend on
//     when it runs;
//   - the timer types time.Timer and time.Ticker anywhere, including
//     struct fields and variable declarations: holding one means some
//     code path schedules off the wall clock. Protocol maintenance
//     (stabilization rounds, fix-fingers, TTL expiry) must instead be
//     driven by ticks of the deterministic sim.Clock;
//   - the process-global top-level functions of math/rand/v2 (rand.IntN,
//     rand.Uint64, rand.Shuffle, ...), whose shared source is seeded
//     unpredictably at startup — all randomness must flow through a
//     *rand.Rand built from an explicit seed (rand.New(rand.NewPCG(...)));
//   - importing math/rand (v1) at all: its sources are seedable from
//     wall-clock time and its global state is unseeded, which is where
//     every historical "unseeded rand.New" comes from.
//
// Legitimate wall-clock sites (e.g. cmd/dhsbench's elapsed-time display)
// carry a //dhslint:allow determinism(reason) annotation.
//
// The real-network packages are excluded wholesale: internal/netdht,
// cmd/dhsnode, the HTTP responder both daemons serve on (internal/respond:
// socket deadlines), and the serving tier over them — internal/serve (TTL
// caches and queue deadlines are real time, DESIGN.md §16), cmd/dhsd,
// and cmd/dhsload (a wall-clock latency meter) — exist precisely to run
// against wall-clock timers, socket deadlines, and nondeterministic
// interleavings (DESIGN.md §14), and internal/metrics is their
// wall-clock observability layer (DESIGN.md §15) — its latency Timer
// reads the monotonic clock by design. The determinism boundary is
// architectural: the simulator-facing Cluster flavor still schedules
// off sim.Clock and simulation code keeps using internal/obs, so a
// per-line allowlist in these packages would be all noise and no
// signal.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock time and process-global or unseeded randomness",
	Match: func(pkgPath string) bool {
		return !pathHasSuffix(pkgPath, "internal/netdht") &&
			!pathHasSuffix(pkgPath, "internal/respond") &&
			!pathHasSuffix(pkgPath, "cmd/dhsnode") &&
			!pathHasSuffix(pkgPath, "internal/metrics") &&
			!pathHasSuffix(pkgPath, "internal/serve") &&
			!pathHasSuffix(pkgPath, "cmd/dhsd") &&
			!pathHasSuffix(pkgPath, "cmd/dhsload")
	},
	Run: runDeterminism,
}

// forbiddenTimeFuncs are the package time functions that observe or wait
// on the wall clock.
var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// forbiddenTimeTypes are the package time types whose mere presence —
// a field, a variable, a parameter — implies wall-clock-driven
// scheduling somewhere downstream.
var forbiddenTimeTypes = map[string]bool{
	"Timer": true, "Ticker": true,
}

// allowedRandV2Funcs are the package-level math/rand/v2 functions that do
// NOT touch the process-global source: explicit-seed constructors.
var allowedRandV2Funcs = map[string]bool{
	"New": true, "NewPCG": true, "NewChaCha8": true, "NewZipf": true,
}

func runDeterminism(pass *Pass) error {
	for _, file := range pass.Pkg.Syntax {
		for _, imp := range file.Imports {
			if strings.Trim(imp.Path.Value, `"`) == "math/rand" {
				pass.Reportf(imp.Pos(), "import of math/rand (v1): use a seeded math/rand/v2 stream (rand.New(rand.NewPCG(seed, salt)))")
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pn := pkgNameOf(pass.Pkg.Info, sel.X)
			if pn == nil {
				return true
			}
			switch pn.Imported().Path() {
			case "time":
				if forbiddenTimeFuncs[sel.Sel.Name] {
					pass.Reportf(sel.Pos(), "time.%s reads the wall clock; derive timing from the deterministic sim.Clock", sel.Sel.Name)
				}
				if forbiddenTimeTypes[sel.Sel.Name] {
					if _, isType := pass.Pkg.Info.Uses[sel.Sel].(*types.TypeName); isType {
						pass.Reportf(sel.Pos(), "time.%s schedules off the wall clock; drive protocol rounds from sim.Clock ticks instead", sel.Sel.Name)
					}
				}
			case "math/rand/v2":
				if obj := pass.Pkg.Info.Uses[sel.Sel]; obj != nil {
					if _, isFunc := obj.(*types.Func); isFunc && !allowedRandV2Funcs[sel.Sel.Name] {
						pass.Reportf(sel.Pos(), "rand.%s uses the process-global random source; use a stream seeded via rand.New(rand.NewPCG(...))", sel.Sel.Name)
					}
				}
			}
			return true
		})
	}
	return nil
}
