package lint_test

import (
	"testing"

	"dhsketch/internal/lint"
	"dhsketch/internal/lint/linttest"
)

const testdata = "testdata"

func TestDeterminism(t *testing.T) {
	linttest.Run(t, testdata, lint.DeterminismAnalyzer, "determinism/a")
}

// TestDeterminismObs runs the determinism analyzer over an obs-shaped
// fixture: trace sinks must tick-stamp from the caller's sim.Clock and
// seed their sampling streams explicitly.
func TestDeterminismObs(t *testing.T) {
	linttest.Run(t, testdata, lint.DeterminismAnalyzer, "dhsketch/internal/obs")
}

// TestDeterminismStab runs the determinism analyzer over a fixture
// shaped like the stabilizing ring's maintenance loop: protocol rounds
// must fire on virtual-clock period boundaries, so wall-clock timers —
// including merely holding a time.Timer or time.Ticker — are banned.
func TestDeterminismStab(t *testing.T) {
	linttest.Run(t, testdata, lint.DeterminismAnalyzer, "dhsketch/internal/stab")
}

// TestStoreFixture runs the determinism analyzer over a store-shaped
// fixture: GC deadlines must come from the deterministic clock, never
// the wall clock or the global random source.
func TestStoreFixture(t *testing.T) {
	linttest.Run(t, testdata, lint.DeterminismAnalyzer, "dhsketch/internal/store")
}

func TestConnDeadline(t *testing.T) {
	linttest.Run(t, testdata, lint.ConnDeadlineAnalyzer, "conndeadline/a")
}

func TestLockRPC(t *testing.T) {
	linttest.Run(t, testdata, lint.LockRPCAnalyzer, "lockrpc/a")
}

// TestLockRPCThroughInterface: the state-machine package calls the
// network only through an interface implemented in a package that
// imports it; the interface method must carry the implementation's
// netio fact back.
func TestLockRPCThroughInterface(t *testing.T) {
	linttest.Run(t, testdata, lint.LockRPCAnalyzer, "lockrpc/peers", "lockrpc/tcp")
}

func TestWireBounds(t *testing.T) {
	linttest.Run(t, testdata, lint.WireBoundsAnalyzer, "wirebounds/a")
}

// TestPlantedPositions pins that one deliberately planted violation per
// analyzer is reported at its exact file:line:column.
func TestPlantedPositions(t *testing.T) {
	linttest.MustFindAt(t, testdata, lint.DeterminismAnalyzer, "determinism/planted", "planted.go", 7, 9)
	linttest.MustFindAt(t, testdata, lint.DeterminismAnalyzer, "dhsketch/internal/obs", "obs.go", 41, 7)
	linttest.MustFindAt(t, testdata, lint.DeterminismAnalyzer, "dhsketch/internal/stab", "stab.go", 69, 13)
	linttest.MustFindAt(t, testdata, lint.DeterminismAnalyzer, "dhsketch/internal/store", "store.go", 50, 9)
	linttest.MustFindAt(t, testdata, lint.DeterminismAnalyzer, "dhsketch/internal/store", "store.go", 57, 5)
	linttest.MustFindAt(t, testdata, lint.ConnDeadlineAnalyzer, "conndeadline/planted", "planted.go", 16, 2)
	linttest.MustFindAt(t, testdata, lint.ConnDeadlineAnalyzer, "conndeadline/planted", "planted.go", 24, 2)
	linttest.MustFindAt(t, testdata, lint.LockRPCAnalyzer, "lockrpc/planted", "planted.go", 20, 2)
	linttest.MustFindAt(t, testdata, lint.WireBoundsAnalyzer, "wirebounds/planted", "planted.go", 9, 9)
}

// TestPlantedHaveWants keeps the planted fixtures honest as golden files
// too: the planted packages must pass the want-comment comparison.
func TestPlantedHaveWants(t *testing.T) {
	linttest.Run(t, testdata, lint.ConnDeadlineAnalyzer, "conndeadline/planted")
	linttest.Run(t, testdata, lint.LockRPCAnalyzer, "lockrpc/planted")
	linttest.Run(t, testdata, lint.WireBoundsAnalyzer, "wirebounds/planted")
}

// TestMatchScopes pins the driver-side package scoping.
func TestMatchScopes(t *testing.T) {
	cases := []struct {
		analyzer *lint.Analyzer
		path     string
		want     bool
	}{
		{lint.ConnDeadlineAnalyzer, "dhsketch/internal/netdht", true},
		{lint.ConnDeadlineAnalyzer, "dhsketch/internal/respond", true},
		{lint.ConnDeadlineAnalyzer, "dhsketch/internal/wire", false},
		{lint.LockRPCAnalyzer, "dhsketch/internal/netdht", true},
		{lint.LockRPCAnalyzer, "dhsketch/internal/chord", true},
		{lint.LockRPCAnalyzer, "dhsketch/internal/serve", true},
		{lint.LockRPCAnalyzer, "dhsketch/cmd/dhsnode", true},
		{lint.LockRPCAnalyzer, "dhsketch/cmd/dhsd", true},
		{lint.LockRPCAnalyzer, "dhsketch/internal/obs", false},
		{lint.WireBoundsAnalyzer, "dhsketch/internal/wire", true},
		{lint.WireBoundsAnalyzer, "dhsketch/internal/netdht", true},
		{lint.WireBoundsAnalyzer, "dhsketch/internal/respond", true},
		{lint.WireBoundsAnalyzer, "dhsketch/internal/core", false},
	}
	for _, c := range cases {
		if got := c.analyzer.Match(c.path); got != c.want {
			t.Errorf("%s.Match(%q) = %v, want %v", c.analyzer.Name, c.path, got, c.want)
		}
	}

	// The determinism analyzer's nil Match means the driver runs it on
	// every package — in particular the tracing layer, whose whole value
	// is byte-identical replay.
	if a := lint.DeterminismAnalyzer; a.Match != nil && !a.Match("dhsketch/internal/obs") {
		t.Error("determinism analyzer excludes dhsketch/internal/obs")
	}
	// The wall-clock domain — the network packages and their runtime
	// metrics layer — is architecturally excluded; everything else,
	// including the store whose runtime counters metrics hands out,
	// stays deterministic-checked.
	for path, want := range map[string]bool{
		"dhsketch/internal/netdht":  false,
		"dhsketch/internal/respond": false,
		"dhsketch/cmd/dhsnode":      false,
		"dhsketch/internal/metrics": false,
		"dhsketch/internal/serve":   false,
		"dhsketch/cmd/dhsd":         false,
		"dhsketch/cmd/dhsload":      false,
		"dhsketch/internal/store":   true,
		"dhsketch/internal/chord":   true,
		"dhsketch/internal/core":    true,
	} {
		if got := lint.DeterminismAnalyzer.Match(path); got != want {
			t.Errorf("determinism.Match(%q) = %v, want %v", path, got, want)
		}
	}
}
