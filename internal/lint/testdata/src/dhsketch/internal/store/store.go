// Package store mirrors the real per-node tuple store's shape for the
// determinism golden tests. Its garbage collection must be driven by the
// deterministic simulation clock — never the wall clock, never the
// process-global random source. The approved pattern is written out
// unflagged next to each planted shortcut.
package store

import (
	"math/rand/v2"
	"time"
)

// leafKey addresses one leaf of the index: all vectors of one
// (metric, bit) pair.
type leafKey struct {
	metric uint64
	bit    uint8
}

// leaf holds one (metric, bit) pair's vectors as a bitset plus their
// expiry ticks.
type leaf struct {
	bits []uint64
	exp  []int64
}

// Store is the two-level index: map keyed by (metric, bit), bitset leaf.
type Store struct {
	leaves map[leafKey]*leaf
	live   int
}

// sweepAt garbage-collects against a caller-supplied tick from the
// deterministic sim.Clock: the approved pattern, no findings.
func (s *Store) sweepAt(now int64) {
	for _, lf := range s.leaves {
		for v, exp := range lf.exp {
			if exp < now && lf.bits[v>>6]&(1<<uint(v&63)) != 0 {
				lf.bits[v>>6] &^= 1 << uint(v&63)
				s.live--
			}
		}
	}
}

// sweepWallClock is the classic soft-state shortcut: deriving the GC
// deadline from the wall clock, which makes which tuples survive depend
// on when the run happens.
func (s *Store) sweepWallClock() {
	now := time.Now().UnixNano() // want `time.Now reads the wall clock`
	s.sweepAt(now)
}

// sweepSampled jitters GC through the process-global random source,
// whose per-process seed would break byte-identical replay.
func (s *Store) sweepSampled(now int64) {
	if rand.IntN(2) == 0 { // want `rand.IntN uses the process-global random source`
		s.sweepAt(now)
	}
}
