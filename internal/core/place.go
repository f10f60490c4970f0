package core

import (
	"math/rand/v2"
	"slices"
	"sync"
)

// Placer is the transport half of §3.2's insertion rule, as Prober is of
// Algorithm 1: how one attempt stores a group of tuples on the owner of an
// identifier. The rest of an insertion is Geometry.Place, shared by the
// simulated overlays and the TCP ring.
type Placer interface {
	// Store makes one attempt to store metric's vectors — distinct,
	// ascending, valid during the call and not to be written — at bit on
	// the owner of target.
	Store(metric uint64, bit uint, target uint64, vectors []int32) error
	// Wait is the linear backoff before a group's attempt-th retry.
	Wait(attempt int)
}

// groupBufs recycles Place's grouping buffers: an insertion allocates
// nothing at steady state, whichever transport calls it.
var groupBufs = sync.Pool{New: func() any { return new([]int32) }}

// Place runs §3.2's insertion rule for one metric's items. The distinct
// vectors of each stored bit position (ShiftBits drops the others) form a
// group, visited in ascending bit order: one item is a group of one, many
// are the paper's bulk insertion, one lookup per position. A group gets up
// to retries+1 attempts, each at a fresh target drawn from its interval —
// placement stays uniform, and the draw sidesteps a failed node — and each
// after the first behind Wait(attempt). A group whose attempts all fail
// ends the batch with its last failure: unlike counting, insertion has
// nothing partial worth returning. One item, the common insertion, is its
// own group and needs neither the buffer nor the sort.
func (g *Geometry) Place(p Placer, rng *rand.Rand, metric uint64, items []uint64, retries int) error {
	if len(items) == 1 {
		vector, bit := g.Split(items[0])
		if !g.Stored(bit) {
			return nil
		}
		return g.placeGroup(p, rng, metric, bit, g.vectorIDs[vector:vector+1], retries)
	}
	buf := groupBufs.Get().(*[]int32)
	defer groupBufs.Put(buf)
	// A key is bit<<16 | vector (NewGeometry bounds m by 16 bits), so one
	// sort groups by bit and orders each group's vectors.
	keys := (*buf)[:0]
	for _, id := range items {
		if vector, bit := g.Split(id); g.Stored(bit) {
			keys = append(keys, int32(bit)<<16|vector)
		}
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	*buf = keys

	for len(keys) > 0 {
		bit, n := uint(keys[0]>>16), 1
		for n < len(keys) && uint(keys[n]>>16) == bit {
			n++
		}
		group := keys[:n]
		keys = keys[n:]
		for i := range group {
			group[i] &= 1<<16 - 1
		}
		if err := g.placeGroup(p, rng, metric, bit, group, retries); err != nil {
			return err
		}
	}
	return nil
}

// placeGroup gives one group its up to retries+1 attempts, each at a fresh
// target, and returns the last failure if every attempt failed.
func (g *Geometry) placeGroup(p Placer, rng *rand.Rand, metric uint64, bit uint, group []int32, retries int) error {
	err := p.Store(metric, bit, g.Target(rng, bit), group)
	for attempt := 1; err != nil && attempt <= retries; attempt++ {
		p.Wait(attempt)
		err = p.Store(metric, bit, g.Target(rng, bit), group)
	}
	return err
}
