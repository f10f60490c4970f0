// Package core implements Distributed Hash Sketches (DHS) — the paper's
// contribution: a fully decentralized, duplicate-insensitive cardinality
// estimator layered over any DHT.
//
// A DHS spreads the bits of hash-sketch bitmap vectors over the overlay's
// identifier space: bit r of a bitmap lives on a node drawn uniformly from
// the interval I_r = [thr(r), thr(r-1)), whose size 2^(L-r-1) shrinks at
// exactly the rate the bit's access frequency does, yielding uniform
// access load (§3.1). Insertion stores a small soft-state tuple via one
// DHT lookup (§3.2); counting probes one random node per interval with a
// bounded successor/predecessor retry walk (§4, Algorithm 1) and feeds the
// reconstructed per-vector statistics through the PCSA (eq. 4) or
// super-LogLog (eq. 2) estimation formulas.
package core

import (
	"errors"

	"dhsketch/internal/dht"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
	"dhsketch/internal/store"
)

// Defaults mirror the paper's evaluation setup (§5.1).
const (
	// DefaultK is the DHS bitmap/key length in bits ("DHS keys are 24
	// bits long"). The vector index takes log₂ m of the k hash bits, so
	// the whole sketch, not each bitmap, tells apart about 2^k items
	// (DESIGN.md §7, finding 3).
	DefaultK = 24
	// DefaultM is the number of bitmap vectors ("unless stated
	// otherwise, DHS is using 512 bitmaps").
	DefaultM = 512
	// DefaultLim is the per-interval probe bound ("the value of the lim
	// parameter was set to its default of 5 hops maximum").
	DefaultLim = 5
	// DefaultInsertRetries is how many extra attempts an insertion makes
	// when a lookup or store exchange fails before giving up.
	DefaultInsertRetries = 3
)

// Wire-size model, following §5.1: the DHS tuple packs metric_id,
// vector_id, bit, and time_out into 64 bits.
const (
	// TupleBytes is the wire size of one DHS tuple (defined with the
	// per-node index in package store, re-exported here).
	TupleBytes = store.TupleBytes
	// MsgHeaderBytes is the fixed overhead of one DHS message.
	MsgHeaderBytes = 8
	// ProbeReqBytes is the size of a counting probe request (metric
	// identifier, interval index, flags).
	ProbeReqBytes = 16
)

// Config parameterizes a DHS instance.
type Config struct {
	// Overlay is the DHT the sketch is distributed over.
	Overlay dht.Overlay

	// Env supplies the virtual clock, randomness, and the traffic meter
	// that operations account against.
	Env *sim.Env

	// K is the DHS bitmap/key length in bits (k ≤ L). 0 means DefaultK.
	K uint

	// M is the number of bitmap vectors, a power of two. 0 means DefaultM.
	M int

	// Kind selects the estimator family. The paper implements
	// KindPCSA (DHS-PCSA) and KindSuperLogLog (DHS-sLL); KindLogLog and
	// KindHyperLogLog reuse the same distributed state and come for free.
	// The scan's per-vector statistics become an estimate through
	// Kind.Estimate, the formula the local sketches use, and
	// Kind.CheckVectors decides which m the kind accepts.
	Kind sketch.Kind

	// Lim bounds the probe retries per ID-space interval during counting.
	// 0 means DefaultLim. Under the failure model the budget bounds
	// work, not successes: a failed lookup/probe/successor step consumes
	// one unit of it.
	Lim int

	// InsertRetries bounds the extra attempts an insertion makes when
	// its lookup or store exchange fails: each retry re-draws a fresh
	// random target in the bit's interval (sidestepping the failed node)
	// after a bounded linear backoff on the virtual clock. 0 means
	// DefaultInsertRetries; negative disables retries (fail fast).
	InsertRetries int

	// TTL is the soft-state lifetime of stored tuples in clock ticks;
	// tuples older than TTL since their last refresh are ignored and
	// garbage-collected (§3.3). 0 disables expiry.
	//
	// On the wire the lifetime travels as a 16-bit tick count
	// (wire.Insert.TTL); encoders narrow this field through
	// wire.ClampTTL, which saturates at 65535 ticks instead of silently
	// wrapping — a TTL beyond the wire range is transmitted as the
	// longest expressible lifetime, never as a shorter one.
	TTL int64

	// Replication stores each tuple on this many successors of its home
	// node in addition to the home node itself (§3.5).
	Replication int

	// TrimmedScan enables an optimization beyond the paper: the
	// descending (LogLog-family) counting scan starts at the highest
	// usable bit position k − log₂(m) instead of k − 1. With m > 1
	// vectors the positions above k − log₂(m) can never be set — the
	// vector index consumes log₂(m) hash bits — yet Algorithm 1 as
	// written ("for all bit positions r = L−1, …, 0") probes them,
	// spending lim probes per empty interval; the paper's Table 2 node
	// counts (≈ 28 + 5·(log₂(m)−1) extra visits) indicate its
	// implementation does exactly that. Off by default for fidelity.
	TrimmedScan bool

	// EdgeAware enables an optimization beyond the paper: the counting
	// walk stops retrying as soon as no further node can own keys of the
	// probed interval (interval boundaries are globally known), instead
	// of always spending the full lim budget on successor hops. It
	// reduces probe cost in sparse intervals at the price of skipping
	// successor-held replicas; the ablation experiments quantify the
	// trade-off. Off by default — Algorithm 1 walks blindly.
	EdgeAware bool

	// ShiftBits is the fault-tolerance variant of §3.5: ρ is computed
	// with the first b low-order bits of each item's hash remainder
	// disregarded, which "assigns the ith DHT interval to the (i+b)th
	// bit" — the whole rank distribution shifts down by b, so the
	// estimate-critical bits land in 2^b-times-larger intervals holding
	// 2^b-times more placements each. Fault tolerance for free, paid
	// with a 2^b-times-smaller maximum countable cardinality (the
	// paper's "only sizes beyond some threshold are being measured").
	ShiftBits uint
}

// withDefaults returns the config with zero fields replaced by defaults.
func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = DefaultK
	}
	if c.M == 0 {
		c.M = DefaultM
	}
	if c.Lim == 0 {
		c.Lim = DefaultLim
	}
	if c.InsertRetries == 0 {
		c.InsertRetries = DefaultInsertRetries
	}
	return c
}

// CheckLimTTL refuses a probe budget below one and a negative tuple
// lifetime, for every transport's configuration: a scan with no attempts
// serves an empty estimate, and a negative TTL is no lifetime.
func CheckLimTTL(lim int, ttl int64) error {
	if lim < 1 {
		return errors.New("core: lim must be positive")
	}
	if ttl < 0 {
		return errors.New("core: negative TTL")
	}
	return nil
}

// validate checks the configuration and returns the sketch geometry it
// describes.
func (c Config) validate() (Geometry, error) {
	if c.Overlay == nil {
		return Geometry{}, errors.New("core: config needs an overlay")
	}
	if c.Env == nil {
		return Geometry{}, errors.New("core: config needs a sim environment")
	}
	if err := CheckLimTTL(c.Lim, c.TTL); err != nil {
		return Geometry{}, err
	}
	if c.Replication < 0 {
		return Geometry{}, errors.New("core: negative replication degree")
	}
	return NewGeometry(Geometry{
		K: c.K, M: c.M, Kind: c.Kind,
		ShiftBits: c.ShiftBits, TrimmedScan: c.TrimmedScan,
	})
}
