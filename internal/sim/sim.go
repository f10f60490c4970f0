// Package sim provides the deterministic simulation kernel under the DHT
// overlay: a virtual clock for soft-state timeouts, seeded and derivable
// random number streams so every experiment is reproducible, and traffic
// meters that account routing hops, messages, and bytes — the quantities
// the paper's evaluation reports.
package sim

import (
	"fmt"
	"math/rand/v2"
	"sync/atomic"

	"dhsketch/internal/md4"
	"dhsketch/internal/obs"
)

// Clock is a virtual clock. The unit is abstract ("ticks"); the DHS layer
// uses it for time-to-live bookkeeping, so only ordering and differences
// matter.
type Clock struct {
	now int64
}

// Now returns the current virtual time.
func (c *Clock) Now() int64 { return c.now }

// Advance moves the clock forward by d ticks. Negative d panics: simulated
// time never flows backwards.
func (c *Clock) Advance(d int64) {
	if d < 0 {
		panic("sim: clock cannot move backwards")
	}
	c.now += d
}

// Traffic is a snapshot of a Meter: the cost of network operations as
// plain values, safe to copy, subtract and print.
type Traffic struct {
	Messages int64 // number of point-to-point messages delivered
	Hops     int64 // overlay hops traversed (≥ Messages for routed sends)
	Bytes    int64 // payload bytes transferred
	Dropped  int64 // messages that consumed hops but never completed (lost, timed out, or addressed to a down node)
}

// Meter accumulates the cost of network operations. Its fields are
// sync/atomic values, so any number of concurrent counting passes may
// meter against one Meter, and go vet's copylocks check rejects a copy
// of a live one; read it through Snapshot.
type Meter struct {
	messages, hops, bytes, dropped atomic.Int64
}

// Account records one logical transfer of size bytes over the given number
// of overlay hops. A direct neighbor message is hops = 1.
func (m *Meter) Account(hops int, bytes int) {
	m.messages.Add(1)
	m.hops.Add(int64(hops))
	m.bytes.Add(int64(bytes) * int64(hops))
}

// Drop records a failed message exchange: the request still traversed the
// given hops carrying bytes of payload (the network did the work) but
// nothing was delivered. Failed exchanges are metered separately from
// Messages so experiments can report wasted versus useful traffic.
func (m *Meter) Drop(hops int, bytes int) {
	m.dropped.Add(1)
	m.hops.Add(int64(hops))
	m.bytes.Add(int64(bytes) * int64(hops))
}

// Snapshot returns the meter's totals, each field read atomically.
func (m *Meter) Snapshot() Traffic {
	return Traffic{
		Messages: m.messages.Load(),
		Hops:     m.hops.Load(),
		Bytes:    m.bytes.Load(),
		Dropped:  m.dropped.Load(),
	}
}

// Sub returns the difference t - other; used to measure the cost of a
// single operation as a delta between snapshots.
func (t Traffic) Sub(other Traffic) Traffic {
	return Traffic{
		Messages: t.Messages - other.Messages,
		Hops:     t.Hops - other.Hops,
		Bytes:    t.Bytes - other.Bytes,
		Dropped:  t.Dropped - other.Dropped,
	}
}

// String renders the record for logs and experiment tables.
func (t Traffic) String() string {
	s := fmt.Sprintf("%d msgs / %d hops / %d bytes", t.Messages, t.Hops, t.Bytes)
	if t.Dropped > 0 {
		s += fmt.Sprintf(" / %d dropped", t.Dropped)
	}
	return s
}

// Env bundles the shared simulation state: one clock, one master seed, and
// the global traffic meter. All randomness in an experiment derives from
// the master seed, making runs bit-for-bit reproducible.
type Env struct {
	Clock   Clock
	Traffic Meter
	seed    uint64
	rng     *rand.Rand
	tracer  obs.Tracer
}

// NewEnv returns a fresh environment with the given master seed.
func NewEnv(seed uint64) *Env {
	return &Env{
		seed: seed,
		rng:  rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)),
	}
}

// Seed returns the master seed the environment was created with.
func (e *Env) Seed() uint64 { return e.seed }

// Tracer returns the observability sink attached to the environment, or
// nil when tracing is disabled. Every instrumented layer reads the sink
// through here, so one attachment point covers core, faultdht, and the
// per-node stores.
func (e *Env) Tracer() obs.Tracer { return e.tracer }

// SetTracer attaches (or, with nil, detaches) an observability sink.
// Attach before starting operations: the field is read without
// synchronization by concurrent counting passes, so mutating it mid-run
// is a race. Event timestamps are this environment's Clock ticks.
func (e *Env) SetTracer(t obs.Tracer) { e.tracer = t }

// RNG returns the environment's primary random stream.
func (e *Env) RNG() *rand.Rand { return e.rng }

// Derive returns an independent random stream named by purpose. Streams
// derived with the same (seed, purpose) are identical across runs, and
// streams with different purposes are statistically independent, so adding
// a new consumer of randomness does not perturb existing ones.
func (e *Env) Derive(purpose string) *rand.Rand {
	h := md4.Sum64([]byte(fmt.Sprintf("%d|%s", e.seed, purpose)))
	return rand.New(rand.NewPCG(e.seed, h))
}

// UniformIn returns an identifier drawn uniformly from [lo, lo+size) using
// the provided stream. size must be positive.
func UniformIn(rng *rand.Rand, lo, size uint64) uint64 {
	if size == 0 {
		panic("sim: empty interval")
	}
	return lo + rng.Uint64N(size)
}
