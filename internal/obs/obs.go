// Package obs is the deterministic tracing and metrics layer of the
// repository: structured events for every step of the DHS protocol —
// counting-pass lifecycle, routed lookups, probes, successor/predecessor
// walk steps, stores and refreshes, TTL expiries, and injected faults —
// emitted into pluggable sinks.
//
// Contracts (DESIGN.md §11):
//
//   - Determinism. Every event is timestamped with a sim.Clock tick passed
//     in by the emitting layer; this package never reads the wall clock or
//     any process-global randomness (the dhslint determinism analyzer runs
//     over it, with golden coverage in internal/lint). A single-threaded
//     run therefore produces a byte-identical event stream for a given
//     seed.
//
//   - Cost. Tracing is disabled by default (nil Tracer) and every
//     instrumented hot path pays exactly one nil check per potential
//     event; no Event value is constructed when tracing is off.
//
//   - Concurrency. Sinks are safe for concurrent use: concurrent counting
//     passes may share one sink. Events from different passes interleave
//     in scheduling order; each event carries its pass number, so a single
//     walk is reconstructible from a shared stream.
//
// Three sinks ship with the package: Ring (bounded in-memory buffer for
// tests and post-mortem walk inspection), JSONL (streaming writer for
// offline analysis), and Aggregator (per-node load histograms, per-bit
// probe heatmaps, and hop distributions with percentile and Gini
// summaries).
package obs

import "dhsketch/internal/dht"

// Kind classifies a trace event.
type Kind uint8

const (
	// KindCountStart opens one counting pass: Node is the querying node,
	// Arg the number of metrics counted in the pass.
	KindCountStart Kind = iota + 1
	// KindCountDone closes one metric of a counting pass: Metric is the
	// metric, Arg the number of its vectors left unresolved.
	KindCountDone
	// KindLookup is a routed DHT lookup issued by the counting walk to
	// (re-)enter a bit interval: Bit is the interval, Arg the overlay hops
	// the route consumed, Node the owner reached (0 when Err is set).
	KindLookup
	// KindProbe is a successfully answered counting probe: Node answered
	// for interval Bit at a cost of Arg hops.
	KindProbe
	// KindWalkStep is a successor (+1) or predecessor (−1) retry step of
	// the counting walk, direction in Arg; Node is the node reached
	// (0 when Err is set).
	KindWalkStep
	// KindStore is a handled store/refresh: Node accepted the tuple of
	// Metric at position Bit. Bulk insertions set Arg to the number of
	// vectors carried in the group message (single insertions leave it 0).
	KindStore
	// KindReplica is a replica placement on a successor: Arg is the
	// 1-based replica ordinal.
	KindReplica
	// KindStoreFail is a failed insertion attempt (lookup, store, or
	// replication exchange): Arg is the hops the request consumed before
	// failing, Err the failure class.
	KindStoreFail
	// KindExpire reports soft-state TTL expiry: Node garbage-collected
	// Arg expired tuples during one store access; when a single known
	// tuple expired, Metric and Bit identify it.
	KindExpire
	// KindFault is an injected fault delivered by the failure model to an
	// exchange with Node; Err is the fault class.
	KindFault
	// KindStabilize is one stabilization protocol sweep over the ring:
	// Arg is the number of pointer repairs (successor-list or
	// predecessor changes) the sweep performed.
	KindStabilize
	// KindRepair is a replica-repair transfer to a node that newly
	// entered a successor list: Node is the receiving node, Arg the
	// number of tuples copied.
	KindRepair
	// KindCrash is a crash-stop fault: Node died permanently and left
	// the ring.
	KindCrash
)

// kindNames are the stable wire names of the event kinds (JSONL `kind`
// field); they are part of the trace format.
var kindNames = [...]string{
	KindCountStart: "count-start",
	KindCountDone:  "count-done",
	KindLookup:     "lookup",
	KindProbe:      "probe",
	KindWalkStep:   "walk-step",
	KindStore:      "store",
	KindReplica:    "replica",
	KindStoreFail:  "store-fail",
	KindExpire:     "expire",
	KindFault:      "fault",
	KindStabilize:  "stabilize",
	KindRepair:     "repair",
	KindCrash:      "crash",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one structured trace event. Field meaning varies by Kind (see
// the Kind constants); unused fields are zero, except Bit, whose
// not-applicable value is −1.
type Event struct {
	// Tick is the virtual time of the event in sim.Clock ticks — never
	// wall clock.
	Tick int64
	// Kind classifies the event.
	Kind Kind
	// Pass numbers the counting pass the event belongs to (the DHS
	// handle's pass counter); 0 for non-counting events.
	Pass uint64
	// Node is the overlay node the event concerns (probed node, store
	// target, faulted peer); 0 when no node was reached.
	Node uint64
	// Metric is the metric involved, when the event is metric-specific.
	Metric uint64
	// Bit is the bit position / interval index, or −1 when not
	// applicable.
	Bit int16
	// Arg is the kind-specific payload: hops for lookups and probes,
	// walk direction (±1), replica ordinal, unresolved-vector or
	// expired-tuple counts.
	Arg int64
	// Err classifies the failure (dht.ClassOf), dht.ClassNone on success.
	Err dht.Class
}

// Tracer is a sink for trace events. A nil Tracer means tracing is
// disabled; emitting layers guard each event with a single nil check and
// construct no Event value when disabled.
//
// Implementations must be safe for concurrent use — concurrent counting
// passes share one sink — and must not call back into the simulation.
type Tracer interface {
	Event(Event)
}

// multi fans events out to several sinks in order.
type multi []Tracer

func (m multi) Event(e Event) {
	for _, t := range m {
		t.Event(e)
	}
}

// Multi combines sinks into one Tracer, skipping nils. It returns nil
// when no sink remains (tracing stays disabled) and the sink itself when
// exactly one remains, so the fan-out costs nothing in the common cases.
func Multi(sinks ...Tracer) Tracer {
	var live []Tracer
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multi(live)
}
