package core

import (
	"dhsketch/internal/dht"
	"dhsketch/internal/store"
)

// TupleKey identifies one DHS bit: which metric, which bitmap vector,
// and which bit position — see store.Key, of which this is an alias.
type TupleKey = store.Key

// Store is the per-node DHS state, an alias of store.Store: a two-level
// (metric, bit) → bitset index answering counting probes in O(m/64)
// words with heap-tracked TTL expiry. See package store for the layout
// and its invariants.
type Store = store.Store

// storeOf returns the DHS store attached to the node, creating one on
// first use. Creation mutates the node's app slot, so this accessor
// belongs to the insertion path; counting passes use storeIfPresent
// instead. A store it creates knows its owning node and the simulation
// environment, so TTL garbage collection emits KindExpire events when a
// tracer is attached. The tracer is read from the environment at GC
// time, not captured at creation, so stores created before SetTracer
// still report.
func (d *DHS) storeOf(n dht.Node) *Store {
	if s, ok := n.App().(*Store); ok {
		return s
	}
	s := store.NewTraced(n.ID(), d.env)
	n.SetApp(s)
	return s
}

// storeIfPresent returns the node's store or nil, never creating one — a
// node that was never inserted to has nothing to answer a probe with, and
// not touching the app slot keeps concurrent probes of the same virgin
// node race-free. A nil *Store answers probes like an empty one.
func storeIfPresent(n dht.Node) *Store {
	s, _ := n.App().(*Store)
	return s
}
