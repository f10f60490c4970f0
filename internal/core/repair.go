package core

import (
	"sync/atomic"

	"dhsketch/internal/dht"
	"dhsketch/internal/obs"
)

// RepairStats accounts the replica-repair work a DHS handle performed on
// behalf of a stabilizing overlay, as read by (*DHS).RepairStats.
type RepairStats struct {
	Calls   int64 // repair invocations (one per node whose list grew)
	Targets int64 // new successors that received a copy
	Tuples  int64 // tuples transferred in total
	Bytes   int64 // wire bytes of the transfers (§5.1 size model)
}

// repairMeter accumulates RepairStats with sync/atomic fields: repair
// runs inside protocol rounds that may overlap concurrent counting
// passes.
type repairMeter struct {
	calls, targets, tuples, bytes atomic.Int64
}

// RepairStats returns an atomically read snapshot of the handle's
// replica-repair accounting.
func (d *DHS) RepairStats() RepairStats {
	return RepairStats{
		Calls:   d.repair.calls.Load(),
		Targets: d.repair.targets.Load(),
		Tuples:  d.repair.tuples.Load(),
		Bytes:   d.repair.bytes.Load(),
	}
}

// RepairFunc returns the replica-repair callback to install on a
// stabilizing overlay (chord.StabilizingRing.SetRepair): when a node's
// successor list gains members after churn, the callback copies the
// node's live tuples to each new successor, restoring the §3.5
// replication degree that crashed replica holders eroded.
//
// The whole store is copied, not just tuples the node is the home of:
// a stored tuple does not record its home, and over-replicating is
// harmless — bit presence is duplicate-insensitive, and stray copies
// age out within one TTL. Expiries are preserved, so repair never
// extends a tuple's soft-state lifetime.
//
// The transfer is data-plane traffic (it moves application state, like
// insertion-time replication) and is metered against the environment's
// Traffic record as one bulk message per receiving node; the protocol
// round that triggered it meters its own exchanges separately.
//
// The callback is invoked under the overlay's protocol lock and
// therefore never routes — targets are handed to it directly.
func (d *DHS) RepairFunc() func(n dht.Node, added []dht.Node) {
	return func(n dht.Node, added []dht.Node) {
		d.repair.calls.Add(1)
		s := storeIfPresent(n)
		if s == nil {
			return
		}
		now := d.env.Clock.Now()
		entries := s.Entries(now)
		if len(entries) == 0 {
			return
		}
		msgBytes := MsgHeaderBytes + TupleBytes*len(entries)
		tr := Trace{Sink: d.env.Tracer(), Tick: now}
		for _, a := range added {
			if a == nil || !a.Alive() {
				continue
			}
			dst := d.storeOf(a)
			for _, e := range entries {
				dst.Set(e.Key, e.Expiry)
			}
			a.Counters().AddStoreOps()
			d.env.Traffic.Account(1, msgBytes)
			d.repair.targets.Add(1)
			d.repair.tuples.Add(int64(len(entries)))
			d.repair.bytes.Add(int64(msgBytes))
			tr.emit(obs.KindRepair, a.ID(), 0, -1, int64(len(entries)), nil)
		}
	}
}
