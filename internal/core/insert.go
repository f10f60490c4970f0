package core

import (
	"fmt"

	"dhsketch/internal/dht"
	"dhsketch/internal/obs"
)

// trace emits one event outside any counting pass (insertion and
// replication are not pass-scoped, so Pass stays 0), stamped with the
// environment clock. One nil check when tracing is disabled.
func (d *DHS) trace(kind obs.Kind, node, metric uint64, bit int, arg int64, err error) {
	t := d.env.Tracer()
	if t == nil {
		return
	}
	t.Event(obs.Event{
		Tick:   d.env.Clock.Now(),
		Kind:   kind,
		Node:   node,
		Metric: metric,
		Bit:    int16(bit),
		Arg:    arg,
		Err:    obs.Classify(err),
	})
}

// InsertCost itemizes what an insertion consumed.
//
// Metering rule, shared with CountCost: Lookups counts only lookups
// that successfully routed to a node; a failed attempt meters its
// partial route in Hops/Bytes as dropped traffic and shows up in
// Retries, never in Lookups.
type InsertCost struct {
	Lookups int
	Hops    int64
	Bytes   int64
	// Retries counts failed attempts that were retried with a fresh
	// random target (failure model only; always 0 on a clean network).
	Retries int
	// ReplicasLost counts successor replicas that could not be placed
	// because the replication walk hit a failed exchange.
	ReplicasLost int
}

func (c *InsertCost) add(other InsertCost) {
	c.Lookups += other.Lookups
	c.Hops += other.Hops
	c.Bytes += other.Bytes
	c.Retries += other.Retries
	c.ReplicasLost += other.ReplicasLost
}

// Insert records one item under the metric, originating at a random
// overlay node (§3.2). Re-inserting an item refreshes its bit's
// soft-state timestamp.
func (d *DHS) Insert(metric uint64, itemID uint64) (InsertCost, error) {
	src := d.overlay.RandomNode()
	if src == nil {
		return InsertCost{}, dht.ErrNoRoute
	}
	return d.InsertFrom(src, metric, itemID)
}

// InsertFrom records one item under the metric, originating at src — the
// node that holds the item. One DHT lookup routes the 8-byte tuple to a
// node drawn uniformly from the bit's ID-space interval; with replication
// R the tuple is then copied to R successors at one extra hop each.
//
// Under the failure model a failed lookup or store exchange is retried
// up to InsertRetries times, each retry re-drawing a fresh random target
// in the same interval (the uniform placement invariant is preserved and
// the new draw sidesteps the failed node) after a bounded linear backoff
// on the virtual clock, so transient down-windows can pass.
func (d *DHS) InsertFrom(src dht.Node, metric uint64, itemID uint64) (InsertCost, error) {
	vector, bit := d.geom.Split(itemID)
	if !d.geom.Stored(bit) {
		// ShiftBits variant: the b low-order positions are assumed set
		// and never stored; recording such an item is free.
		return InsertCost{}, nil
	}
	return d.storeBit(src, TupleKey{Metric: metric, Vector: vector, Bit: uint8(bit)})
}

// insertRetries returns the configured retry bound, with negative values
// meaning fail-fast.
func (d *DHS) insertRetries() int {
	if d.cfg.InsertRetries < 0 {
		return 0
	}
	return d.cfg.InsertRetries
}

// storeBit routes one tuple to a random node in its bit's interval and
// replicates it, retrying failed attempts at fresh random targets.
func (d *DHS) storeBit(src dht.Node, key TupleKey) (InsertCost, error) {
	var cost InsertCost
	retries := d.insertRetries()
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			// Bounded linear backoff before the retry: virtual time
			// passes, so a node's transient down-window can end before
			// the re-drawn target is contacted.
			d.env.Clock.Advance(int64(attempt))
			cost.Retries++
		}
		target := d.geom.Target(d.rng, uint(key.Bit))
		home, hops, err := d.overlay.LookupFrom(src, target)
		if err != nil {
			lastErr = err
			d.trace(obs.KindStoreFail, 0, key.Metric, int(key.Bit), int64(hops), err)
			if hops > 0 {
				// The request consumed the route before failing.
				cost.Hops += int64(hops)
				cost.Bytes += int64(hops) * (TupleBytes + MsgHeaderBytes)
				d.env.Traffic.Drop(hops, TupleBytes+MsgHeaderBytes)
			}
			continue
		}
		cost.Lookups++
		cost.Hops += int64(hops)
		cost.Bytes += int64(hops) * (TupleBytes + MsgHeaderBytes)
		d.env.Traffic.Account(hops, TupleBytes+MsgHeaderBytes)

		expiry := expiryFor(d.env.Clock.Now(), d.cfg.TTL)
		d.storeOf(home).Set(key, expiry)
		home.Counters().AddStoreOps()
		d.trace(obs.KindStore, home.ID(), key.Metric, int(key.Bit), 1, nil)

		d.replicate(home, key, expiry, &cost)
		return cost, nil
	}
	return cost, fmt.Errorf("core: insert lookup after %d attempts: %w", retries+1, lastErr)
}

// replicate copies the tuple to the configured number of successors
// (§3.5), one extra hop per replica. Replication is best-effort under
// failures: a failed successor exchange ends the walk — the tuple is
// already durable at its home node — and the shortfall is recorded.
func (d *DHS) replicate(home dht.Node, key TupleKey, expiry int64, cost *InsertCost) {
	cur := home
	for i := 0; i < d.cfg.Replication; i++ {
		next, err := d.overlay.Successor(cur)
		if err != nil {
			cost.ReplicasLost += d.cfg.Replication - i
			cost.Hops++
			cost.Bytes += TupleBytes + MsgHeaderBytes
			d.env.Traffic.Drop(1, TupleBytes+MsgHeaderBytes)
			d.trace(obs.KindStoreFail, 0, key.Metric, int(key.Bit), int64(d.cfg.Replication-i), err)
			return
		}
		if next == home {
			return // ring smaller than the replication degree
		}
		d.storeOf(next).Set(key, expiry)
		next.Counters().AddStoreOps()
		d.trace(obs.KindReplica, next.ID(), key.Metric, int(key.Bit), int64(i+1), nil)
		cost.Hops++
		cost.Bytes += TupleBytes + MsgHeaderBytes
		d.env.Traffic.Account(1, TupleBytes+MsgHeaderBytes)
		cur = next
	}
}

// BulkInsertFrom records many items under the metric with the paper's
// bulk optimization: the items' (vector, bit) pairs are grouped by bit
// position, and each group travels in one message to one random node in
// that bit's interval — at most k lookups regardless of item count.
// Failed group sends are retried at fresh random targets like single
// insertions; a group whose retries are exhausted aborts the batch with
// an error (the caller re-issues the batch — unlike counting, insertion
// has nothing partial worth returning).
//
// Caveat (not discussed in the paper): bulk insertion concentrates each
// bit's tuples on a single node per source per update round. The counting
// walk probes only lim nodes per interval, so if very few nodes bulk-
// insert, probes can miss the one node holding a bit and the estimate
// degrades. The optimization is sound in its intended regime — every
// overlay node bulk-inserts its own items, yielding ~N independent
// placements per interval. The E1 ablation quantifies the effect.
func (d *DHS) BulkInsertFrom(src dht.Node, metric uint64, itemIDs []uint64) (InsertCost, error) {
	if len(itemIDs) == 0 {
		return InsertCost{}, nil
	}
	// Group distinct (vector, bit) pairs by bit.
	byBit := make(map[uint8]map[int32]struct{})
	for _, id := range itemIDs {
		vector, bit := d.geom.Split(id)
		if !d.geom.Stored(bit) {
			continue
		}
		b := uint8(bit)
		if byBit[b] == nil {
			byBit[b] = make(map[int32]struct{})
		}
		byBit[b][vector] = struct{}{}
	}

	var cost InsertCost
	retries := d.insertRetries()
	// Iterate bit positions in fixed order: map iteration order would
	// perturb the deterministic target-selection RNG across runs.
	for b := uint(0); b <= d.geom.MaxBit(); b++ {
		bit := uint8(b)
		vectors, ok := byBit[bit]
		if !ok {
			continue
		}
		msgBytes := MsgHeaderBytes + TupleBytes*len(vectors)

		var home dht.Node
		var lastErr error
		for attempt := 0; attempt <= retries; attempt++ {
			if attempt > 0 {
				d.env.Clock.Advance(int64(attempt))
				cost.Retries++
			}
			target := d.geom.Target(d.rng, uint(bit))
			n, hops, err := d.overlay.LookupFrom(src, target)
			if err != nil {
				lastErr = err
				d.trace(obs.KindStoreFail, 0, metric, int(bit), int64(hops), err)
				if hops > 0 {
					cost.Hops += int64(hops)
					cost.Bytes += int64(hops) * int64(msgBytes)
					d.env.Traffic.Drop(hops, msgBytes)
				}
				continue
			}
			home = n
			cost.Lookups++
			cost.Hops += int64(hops)
			cost.Bytes += int64(hops) * int64(msgBytes)
			d.env.Traffic.Account(hops, msgBytes)
			break
		}
		if home == nil {
			return cost, fmt.Errorf("core: bulk insert lookup after %d attempts: %w", retries+1, lastErr)
		}

		expiry := expiryFor(d.env.Clock.Now(), d.cfg.TTL)
		st := d.storeOf(home)
		home.Counters().AddStoreOps()
		d.trace(obs.KindStore, home.ID(), metric, int(bit), int64(len(vectors)), nil)
		for v := range vectors {
			st.Set(TupleKey{Metric: metric, Vector: v, Bit: bit}, expiry)
		}

		cur := home
		for i := 0; i < d.cfg.Replication; i++ {
			next, err := d.overlay.Successor(cur)
			if err != nil {
				cost.ReplicasLost += d.cfg.Replication - i
				cost.Hops++
				cost.Bytes += int64(msgBytes)
				d.env.Traffic.Drop(1, msgBytes)
				d.trace(obs.KindStoreFail, 0, metric, int(bit), int64(d.cfg.Replication-i), err)
				break
			}
			if next == home {
				break
			}
			rst := d.storeOf(next)
			next.Counters().AddStoreOps()
			d.trace(obs.KindReplica, next.ID(), metric, int(bit), int64(i+1), nil)
			for v := range vectors {
				rst.Set(TupleKey{Metric: metric, Vector: v, Bit: bit}, expiry)
			}
			cost.Hops++
			cost.Bytes += int64(msgBytes)
			d.env.Traffic.Account(1, msgBytes)
			cur = next
		}
	}
	return cost, nil
}

// Refresh re-records an item, resetting its tuple's time-to-live. It is
// exactly an insertion (§3.3: updates reset the time_out field).
func (d *DHS) Refresh(metric uint64, itemID uint64) (InsertCost, error) {
	return d.Insert(metric, itemID)
}
