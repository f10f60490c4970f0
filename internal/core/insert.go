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
// node that holds the item: Geometry.Place of one item over the overlay.
// One DHT lookup routes the 8-byte tuple to a node drawn uniformly from
// the bit's ID-space interval; with replication R the tuple is then copied
// to R successors at one extra hop each. Under the failure model a failed
// lookup is retried up to InsertRetries times at fresh targets, after a
// linear backoff on the virtual clock, so transient down-windows can pass.
func (d *DHS) InsertFrom(src dht.Node, metric uint64, itemID uint64) (InsertCost, error) {
	return d.place(src, metric, []uint64{itemID}, "insert")
}

// BulkInsertFrom records many items under the metric with the paper's
// bulk optimization — Geometry.Place of the whole batch: each bit
// position's tuples travel in one message to one random node in that
// bit's interval, at most k lookups regardless of item count, retried like
// single insertions. A group whose retries are exhausted aborts the batch.
//
// Caveat (not in the paper): each bit's tuples land on one node per source
// and round, so with few bulk-inserting nodes the lim probes of an interval
// can miss it — sound when every node bulk-inserts its own items (DESIGN.md
// §7, finding 6; the E1 ablation quantifies it).
func (d *DHS) BulkInsertFrom(src dht.Node, metric uint64, itemIDs []uint64) (InsertCost, error) {
	return d.place(src, metric, itemIDs, "bulk insert")
}

// place runs the insertion rule from src over the handle's placer; op
// names the operation in the error.
func (d *DHS) place(src dht.Node, metric uint64, items []uint64, op string) (InsertCost, error) {
	retries := max(d.cfg.InsertRetries, 0) // negative: fail fast
	p := &d.placer
	p.src, p.cost = src, InsertCost{}
	err := d.geom.Place(p, d.rng, metric, items, retries)
	p.src = nil
	if err != nil {
		return p.cost, fmt.Errorf("core: %s lookup after %d attempts: %w", op, retries+1, err)
	}
	return p.cost, nil
}

// overlayPlacer is the in-process Placer: a routed lookup from src, the
// group stored on the node it returns and copied to R successors (§3.5),
// every message metered against the Traffic record and the insertion's
// cost and traced; its backoff advances the virtual clock. Insertion is
// single-threaded (see DHS), so a handle keeps one, reset per call.
type overlayPlacer struct {
	d    *DHS
	src  dht.Node
	cost InsertCost
}

func (p *overlayPlacer) Wait(attempt int) {
	p.d.env.Clock.Advance(int64(attempt))
	p.cost.Retries++
}

func (p *overlayPlacer) Store(metric uint64, bit uint, target uint64, vectors []int32) error {
	d, cost := p.d, &p.cost
	msgBytes := MsgHeaderBytes + TupleBytes*len(vectors)
	rt, err := d.overlay.RouteFrom(p.src, target)
	home, hops := rt.Node, rt.Hops
	// A failed request consumed its route too.
	cost.Hops += int64(hops)
	cost.Bytes += int64(hops) * int64(msgBytes)
	if err != nil {
		d.trace(obs.KindStoreFail, 0, metric, int(bit), int64(hops), err)
		if hops > 0 {
			d.env.Traffic.Drop(hops, msgBytes)
		}
		return err
	}
	cost.Lookups++
	d.env.Traffic.Account(hops, msgBytes)
	expiry := expiryFor(d.env.Clock.Now(), d.cfg.TTL)
	d.storeOn(home, metric, bit, vectors, expiry)
	d.trace(obs.KindStore, home.ID(), metric, int(bit), int64(len(vectors)), nil)

	// Replication is best-effort under failures: a failed successor
	// exchange ends the walk — the group is already durable at its home
	// node — and the shortfall is recorded.
	for i, cur := 0, home; i < d.cfg.Replication; i++ {
		next, err := d.overlay.Successor(cur)
		if err == nil && next == home {
			return nil // ring smaller than the replication degree
		}
		cost.Hops++
		cost.Bytes += int64(msgBytes)
		if err != nil {
			cost.ReplicasLost += d.cfg.Replication - i
			d.env.Traffic.Drop(1, msgBytes)
			d.trace(obs.KindStoreFail, 0, metric, int(bit), int64(d.cfg.Replication-i), err)
			return nil
		}
		d.storeOn(next, metric, bit, vectors, expiry)
		d.trace(obs.KindReplica, next.ID(), metric, int(bit), int64(i+1), nil)
		d.env.Traffic.Account(1, msgBytes)
		cur = next
	}
	return nil
}

// storeOn sets the group's tuples on n's store as one store operation.
func (d *DHS) storeOn(n dht.Node, metric uint64, bit uint, vectors []int32, expiry int64) {
	st := d.storeOf(n)
	for _, v := range vectors {
		st.Set(TupleKey{Metric: metric, Vector: v, Bit: uint8(bit)}, expiry)
	}
	n.Counters().AddStoreOps()
}

// Refresh re-records an item, resetting its tuple's time-to-live. It is
// exactly an insertion (§3.3: updates reset the time_out field).
func (d *DHS) Refresh(metric uint64, itemID uint64) (InsertCost, error) {
	return d.Insert(metric, itemID)
}
