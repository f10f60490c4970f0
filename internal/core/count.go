package core

import (
	"math/rand/v2"

	"dhsketch/internal/dht"
	"dhsketch/internal/obs"
	"dhsketch/internal/sim"
)

// passTracer carries one counting pass's tracing context through the scan
// helpers. Its zero value (nil sink) is inert: emit performs exactly one
// nil check and constructs nothing — the entire per-event cost on hot
// paths when tracing is disabled.
type passTracer struct {
	t    obs.Tracer
	env  *sim.Env
	pass uint64
}

// emit records one pass-scoped event; node is 0 when no node was reached
// and bit is −1 when the event is not interval-specific.
func (pt *passTracer) emit(kind obs.Kind, node uint64, bit int, arg int64, err error) {
	if pt.t == nil {
		return
	}
	pt.t.Event(obs.Event{
		Tick: pt.env.Clock.Now(),
		Kind: kind,
		Pass: pt.pass,
		Node: node,
		Bit:  int16(bit),
		Arg:  arg,
		Err:  obs.Classify(err),
	})
}

// Count estimates the cardinality of the metric's multiset from a random
// querying node (§4, Algorithm 1).
func (d *DHS) Count(metric uint64) (Estimate, error) {
	src := d.overlay.RandomNode()
	if src == nil {
		return Estimate{}, dht.ErrNoRoute
	}
	return d.CountFrom(src, metric)
}

// CountFrom estimates the cardinality of the metric's multiset, with the
// counting walk originating at src.
func (d *DHS) CountFrom(src dht.Node, metric uint64) (Estimate, error) {
	ests, err := d.CountAllFrom(src, []uint64{metric})
	if err != nil {
		return Estimate{}, err
	}
	return ests[0], nil
}

// CountAllFrom estimates the cardinality of several metrics in a single
// counting pass — the paper's multi-dimensional counting (§4.2). The bit→
// interval mapping is shared by all bitmaps of all metrics, so each probed
// node answers for every metric at once and the hop-count cost of the
// pass is the same as for a single metric; only the per-probe reply grows
// (⌈m/8⌉ bytes per still-unresolved metric).
//
// The pass cost is indivisible across metrics — that is the point of
// multi-dimensional counting — so every returned Estimate carries the
// same Cost: the total cost of the whole pass, not a per-metric share.
//
// The pass never aborts on a dead or unreachable node: a failed lookup,
// probe, or retry step consumes probe budget and the walk continues at a
// fresh random target. What was lost is reported in each Estimate's
// Quality.
func (d *DHS) CountAllFrom(src dht.Node, metrics []uint64) ([]Estimate, error) {
	if src == nil {
		return nil, dht.ErrNoRoute
	}
	if !src.Alive() {
		// A fail-stop-dead originator cannot issue anything; only remote
		// and transient failures degrade gracefully.
		return nil, dht.ErrNodeDown
	}
	return d.scanPass(src, metrics, func(int) int { return d.cfg.Lim }), nil
}

// scanPass runs one counting pass from src with the given per-bit probe
// budget: the shared scan over this handle's successor-walk prober. Every
// pass ends alike: each estimate carries the pass's whole cost and is
// flagged when the overlay had repairs pending, and count-done is emitted.
func (d *DHS) scanPass(src dht.Node, metrics []uint64, limFor func(bit int) int) []Estimate {
	rng, pass := d.countPass()
	w := &walkProber{d: d, src: src, rng: rng, pt: passTracer{t: d.env.Tracer(), env: d.env, pass: pass}}
	w.pt.emit(obs.KindCountStart, src.ID(), -1, int64(len(metrics)), nil)
	ests := d.geom.Scan(w, metrics, limFor)
	repairWindow := !d.overlay.Converged()
	for i := range ests {
		ests[i].Cost = w.cost
		ests[i].Quality.RepairWindow = repairWindow
		if w.pt.t != nil {
			w.pt.t.Event(obs.Event{
				Tick: d.env.Clock.Now(), Kind: obs.KindCountDone, Pass: pass,
				Node: src.ID(), Metric: metrics[i], Bit: -1,
				Arg: int64(ests[i].Quality.VectorsUnresolved),
			})
		}
	}
	return ests
}

// inIntervalRange reports whether id lies in [lo, lo+size) on the 2^64
// ring. The unsigned subtraction handles intervals whose upper end wraps
// past zero (the top interval's lo+size is exactly 2^64).
func inIntervalRange(id, lo, size uint64) bool {
	return id-lo < size
}

// walkFallback rescues a retry walk whose believed successor is dead: it
// returns the first live entry of cur's successor list — the node a real
// implementation would fail over to — and nil when the overlay keeps no
// list or no entry is live (the walk then re-enters the interval afresh).
func (d *DHS) walkFallback(cur dht.Node) dht.Node {
	for _, s := range d.overlay.SuccessorList(cur) {
		if s != nil && s != cur && s.Alive() {
			return s
		}
	}
	return nil
}

// walkProber is the in-process Prober: Algorithm 1's probe-and-retry
// walk over a dht.Overlay whose nodes' stores it reads directly. It
// meters every step against the environment's Traffic record and its own
// CountCost, and emits the pass's trace events.
type walkProber struct {
	d     *DHS
	src   dht.Node
	rng   *rand.Rand // the pass's private stream
	pt    passTracer
	cost  CountCost
	reply storeReply
}

// storeReply answers a probe from a node's store as of one instant.
type storeReply struct {
	s   *Store
	bit uint8
	now int64
}

func (r *storeReply) AppendVectors(dst []uint64, metric uint64) []uint64 {
	return r.s.AppendBitsWithBit(dst, metric, r.bit, r.now)
}

// ProbeInterval performs the probe-and-retry walk of Algorithm 1 on
// one bit's ID-space interval: route to a uniformly random identifier in
// the interval, probe its owner, then retry — blindly along successors
// in the default mode, boundary-aware in EdgeAware mode — up to lim
// spent probes, stopping early once the visitor reports the interval
// exhausted.
//
// Failure awareness: a failed lookup, probe, or successor/predecessor
// step consumes one unit of the probe budget and the walk re-enters the
// interval at a fresh random target instead of aborting — a dead node
// costs a probe, never the pass. Traffic spent before a failure is
// metered as dropped.
//
// All randomness comes from the pass's private stream, so concurrent
// passes neither contend on nor perturb each other.
func (w *walkProber) ProbeInterval(bit uint, lim int, v *Visitor) IntervalOutcome {
	d, pt, cost := w.d, &w.pt, &w.cost
	lo, size := d.geom.Interval(bit)
	var out IntervalOutcome

	probe := func(n dht.Node, h int) bool {
		// A reply carries ⌈m/8⌉ bytes for every metric that still has
		// unresolved vectors. The size is read before Visit runs, so a
		// probe is always costed at the pre-reply state — the node
		// answered for every metric that was open when asked.
		resp := MsgHeaderBytes + v.Open()*((d.cfg.M+7)/8)
		n.Counters().AddProbed()
		out.Visited++
		cost.NodesVisited++
		cost.Hops += int64(h)
		cost.Bytes += int64(h) * int64(ProbeReqBytes+resp)
		d.env.Traffic.Account(h, ProbeReqBytes+resp)
		pt.emit(obs.KindProbe, n.ID(), int(bit), int64(h), nil)
		w.reply = storeReply{s: storeIfPresent(n), bit: uint8(bit), now: d.env.Clock.Now()}
		return v.Visit(&w.reply)
	}

	// fail records a failed step: the budget is spent and the traffic
	// the request consumed before failing is metered as dropped.
	fail := func(hops int) {
		out.Failed++
		if hops > 0 {
			cost.Hops += int64(hops)
			cost.Bytes += int64(hops) * int64(ProbeReqBytes)
			d.env.Traffic.Drop(hops, ProbeReqBytes)
		}
	}

	// enter routes to a fresh uniform target in the interval; it costs
	// one budget unit whether or not it succeeds. Only a successful
	// route counts as a lookup — the metering rule shared with the
	// insertion paths (see CountCost.Lookups); the failed attempt is
	// still visible in Quality.ProbesAttempted/ProbesFailed.
	enter := func() (dht.Node, int, bool) {
		target := sim.UniformIn(w.rng, lo, size)
		rt, err := d.overlay.RouteFrom(w.src, target)
		out.Attempted++
		out.Stale += rt.Stale
		if err != nil {
			pt.emit(obs.KindLookup, 0, int(bit), int64(rt.Hops), err)
			fail(rt.Hops)
			return nil, 0, false
		}
		cost.Lookups++
		pt.emit(obs.KindLookup, rt.Node.ID(), int(bit), int64(rt.Hops), nil)
		return rt.Node, rt.Hops, true
	}

	if !d.cfg.EdgeAware {
		// Faithful Algorithm 1: retry by walking successors until the
		// probe budget is spent (the pseudocode's predecessor branch is
		// unreachable — its guard tests the original target ID, which by
		// construction always lies inside the interval). Successor
		// retries also discover replicas stored past the home node.
		var home, cur dht.Node
		for out.Attempted < lim {
			if cur == nil {
				// (Re-)enter the interval at a fresh random target. The
				// wrap-around anchor is reset to the newly entered node:
				// after a failed step the walk continues from a different
				// position, and checking wraps against the first segment's
				// entry point would terminate the new segment early (or
				// miss its wrap entirely) on small rings.
				n, hops, ok := enter()
				if !ok {
					continue
				}
				cur = n
				home = n
				if probe(cur, hops) {
					return out
				}
				continue
			}
			next, err := d.overlay.Successor(cur)
			out.Attempted++
			if err != nil {
				pt.emit(obs.KindWalkStep, 0, int(bit), 1, err)
				fail(1)
				// On a stabilizing overlay the death of a believed
				// successor need not end the segment: fall back through
				// cur's successor list to the first live entry. Without
				// a list (or with the list exhausted) the walk re-enters
				// the interval afresh.
				if fb := d.walkFallback(cur); fb != nil {
					out.Stale++
					pt.emit(obs.KindWalkStep, fb.ID(), int(bit), 1, nil)
					if fb == home {
						return out // wrapped around a tiny ring
					}
					cur = fb
					if probe(cur, 1) {
						return out
					}
					continue
				}
				cur = nil // the walk lost its footing; re-enter afresh
				continue
			}
			pt.emit(obs.KindWalkStep, next.ID(), int(bit), 1, nil)
			if next == home {
				return out // wrapped all the way around a tiny ring
			}
			cur = next
			if probe(cur, 1) {
				return out
			}
		}
		return out
	}

	// Edge-aware variant (an ablation beyond the paper): exploit the
	// globally known interval boundaries to skip probes that cannot
	// succeed.
	var home dht.Node
	for home == nil {
		if out.Attempted >= lim {
			return out
		}
		n, hops, ok := enter()
		if !ok {
			continue
		}
		home = n
		if probe(home, hops) {
			return out
		}
	}

	// Successor phase: continue while the just-probed node sat inside
	// the interval — its successor may own further interval keys (a node
	// just past the interval's top owns the trailing gap). A failed step
	// spends a probe and ends the phase: boundary knowledge is useless
	// once the walk's position is unknown.
	cur := home
	for out.Attempted < lim && inIntervalRange(cur.ID(), lo, size) {
		next, err := d.overlay.Successor(cur)
		if err != nil {
			pt.emit(obs.KindWalkStep, 0, int(bit), 1, err)
			out.Attempted++
			fail(1)
			break
		}
		pt.emit(obs.KindWalkStep, next.ID(), int(bit), 1, nil)
		if next == home {
			return out // wrapped all the way around a tiny ring
		}
		cur = next
		out.Attempted++
		if probe(cur, 1) {
			return out
		}
	}

	// Predecessor phase: walk down from the first probed node while the
	// predecessors still lie inside the interval (nodes below it own no
	// interval keys).
	back := home
	for out.Attempted < lim {
		prev, err := d.overlay.Predecessor(back)
		if err != nil {
			pt.emit(obs.KindWalkStep, 0, int(bit), -1, err)
			out.Attempted++
			fail(1)
			break
		}
		pt.emit(obs.KindWalkStep, prev.ID(), int(bit), -1, nil)
		if prev == home || !inIntervalRange(prev.ID(), lo, size) {
			break
		}
		back = prev
		out.Attempted++
		if probe(back, 1) {
			return out
		}
	}
	return out
}
