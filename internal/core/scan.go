package core

import (
	"math/bits"

	"dhsketch/internal/dht"
	"dhsketch/internal/obs"
	"dhsketch/internal/sketch"
)

// Prober is the transport half of Algorithm 1 — the one step the
// simulated overlays and the TCP ring perform differently: how the
// identifier interval of one bit position is probed. Everything else of
// a counting pass (scan order, per-vector resolution, the estimate, the
// failure accounting) is Geometry.Scan, shared by both.
type Prober interface {
	// ProbeInterval spends up to lim units of probe budget on the
	// interval storing bit. It calls v.Visit once per node that answers
	// — never concurrently — and may stop once Visit returns true; the
	// steps that find those nodes it reports through v.Note. A
	// failed step consumes budget like a successful one (lim bounds
	// work, not successes); the outcome reports what the budget bought,
	// and what stale routing state the prober met on the way, in the
	// transport's own terms.
	ProbeInterval(bit uint, lim int, v *Visitor) IntervalOutcome
}

// Reply is one probed node's answer at the probed bit position.
type Reply interface {
	// AppendVectors overwrites dst with the bitset of metric's vectors
	// whose probed bit is set on the node — vector v is bit v%64 of word
	// v/64, trailing zero words optional — and returns it.
	AppendVectors(dst []uint64, metric uint64) []uint64
}

// IntervalOutcome reports what one interval's probing achieved.
type IntervalOutcome struct {
	Attempted int  // probe budget spent, incl. failed steps
	Failed    int  // steps lost to drops, timeouts, or down nodes
	Visited   int  // nodes successfully probed
	Stale     int  // steps wasted on stale routing state (Quality.StaleRetries)
	Repair    bool // routing state was under repair (Quality.RepairWindow)
}

// metricState tracks the per-vector resolution of one metric during a
// counting pass.
type metricState struct {
	metric     uint64
	R          []int  // resolved statistic per vector
	resolved   []bool // whether vector j has its statistic
	unresolved int
	// foundHere marks vectors observed set at the current bit position
	// (ascending PCSA scans need it to decide leftmost zeros).
	foundHere []bool
	// scratch is the probe-reply buffer: every Reply's bitset for this
	// metric is written into it in place, so the steady-state probe path
	// allocates nothing. Sized ⌈m/64⌉; grows only if a foreign handle
	// with larger m shares the overlay.
	scratch []uint64
}

// reset readies st for a pass over metric at m vectors, in the memory it
// held for the last one where that is large enough.
func (st *metricState) reset(metric uint64, m int) {
	st.metric, st.unresolved = metric, m
	st.R = resize(st.R, m)
	for i := range st.R {
		st.R[i] = -1
	}
	st.resolved = resize(st.resolved, m)
	clear(st.resolved)
	st.foundHere = resize(st.foundHere, m) // cleared at each interval
	st.scratch = resize(st.scratch, (m+63)/64)[:0]
}

// resize returns s at length n, in the memory s holds when that is large
// enough and in new memory otherwise; what it holds is not kept.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Trace is what every event of one counting pass shares: the sink they
// go to, the pass number, the querying node, and the virtual instant — a
// count never advances the clock, so one tick stamps the whole pass. The
// zero Trace (nil Sink) traces nothing: each potential event then costs
// one nil check and constructs nothing.
type Trace struct {
	Sink obs.Tracer
	Pass uint64
	Node uint64
	Tick int64
}

// emit records one event of the pass; node is 0 when no node was reached
// and bit is −1 when the event is not interval-specific.
func (t *Trace) emit(kind obs.Kind, node, metric uint64, bit int, arg int64, err error) {
	if t.Sink == nil {
		return
	}
	t.Sink.Event(obs.Event{
		Tick:   t.Tick,
		Kind:   kind,
		Pass:   t.Pass,
		Node:   node,
		Metric: metric,
		Bit:    int16(bit),
		Arg:    arg,
		Err:    dht.ClassOf(err),
	})
}

// Visitor is the resolution state of one counting pass, handed to the
// Prober so it can deliver replies, report its steps, and ask which
// metrics are still open.
type Visitor struct {
	ascending bool
	bit       int // position being probed
	states    []metricState
	open      int // metrics with unresolved vectors
	// listed is the open metrics as Metrics last listed them, and lists
	// every list Metrics has handed out this pass, one after another.
	listed, lists []uint64
	tr            Trace
}

// Open returns how many metrics still have unresolved vectors — the
// metrics a probe issued now has to ask for.
func (v *Visitor) Open() int { return v.open }

// Metrics returns the identifiers of the still-open metrics. The slice is
// the pass's: it holds the same identifiers for the rest of the pass, and
// a later call returns it again until a metric closes. A metric never
// reopens, so a pass lists at most one more time than it has metrics.
func (v *Visitor) Metrics() []uint64 {
	if len(v.listed) != v.open {
		from := len(v.lists)
		for i := range v.states {
			if v.states[i].unresolved > 0 {
				v.lists = append(v.lists, v.states[i].metric)
			}
		}
		v.listed = v.lists[from:len(v.lists):len(v.lists)]
	}
	return v.listed
}

// Note reports one step the prober took toward the current interval's
// nodes as an event of the pass: a routed lookup (obs.KindLookup) or a
// walk step (obs.KindWalkStep). node is the node reached, 0 when err is
// set; arg is the kind's payload.
func (v *Visitor) Note(kind obs.Kind, node uint64, arg int64, err error) {
	v.tr.emit(kind, node, 0, v.bit, arg, err)
}

// Visit folds node's reply into the pass, emitting its probe event with
// hops as the cost, and reports whether the current interval has nothing
// more to teach: every vector resolved (descending), or every unresolved
// vector already seen set here so no zero can be declared (ascending).
// Vector indexes at or beyond m — a writer with mismatched geometry — are
// ignored.
func (v *Visitor) Visit(node uint64, hops int, r Reply) bool {
	v.tr.emit(obs.KindProbe, node, 0, v.bit, int64(hops), nil)
	done := true
	for i := range v.states {
		st := &v.states[i]
		if st.unresolved == 0 {
			continue
		}
		st.scratch = r.AppendVectors(st.scratch, st.metric)
		for wi, w := range st.scratch {
			base := wi << 6
			for ; w != 0; w &= w - 1 {
				j := base + bits.TrailingZeros64(w)
				if j >= len(st.resolved) {
					continue
				}
				if v.ascending {
					st.foundHere[j] = true
				} else if !st.resolved[j] {
					// Scanning downward, the first set bit seen for a
					// vector is its maximum.
					st.resolve(j, v.bit)
				}
			}
		}
		if v.ascending {
			for j := range st.foundHere {
				if !st.resolved[j] && !st.foundHere[j] {
					done = false
					break
				}
			}
		} else if st.unresolved == 0 {
			v.open--
		}
	}
	if v.ascending {
		return done
	}
	return v.open == 0
}

func (st *metricState) resolve(j, bit int) {
	st.resolved[j] = true
	st.R[j] = bit
	st.unresolved--
}

// declareZeros closes an ascending interval that produced evidence:
// vectors with no set bit found at this position have their leftmost
// zero here.
func (v *Visitor) declareZeros() {
	for i := range v.states {
		st := &v.states[i]
		if st.unresolved == 0 {
			continue
		}
		for j := range st.foundHere {
			if !st.resolved[j] && !st.foundHere[j] {
				st.resolve(j, v.bit)
			}
		}
		if st.unresolved == 0 {
			v.open--
		}
	}
}

// scanQuality aggregates the failure accounting of one counting pass.
type scanQuality struct {
	attempted int  // probe budget spent, incl. failed steps
	failed    int  // steps lost to drops, timeouts, or down nodes
	skipped   int  // intervals where no node could be probed at all
	stale     int  // steps wasted on stale routing state (see Quality)
	repair    bool // some interval ran while routing state was under repair
}

func (q *scanQuality) add(out IntervalOutcome) {
	q.attempted += out.Attempted
	q.failed += out.Failed
	q.stale += out.Stale
	q.repair = q.repair || out.Repair
	if out.Visited == 0 {
		q.skipped++
	}
}

// forMetric combines the pass-wide failure accounting with one metric's
// resolution state into its Estimate's Quality.
func (q scanQuality) forMetric(st *metricState) Quality {
	qual := Quality{
		ProbesAttempted:   q.attempted,
		ProbesFailed:      q.failed,
		IntervalsSkipped:  q.skipped,
		VectorsUnresolved: st.unresolved,
		StaleRetries:      q.stale,
		RepairWindow:      q.repair,
	}
	qual.settle()
	return qual
}

// Scan runs one counting pass of Algorithm 1 for all metrics at once
// (§4.2: the bit→interval mapping is shared, so each probed node answers
// for every open metric) and returns one Estimate per metric, Cost left
// zero for the caller's transport to fill in. limFor gives the probe
// budget of each bit position. The pass's events go to tr: count-start,
// then what the prober reports through the Visitor, then one count-done
// per metric.
//
// LogLog family: visit the intervals from the most significant position
// downward; the first set bit seen for a vector is its maximum. An
// interval where every probe failed can only lose maxima, never invent
// them, so it is recorded and the scan moves on.
//
// PCSA: visit the intervals from the least significant stored position
// upward; a vector's statistic is the first position where no set bit is
// found within the budget (its leftmost zero). Declaring a zero needs
// the budget exhausted, which is why DHS-PCSA degrades faster than
// DHS-sLL when intervals get sparse (§5.2, "Accuracy") — and needs some
// evidence: an interval where no node answered is skipped with its
// vectors left open for later bits, because declaring zeros from no
// evidence would collapse the estimate.
//
// The pass never aborts on a dead or unreachable node; what was lost is
// reported in each Estimate's Quality.
func (g *Geometry) Scan(p Prober, metrics []uint64, limFor func(bit int) int, tr Trace) []Estimate {
	return g.ScanWith(new(Pass), p, metrics, limFor, tr)
}

// Pass is the memory of a counting pass: the Visitor its prober is
// handed, one resolution state per metric, the lists of open metrics and
// the estimates. Scanning through one Pass again reuses it, so a pass
// allocates nothing once its Pass has held a pass of its size. A Pass
// holds one pass at a time: the next scan through it overwrites the
// estimates the last one returned, and their R.
type Pass struct {
	v    Visitor
	ests []Estimate
}

// ScanWith is Scan in the memory of ps.
func (g *Geometry) ScanWith(ps *Pass, p Prober, metrics []uint64, limFor func(bit int) int, tr Trace) []Estimate {
	v := &ps.v
	v.ascending, v.open, v.tr = g.Kind == sketch.KindPCSA, len(metrics), tr
	v.listed, v.lists = nil, v.lists[:0]
	v.tr.emit(obs.KindCountStart, v.tr.Node, 0, -1, int64(len(metrics)), nil)
	v.states = resize(v.states, len(metrics))
	for i, metric := range metrics {
		v.states[i].reset(metric, g.M)
	}

	var q scanQuality
	first, last, step := g.ScanRange()
	for v.bit = first; v.bit != last+step && v.open > 0; v.bit += step {
		if v.ascending {
			for i := range v.states {
				clear(v.states[i].foundHere)
			}
		}
		out := p.ProbeInterval(uint(v.bit), limFor(v.bit), v)
		q.add(out)
		if v.ascending && out.Visited > 0 {
			v.declareZeros()
		}
	}

	ps.ests = resize(ps.ests, len(metrics))
	for i := range v.states {
		st := &v.states[i]
		R := g.finalR(st)
		ps.ests[i] = Estimate{Value: g.estimateFromR(R), R: R, Quality: q.forMetric(st)}
		v.tr.emit(obs.KindCountDone, v.tr.Node, st.metric, -1, int64(st.unresolved), nil)
	}
	v.tr = Trace{} // a Pass kept for later holds on to no sink
	return ps.ests
}
