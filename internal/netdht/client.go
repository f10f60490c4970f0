package netdht

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strconv"
	"sync"

	"dhsketch/internal/chord"
	"dhsketch/internal/core"
	"dhsketch/internal/metrics"
	"dhsketch/internal/obs"
	"dhsketch/internal/sketch"
	"dhsketch/internal/wire"
)

// ClientConfig shapes a Client. The sketch-geometry fields (K, M, Kind,
// Lim, TTL) must match what every other writer and reader of the metric
// uses — the networked deployment has no shared core.Config to enforce
// it. Zero K, M and Lim take core's defaults (24, 512, 5). dhsd and
// dhsnode fill theirs from GeometryFlags instead, whose defaults are 16,
// 64, sll and 5, so a Client beside daemons started with default flags
// must set K and M.
type ClientConfig struct {
	// Entry is the address of any ring member; every lookup, and every
	// store the client's view of the ring cannot direct, enters the overlay
	// there.
	Entry string

	// K is the bitmap length k (hash bits per item). Default 24.
	K uint
	// M is the number of bitmap vectors m (power of two). Default 512.
	M int
	// Kind selects the estimator family. The zero value is
	// sketch.KindPCSA, matching core.Config's convention.
	Kind sketch.Kind
	// Lim is the per-interval probe budget of the counting scan.
	// Default 5; a negative budget is refused.
	Lim int
	// TTL is the tuple lifetime in the ring's coarse ticks (0 = no
	// expiry, negative refused); it narrows through wire.ClampTTL like
	// every producer.
	TTL int64
	// Seed drives the interval-target randomness. An insert draws its
	// targets from a stream of its own, a function of the seed, its metric
	// and its item (insertStream), so what a fixed seed and item set leave
	// in a ring does not depend on how concurrent inserts interleave, and
	// an item stored again goes where it went before. The counting scans
	// share one stream: a fixed seed and an unchanging ring give one caller
	// a reproducible sequence of targets, and so of owners visited and
	// probes sent; which of the targets cost a lookup depends on what the
	// client has seen of the ring before. Concurrent scans share the stream.
	Seed uint64

	// Metrics, when non-nil, instruments the client's outbound RPC
	// pool (per-tag latency, failure-class counters, dial/redial/retry counts,
	// open-socket gauge) — the same instruments a Server's outbound
	// side registers. Nil keeps every hook a one-branch no-op.
	Metrics *metrics.Registry
}

// GeometryFlags registers -k, -m, -kind, -lim and -seed on fs, bound to
// c's fields: the one geometry flag set of dhsd and dhsnode, whose
// defaults (16, 64, sll, 5, seed 1) are the geometry scripts/smoke.sh and
// bench/ pass. A -k, -m or -lim below 1 is a flag error: withDefaults
// would read a zero as core's default, a geometry no daemon writes.
func (c *ClientConfig) GeometryFlags(fs *flag.FlagSet) {
	c.K, c.M, c.Kind, c.Lim = 16, 64, sketch.KindSuperLogLog, 5
	fs.Func("k", "bitmap length `k` (hash bits per item, default 16); the sketch counts up to about 2^k items in all", positive(&c.K))
	fs.Func("m", "number of bitmap vectors `m` (power of two, default 64); an estimate needs n ≥ m·N items on an N-node ring (α = n/(m·N) ≥ 1)", positive(&c.M))
	fs.Func("kind", "estimator `family`: pcsa, sll, loglog, hll (default sll)", func(s string) (err error) {
		c.Kind, err = sketch.ParseKind(s)
		return err
	})
	fs.Func("lim", "per-interval probe `budget` (default 5)", positive(&c.Lim))
	fs.Uint64Var(&c.Seed, "seed", 1, "seed of the interval targets probes and inserts are sent to")
}

// positive parses a flag's value into *p, refusing anything below 1.
func positive[T int | uint](p *T) func(string) error {
	return func(s string) error {
		v, err := strconv.ParseUint(s, 0, strconv.IntSize-1)
		if err != nil || v == 0 {
			return errors.New("want a positive integer")
		}
		*p = T(v)
		return nil
	}
}

// DefaultProbeParallel is how many of an interval's probes the counting
// scan keeps in flight: one, as in Algorithm 1's loop. Nothing in this
// module reads it; bench/ does, and the symbol goes with the next change
// to bench/.
const DefaultProbeParallel = 1

func (c ClientConfig) withDefaults() ClientConfig {
	if c.K == 0 {
		c.K = core.DefaultK
	}
	if c.M == 0 {
		c.M = core.DefaultM
	}
	if c.Lim == 0 {
		c.Lim = core.DefaultLim
	}
	return c
}

// Client performs DHS insertions and the Algorithm-1 counting scan
// against a netdht ring purely over RPC — no shared memory with any
// server, so it runs in a separate OS process (cmd/dhsnode's insert
// and count subcommands). It is core's sketch geometry and shared scan
// over an RPC interval prober; DESIGN.md §14 lists the two places it
// still departs from the simulator's data plane.
type Client struct {
	cfg   ClientConfig
	geom  core.Geometry
	peers *peerPool
	// maxMasks is the most masks one probe reply can carry at this geometry:
	// what a frame holds, and no more than the reply's 16-bit mask count. It
	// bounds positions × metrics of a run, and the metrics of one scan.
	maxMasks int

	rng *rand.Rand // the scans', over a lockedSource: concurrent scans share the stream

	// view is the ring as the counting scans and the stores' acks have
	// shown it so far.
	view ringView
}

// NewClient validates the configuration and prepares the connection
// pool; no connection is made until the first operation.
func NewClient(cfg ClientConfig) (*Client, error) { return newClient(cfg, DefaultPeerConns) }

// newClient is NewClient at a pool width of the caller's choosing.
func newClient(cfg ClientConfig, peerConns int) (*Client, error) {
	cfg = cfg.withDefaults()
	if cfg.Entry == "" {
		return nil, fmt.Errorf("netdht: client needs an entry address")
	}
	if err := core.CheckLimTTL(cfg.Lim, cfg.TTL); err != nil {
		return nil, fmt.Errorf("netdht: %w", err)
	}
	// The wire's scan range: the descending scan starts at k − log₂(m) —
	// positions above it can never be set, and probing them costs Lim
	// round trips each.
	geom, err := core.NewGeometry(core.Geometry{
		K: cfg.K, M: cfg.M, Kind: cfg.Kind, TrimmedScan: true,
	})
	if err != nil {
		return nil, fmt.Errorf("netdht: %w", err)
	}
	c := &Client{
		cfg:      cfg,
		geom:     geom,
		peers:    newPeerPool(peerConns, cfg.Metrics),
		maxMasks: min(math.MaxUint16, (maxFrame-wire.ProbeRespOverhead)/wire.MaskBytes(geom.M)),
		rng:      rand.New(&lockedSource{src: rand.NewPCG(cfg.Seed, 0x6a09e667f3bcc908)}),
	}
	cfg.Metrics.GaugeFunc("netdht_peer_conns", "cached outbound peer connections",
		func() float64 { return float64(c.peers.size()) })
	cfg.Metrics.GaugeFunc("netdht_view_arcs", "ring arcs the client remembers",
		func() float64 { return float64(c.view.size()) })
	return c, nil
}

// Close releases the client's connections.
func (c *Client) Close() { c.peers.close() }

// randomTarget draws a uniform identifier in bit's interval from the
// scans' shared stream.
func (c *Client) randomTarget(bit uint) uint64 { return c.geom.Target(c.rng, bit) }

// lockedSource is a rand.Source safe for concurrent use.
type lockedSource struct {
	mu  sync.Mutex
	src rand.Source
}

func (s *lockedSource) Uint64() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Uint64()
}

// store sends a tuple frame into the ring as a routed store for key and
// returns the ack of the node the route ended at, which stored it. The view
// picks the route's first hop and nothing more: a remembered owner of key is
// sent the request the entry would have been sent, undelivered, and its own
// Route decides whether the key is its own — so the ring places the tuple,
// and a stale arc costs hops, never a misplaced write. Its ack is its word on
// the arc: no hops, the key is still its own; hops, it routed the store on
// (a join in front of it) and the arc is dropped; no ack, the node is taken
// for gone, the arc is dropped and the entry is tried. A key no arc covers
// goes through the entry with flagNeighbors, and the ack brings the storing
// node's neighbourhood back for the view to learn. Each gets one exchange: a
// failed store is retried by the insertion rule, at a fresh target.
func (c *Client) store(key uint64, frame []byte) (chord.Found, error) {
	arc, remembered := c.view.resolve(key)
	c.peers.m.storeFirstHop(remembered)
	if remembered {
		ack, err := c.peers.route(arc.owner.Addr, findSuccMsg{key: key, store: frame}, nil)
		if err != nil || ack.Hops > 0 {
			c.view.drop(arc.owner.ID)
		}
		if err == nil {
			return ack, nil
		}
	}
	ack, err := c.peers.route(c.cfg.Entry, findSuccMsg{flags: flagNeighbors, key: key, store: frame}, nil)
	if err != nil {
		return chord.Found{}, fmt.Errorf("via %s: %w", c.cfg.Entry, err)
	}
	c.view.learn(ack)
	return ack, nil
}

// Insert records one item occurrence under metric: core's insertion rule
// (Geometry.Place) of one item over the wire. The tuple travels, in one
// routed exchange, to the owner of a uniform target in its bit's interval,
// and the ring places it when it arrives. A store the ring refuses or the
// network loses is re-sent, up to core.DefaultInsertRetries times, at a
// fresh target after a linear backoff, as in the simulator; a refresh is
// idempotent, so a store re-sent after a lost ack does no harm. The
// targets are insertStream's for the item, not draws from a stream the
// client's other callers share.
func (c *Client) Insert(metric, itemID uint64) error {
	s := insertStreams.Get().(*insertStream)
	defer insertStreams.Put(s)
	s.seed(c.cfg.Seed, metric, itemID)
	if err := c.geom.Place((*wirePlacer)(c), s.rng, metric, []uint64{itemID}, core.DefaultInsertRetries); err != nil {
		return fmt.Errorf("netdht: insert lookup %w", err)
	}
	return nil
}

// insertStream is the target stream of one insert: a PCG seeded from the
// client's seed, the metric and the item, so that its first draw is the
// item's target whichever goroutine inserts it and whatever ran before, and
// each draw after it the target of one more re-send. The streams are pooled
// because a rand.Rand over a stack PCG would move to the heap on every insert.
type insertStream struct {
	pcg rand.PCG
	rng *rand.Rand // over pcg
}

var insertStreams = sync.Pool{New: func() any {
	s := new(insertStream)
	s.rng = rand.New(&s.pcg)
	return s
}}

func (s *insertStream) seed(seed, metric, item uint64) { s.pcg.Seed(seed^metric, item) }

// wirePlacer is the wire half of core's insertion rule: one attempt is one
// routed store of a wire.Insert frame, or of a wire.BulkInsert for a group
// of several vectors, and the backoff sleeps.
type wirePlacer Client

func (p *wirePlacer) Store(metric uint64, bit uint, target uint64, vectors []int32) error {
	ttl := wire.ClampTTL(p.cfg.TTL)
	var tuple [16]byte
	frame := wire.AppendInsert(tuple[:0], wire.Insert{Metric: metric, Vector: uint16(vectors[0]), Bit: uint8(bit), TTL: ttl})
	if len(vectors) > 1 {
		vs := make([]uint16, len(vectors))
		for i, v := range vectors {
			vs[i] = uint16(v)
		}
		frame = wire.EncodeBulkInsert(wire.BulkInsert{Metric: metric, Bit: uint8(bit), TTL: ttl, Vectors: vs})
	}
	_, err := (*Client)(p).store(target, frame)
	return err
}

func (p *wirePlacer) Wait(attempt int) { p.peers.backoff(attempt) }

// CountResult is one counting pass's outcome: the estimate and core's
// whole Quality, as Geometry.Scan filled it — the same accounting, and
// the same Degraded rule, as a simulated pass. The JSON field names are
// an API surface: `dhsnode count -json`, the dhsd /count response body,
// and dhsload's CI assertions all marshal this struct, and the serving
// layer's byte-identity contract (DESIGN.md §16) is defined over exactly
// this encoding. Fields may be added, never renamed.
type CountResult struct {
	Estimate float64 `json:"estimate"`
	core.Quality
}

// Count runs the Algorithm-1 counting scan for metric over RPC: CountAll of
// one metric.
func (c *Client) Count(metric uint64) (CountResult, error) {
	res, err := c.CountAll([]uint64{metric})
	if err != nil {
		return CountResult{}, err
	}
	return res[0], nil
}

// CountAll runs one counting scan for all of metrics over RPC — core's shared
// scan (descending for the LogLog family, ascending for PCSA) driven by the
// RPC interval prober — and returns their results in the order given. The
// bit-to-interval mapping is the same for every metric (§4.2), so each owner
// is asked once, for every metric still open, over the run of positions its
// arc holds: the scan costs the exchanges of counting one metric, and each
// further metric adds its masks to the replies. A metric named twice is
// scanned once, and the metrics go out in ascending order. A list whose reply
// for a single position would not fit a frame is scanned in consecutive parts
// of maxMasks metrics each.
//
// CountAll is safe for concurrent use by many goroutines sharing one Client
// — each call carries its own answers, the ring view they all resolve
// targets against orders them behind its mutex, and the peer pool
// multiplexes exchanges over DefaultPeerConns sockets per peer. The first
// scan pays for learning the ring; later ones route only what has changed.
func (c *Client) CountAll(metrics []uint64) ([]CountResult, error) {
	// One order on the wire, whatever order the caller names them in, so a
	// socket's kept probe request finds the metric list it sent last.
	distinct := slices.Clone(metrics)
	slices.Sort(distinct)
	distinct = slices.Compact(distinct)
	scanned := make([]CountResult, 0, len(distinct))
	for len(scanned) < len(distinct) {
		part := distinct[len(scanned):min(len(scanned)+c.maxMasks, len(distinct))]
		scanned = append(scanned, c.scan(&rpcProber{c: c}, part)...)
	}
	out := make([]CountResult, len(metrics))
	for i, m := range metrics {
		at, _ := slices.BinarySearch(distinct, m)
		out[i] = scanned[at]
	}
	return out, nil
}

// scan is one counting pass for metrics over any interval prober, untraced.
func (c *Client) scan(p core.Prober, metrics []uint64) []CountResult {
	lim := func(int) int { return c.cfg.Lim }
	out := make([]CountResult, len(metrics))
	for i, est := range c.geom.Scan(p, metrics, lim, core.Trace{}) {
		out[i] = CountResult{Estimate: est.Value, Quality: est.Quality}
	}
	return out
}

// answers is what one owner said of a run of bit positions, kept for the
// life of the scan: bits × len(metrics) masks, bit-major from position low.
type answers struct {
	low, bits int
	metrics   []uint64
	masks     [][]byte
}

func (a answers) holds(bit uint) bool { return int(bit) >= a.low && int(bit) < a.low+a.bits }

// at returns the owner's reply for one position the run holds.
func (a answers) at(bit uint) *maskReply {
	i := (int(bit) - a.low) * len(a.metrics)
	return &maskReply{metrics: a.metrics, masks: a.masks[i : i+len(a.metrics)]}
}

// rpcProber is the wire's core.Prober, one per scan and, like Algorithm 1's
// loop, one goroutine. Where Algorithm 1 routes once per interval and walks
// successors, the prober has every lookup bring the owner's neighbourhood
// back and resolves targets against the arcs the client has been told of
// (ringView): an interval draws its lim uniform targets as ever and routes
// only those no arc covers. The arcs outlive the scan; the answers do not.
// The first probe of a node asks for every position of the scan its arc
// still holds, and the intervals that follow are answered from what it said
// — a snapshot as old as the scan's first contact with the node, gone when
// the scan returns. So every remembered arc a scan relies on is checked by
// that scan's own first probe of its owner, whose reply says where the arc
// starts now. Each distinct owner is visited once per interval; a target
// whose owner the interval has already met spends budget without a second
// visit, mirroring the simulator's duplicate-visit cost, and once a visit
// has told the scan all the interval can, the budget left buys nothing, as
// in the simulator's walk. The visit order is a function of the client's
// random stream and the ring alone. Each find_succ is noted as a lookup
// event of the pass, its Arg the hops the reply carries; each visit's
// probe event has Arg 1 when a probe exchange served it and 0 when the
// scan's memory of earlier replies did.
type rpcProber struct {
	c    *Client
	told map[uint64]answers // by owner ID
	// askOn, when a test sets it, has an interval spend all its attempts
	// whatever a visit reports: the loop the early stop is measured against.
	askOn bool
}

// lookup routes target through the entry node, notes the step to v, and
// folds the reply — the owner and its neighbourhood — into the view. The
// entry makes the first routing decision, so the client needs no ring
// topology.
func (p *rpcProber) lookup(v *core.Visitor, target uint64) (chord.Ref, error) {
	f, err := p.c.peers.route(p.c.cfg.Entry, findSuccMsg{flags: flagNeighbors, key: target}, nil)
	v.Note(obs.KindLookup, f.Owner.ID, int64(f.Hops), err)
	if err != nil {
		return chord.Ref{}, err
	}
	p.c.view.learn(f)
	return f.Owner, nil
}

// reroute is for a target the view resolved to an arc that did not stand —
// its owner does not answer, or answers and leaves target to another: ask
// the ring. A different owner whose reply does not itself account for
// target inherits the arc's start, so a dead node is paid for once, not
// once for every interval its arc crosses, and a newcomer that has yet to
// learn its predecessor is not routed to again and again. The same owner
// again is learnt again, and keeps what the lookup says of it.
func (p *rpcProber) reroute(v *core.Visitor, target uint64, was segment) (chord.Ref, error) {
	owner, err := p.lookup(v, target)
	if err != nil || owner.ID == was.owner.ID {
		return owner, err
	}
	if now, covered := p.c.view.resolve(target); !covered || now.owner.ID != owner.ID {
		p.c.view.set(was.lo, owner)
	}
	return owner, nil
}

// run is the request a first probe of owner at bit sends: bit, and with
// it the positions the scan visits next whose intervals meet the owner's
// arc as the view has it, as far as one frame can carry the reply. An
// owner the view does not hold is asked for bit alone.
func (p *rpcProber) run(bit uint, owner chord.Ref, metrics []uint64) wire.ProbeReq {
	g := &p.c.geom
	_, last, step := g.ScanRange()
	end := int(bit)
	if arc, known := p.c.view.arc(owner.ID); known {
		fit := p.c.maxMasks / len(metrics)
		for bits := 2; bits <= fit && end != last; bits++ {
			lo, size := g.Interval(uint(end + step))
			if !arc.meets(lo, size) {
				break
			}
			end += step
		}
	}
	low := min(int(bit), end)
	return wire.ProbeReq{Bit: uint8(low), Span: uint8(max(int(bit), end) - low), NumVecs: uint16(g.M), Metrics: metrics}
}

// answer returns what owner says of bit: what the scan already holds, else
// what a probe for bit's run brings back, which the scan holds from then
// on; fresh is that probe's reply, nil when none was sent. A failure is not
// kept.
func (p *rpcProber) answer(bit uint, owner chord.Ref, metrics []uint64) (a answers, fresh *wire.ProbeResp, err error) {
	if a = p.told[owner.ID]; a.holds(bit) {
		return a, nil, nil
	}
	req := p.run(bit, owner, metrics)
	resp, err := p.c.probe(owner.Addr, req)
	if err != nil {
		return answers{}, nil, err
	}
	a = answers{low: int(req.Bit), bits: int(req.Span) + 1, metrics: metrics, masks: resp.VecMasks}
	if p.told == nil {
		p.told = make(map[uint64]answers)
	}
	p.told[owner.ID] = a
	return a, &resp, nil
}

func (p *rpcProber) ProbeInterval(bit uint, lim int, v *core.Visitor) core.IntervalOutcome {
	out := core.IntervalOutcome{Attempted: lim}
	metrics := v.Metrics()
	view := &p.c.view
	met := make(map[uint64]bool) // owners the interval has spent an attempt on
	// The interval's exchanges: probes, and lookups — re-routes too, at most
	// one a target.
	probed, routed := 0, 0
	exhausted := false // what the interval's last Visit reported
	// attempt spends one of the interval's lim attempts on target's owner.
	attempt := func(target uint64) error {
		arc, remembered := view.resolve(target)
		owner := arc.owner
		if !remembered {
			var err error
			routed++
			if owner, err = p.lookup(v, target); err != nil {
				return err
			}
		}
		if met[owner.ID] {
			return nil
		}
		_, heard := p.told[owner.ID]
		a, fresh, err := p.answer(bit, owner, metrics)
		// A remembered arc stands when its owner answers and, in the first
		// reply the scan has from it, still counts target its own. A later
		// reply is not asked: the arc may by then be one reroute gave the node
		// for want of its word. What a lookup has just said needs no second
		// opinion either. A first reply that moves the arc's start corrects
		// the view even when the arc still holds target.
		if remembered && err == nil && !heard && (!fresh.HasArc || fresh.ArcLo != arc.lo) {
			out.Repair = true
		}
		if remembered && (err != nil || !heard && !view.confirm(owner, fresh.ArcLo, fresh.HasArc, target)) {
			if err != nil {
				// The node is gone: forget it, its arc and what it said.
				// The interval has met it all the same.
				met[owner.ID] = true
				view.drop(owner.ID)
				delete(p.told, owner.ID)
			}
			// The attempt goes to the node the ring names instead, unless
			// the interval has met it. A node that answered and is named
			// again is taken at the ring's word, with the answer it gave.
			// The re-route is the scan's stale retry.
			routed++
			out.Stale++
			out.Repair = true
			again, lerr := p.reroute(v, target, arc)
			switch {
			case lerr != nil:
				return lerr
			case again.ID == owner.ID:
			case met[again.ID]:
				return nil
			default:
				owner = again
				a, fresh, err = p.answer(bit, owner, metrics)
			}
		}
		met[owner.ID] = true
		if err != nil {
			return err
		}
		// The owner's answer for bit goes to the scan.
		hops := 0 // what the scan remembers costs no exchange
		if fresh != nil {
			probed++
			hops = 1
		}
		out.Visited++
		exhausted = v.Visit(owner.ID, hops, a.at(bit)) && !p.askOn
		return nil
	}
	// Every interval is offered lim attempts and draws lim targets, so the
	// client's stream stays a function of the seed and the intervals scanned.
	// Once a Visit reports the interval exhausted — nothing another owner
	// says of bit can change a statistic, and a resolved vector is final —
	// the attempts left are spent without resolving, probing or visiting
	// anything, as the simulator's walk returns early.
	for i := 0; i < lim; i++ {
		target := p.c.randomTarget(bit)
		if !exhausted && attempt(target) != nil {
			out.Failed++
		}
	}
	p.c.peers.m.scanTargets(lim-routed, routed)
	p.c.peers.m.scanVisits(probed, out.Visited-probed)
	return out
}

// probe asks the node at addr for its vector masks. A reply that does not
// answer the request — another position, run or m, or not one mask of
// ⌈m/8⌉ bytes per position and metric — fails the probe (DecodeProbeRespTo)
// and drops the socket it came on: a peer built with a different m, one
// that answers a run with a single position, or a hostile one, fails here
// instead of indexing out of range in the scan. A scan keeps an owner's
// masks for its whole life, longer than any connection keeps a frame: the
// reply is decoded while the slot is still held, into one buffer of dense
// masks that is the scan's own — the frame's mask bytes copied, a coded
// reply's expanded, a kept mask copied out of the socket's memory —
// one copy per owner, and no frame or memory bytes are kept. The request is
// built stateless on the stack and encoded against the socket's memory
// in the slot (appendRequest); a reply without its header is read as
// answering req.
func (c *Client) probe(addr string, req wire.ProbeReq) (resp wire.ProbeResp, err error) {
	var scratch [rpcScratch]byte
	frame, err := wire.AppendProbeReq(scratch[:0], req)
	if err != nil {
		return wire.ProbeResp{}, err
	}
	var forms wire.MaskForms
	err = c.peers.exchange(addr, frame, func(reply []byte, mem *wire.Memory) (err error) {
		if err = replyErr(reply); err == nil {
			resp, err = wire.DecodeProbeRespTo(req, reply, mem, &forms)
		}
		return err
	})
	c.peers.m.probeMasks(&forms)
	return resp, err
}

// maskReply is one probe reply as a core.Reply: masks[i] answers
// metrics[i], in the wire's byte-per-eight-vectors layout.
type maskReply struct {
	metrics []uint64
	masks   [][]byte
}

func (r *maskReply) AppendVectors(dst []uint64, metric uint64) []uint64 {
	dst = dst[:0]
	for i, m := range r.metrics {
		if m != metric {
			continue
		}
		// Vector v is bit v%8 of byte v/8: the bytes are the bitset's
		// words in little-endian order.
		mask := r.masks[i]
		for ; len(mask) >= 8; mask = mask[8:] {
			dst = append(dst, binary.LittleEndian.Uint64(mask))
		}
		if len(mask) > 0 {
			var tail [8]byte
			copy(tail[:], mask)
			dst = append(dst, binary.LittleEndian.Uint64(tail[:]))
		}
		break
	}
	return dst
}

// Ping checks that the entry node answers.
func (c *Client) Ping() error { return c.peers.ping(c.cfg.Entry) }
