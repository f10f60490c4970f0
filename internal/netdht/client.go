package netdht

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"time"

	"dhsketch/internal/chord"
	"dhsketch/internal/core"
	"dhsketch/internal/dht"
	"dhsketch/internal/metrics"
	"dhsketch/internal/sketch"
	"dhsketch/internal/wire"
)

// ClientConfig shapes a Client. The sketch-geometry fields (K, M, Kind,
// Lim, TTL) must match what every other writer and reader of the metric
// uses — the networked deployment has no shared core.Config to enforce
// it, so the daemon flags default to the same values core does.
type ClientConfig struct {
	// Entry is the address of any ring member; all routed lookups enter
	// the overlay there.
	Entry string

	// K is the bitmap length k (hash bits per item). Default 24.
	K uint
	// M is the number of bitmap vectors m (power of two). Default 512.
	M int
	// Kind selects the estimator family. The zero value is
	// sketch.KindPCSA, matching core.Config's convention.
	Kind sketch.Kind
	// Lim is the per-interval probe budget of the counting scan.
	// Default 5.
	Lim int
	// TTL is the tuple lifetime in the ring's coarse ticks (0 = no
	// expiry); it narrows through wire.ClampTTL like every producer.
	TTL int64
	// Seed drives the interval-target randomness. A fixed seed and an
	// unchanging ring give one caller a reproducible sequence of lookups
	// and probes; concurrent callers share the stream.
	Seed uint64

	// Retries and Backoff bound per-RPC retry behavior; DialTimeout and
	// RPCTimeout bound the transport. Zero fields take package defaults.
	Retries     int
	Backoff     time.Duration
	DialTimeout time.Duration
	RPCTimeout  time.Duration

	// Metrics, when non-nil, instruments the client's outbound RPC
	// pool (per-tag latency, errno counters, dial/redial/retry counts,
	// open-socket gauge) — the same instruments a Server's outbound
	// side registers. Nil keeps every hook a one-branch no-op.
	Metrics *metrics.Registry
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
	if c.Retries == 0 {
		c.Retries = 3
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

	rngMu sync.Mutex
	rng   *rand.Rand

	// scanFlags go on the counting scan's lookups: flagNeighbors. A test
	// clears it to get a scan whose segment map stays empty.
	scanFlags byte
}

// NewClient validates the configuration and prepares the connection
// pool; no connection is made until the first operation.
func NewClient(cfg ClientConfig) (*Client, error) {
	cfg = cfg.withDefaults()
	if cfg.Entry == "" {
		return nil, fmt.Errorf("netdht: client needs an entry address")
	}
	// The wire's scan range: node identifiers are 64-bit, and the
	// descending scan starts at k − log₂(m) — positions above it can
	// never be set, and probing them costs Lim round trips each.
	geom, err := core.NewGeometry(core.Geometry{
		IDBits: 64, K: cfg.K, M: cfg.M, Kind: cfg.Kind, TrimmedScan: true,
	})
	if err != nil {
		return nil, fmt.Errorf("netdht: %w", err)
	}
	c := &Client{
		cfg:       cfg,
		geom:      geom,
		peers:     newPeerPool(cfg.DialTimeout, cfg.RPCTimeout, DefaultPeerConns),
		rng:       rand.New(rand.NewPCG(cfg.Seed, 0x6a09e667f3bcc908)),
		scanFlags: flagNeighbors,
	}
	if cfg.Metrics != nil {
		c.peers.m = newPoolMetrics(cfg.Metrics)
		cfg.Metrics.GaugeFunc("netdht_peer_conns", "cached outbound peer connections",
			func() float64 { return float64(c.peers.size()) })
	}
	return c, nil
}

// Close releases the client's connections.
func (c *Client) Close() { c.peers.close() }

// randomTarget draws a uniform identifier in bit's interval from the
// client's shared stream.
func (c *Client) randomTarget(bit uint) uint64 {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return c.geom.Target(c.rng, bit)
}

// findSucc routes key through the entry node and returns the terminal
// reply: the owner and, with flagNeighbors, its neighbourhood. The entry
// makes the first routing decision, so the client needs no ring topology.
func (c *Client) findSucc(key uint64, flags byte) (findSuccRespMsg, error) {
	raw, err := c.peers.exchangeRetry(c.cfg.Entry,
		encodeFindSucc(findSuccMsg{flags: flags, key: key}), c.cfg.Retries, c.cfg.Backoff)
	if err != nil {
		return findSuccRespMsg{}, err
	}
	if _, _, _, err := replyErr(raw); err != nil {
		return findSuccRespMsg{}, err
	}
	return decodeFindSuccResp(raw)
}

// store routes key through the entry node with a tuple frame behind the
// request, and returns the ack of the node the route ended at, which
// stored it. Any other reply — a node that routed the key and says nothing
// of the tuple — is an error: an unapplied store is never read as an ack.
func (c *Client) store(key uint64, frame []byte) (storeAckMsg, error) {
	raw, err := c.peers.exchangeRetry(c.cfg.Entry,
		encodeFindSucc(findSuccMsg{key: key, store: frame}), c.cfg.Retries, c.cfg.Backoff)
	if err != nil {
		return storeAckMsg{}, err
	}
	if _, _, _, err := replyErr(raw); err != nil {
		return storeAckMsg{}, err
	}
	return decodeStoreAck(raw)
}

// Insert records one item occurrence under metric: split the item's key
// into (vector, bit) and send the tuple, in one routed exchange, to the
// owner of a uniform target in the bit's interval (§3.2's one-lookup
// insertion over the wire). The ring places the tuple when it arrives,
// so the client keeps no owner and sends no second request; a refresh is
// idempotent, so a hop that retries after a lost ack does no harm.
func (c *Client) Insert(metric, itemID uint64) error {
	vector, bit := c.geom.Split(itemID)
	_, err := c.store(c.randomTarget(bit), wire.EncodeInsert(wire.Insert{
		Metric: metric,
		Vector: uint16(vector),
		Bit:    uint8(bit),
		TTL:    wire.ClampTTL(c.cfg.TTL),
	}))
	if err != nil {
		return fmt.Errorf("netdht: insert lookup via %s: %w", c.cfg.Entry, err)
	}
	return nil
}

// CountResult is one counting pass's outcome with its failure
// accounting — the networked analogue of core.Estimate's Quality. The
// JSON field names are an API surface: `dhsnode count -json`, the dhsd
// /count response body, and dhsload's CI assertions all marshal this
// struct, and the serving layer's byte-identity contract (DESIGN.md
// §16) is defined over exactly this encoding.
type CountResult struct {
	Estimate float64 `json:"estimate"`
	// ProbesAttempted and ProbesFailed count probe-budget spending,
	// including failed lookups; IntervalsSkipped counts bit positions
	// where no node could be probed at all.
	ProbesAttempted  int `json:"probes_attempted"`
	ProbesFailed     int `json:"probes_failed"`
	IntervalsSkipped int `json:"intervals_skipped"`
	// Degraded reports that the scan lost information — probes failed
	// or whole intervals went unprobed — so the estimate rests on less
	// evidence than a clean pass would gather. The count subcommand
	// surfaces it so operators can tell a healthy estimate from one
	// taken during churn.
	Degraded bool `json:"degraded"`
}

// Count runs the Algorithm-1 counting scan for metric over RPC: core's
// shared scan (descending for the LogLog family, ascending for PCSA)
// driven by the RPC interval prober. Count is safe for concurrent use
// by many goroutines sharing one Client — each call carries its own
// scan state, and the peer pool multiplexes exchanges over
// DefaultPeerConns sockets per peer.
func (c *Client) Count(metric uint64) (CountResult, error) {
	lim := func(int) int { return c.cfg.Lim }
	est := c.geom.Scan(&rpcProber{c: c}, []uint64{metric}, lim)[0]
	return CountResult{
		Estimate:         est.Value,
		ProbesAttempted:  est.Quality.ProbesAttempted,
		ProbesFailed:     est.Quality.ProbesFailed,
		IntervalsSkipped: est.Quality.IntervalsSkipped,
		Degraded:         est.Quality.Degraded,
	}, nil
}

// segmentMap is what one scan has learned of the ring from its lookup
// replies: arcs (lo, owner.ID] of the identifier circle, sorted by owner.
type segmentMap []segment

// segment is one arc; lo == owner.ID is the whole circle, which learn
// never records and only an inherited arc (reroute) reaches.
type segment struct {
	lo    uint64
	owner chord.Ref
}

// covers reports whether id lies on the arc: at 1 … owner.ID−lo from lo,
// less one on both sides so that a zero width wraps to every distance.
func (s segment) covers(id uint64) bool { return id-s.lo-1 <= s.owner.ID-s.lo-1 }

// meets reports whether the arc shares a point with [lo, lo+size): two
// arcs of a circle do when one holds the other's first point.
func (s segment) meets(lo, size uint64) bool { return s.covers(lo) || s.lo+1-lo < size }

func (m segmentMap) search(id uint64) (int, bool) {
	return slices.BinarySearchFunc(m, id, func(s segment, id uint64) int { return cmp.Compare(s.owner.ID, id) })
}

// resolve names the first known node at or after target, and reports
// whether its arc reaches back far enough to cover target.
func (m segmentMap) resolve(target uint64) (owner chord.Ref, covered bool) {
	if len(m) == 0 {
		return chord.Ref{}, false
	}
	i, _ := m.search(target)
	s := m[i%len(m)]
	return s.owner, s.covers(target)
}

// set records owner's arc, replacing what the map said of the node.
func (m *segmentMap) set(lo uint64, owner chord.Ref) {
	i, known := m.search(owner.ID)
	if !known {
		*m = slices.Insert(*m, i, segment{})
	}
	(*m)[i] = segment{lo: lo, owner: owner}
}

// learn adds the arcs one reply's neighbourhood spells out — (pred,
// owner], (owner, s₀], (s₀, s₁], … — a later reply replacing what an
// earlier one said about the same node.
func (m *segmentMap) learn(r findSuccRespMsg) {
	if r.near == nil {
		return
	}
	prev := r.near.Pred
	for _, n := range append([]chord.Ref{r.owner}, r.near.Succ...) {
		// An unknown predecessor leaves the owner's own arc unknown, and a
		// reply that repeats a node spells out no arc.
		if prev.Valid() && prev.ID != n.ID {
			m.set(prev.ID, n)
		}
		prev = n
	}
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
// back and keeps it in a segment map: an interval draws its lim uniform
// targets as ever and routes only those no segment covers. Adjacent bits
// are adjacent identifier ranges, so the map carries over between
// intervals, and so do the owners: the first probe of a node asks for every
// position of the scan its arc still holds, and the intervals that follow
// are answered from what it said — a snapshot as old as the scan's first
// contact with the node. Both die with the scan. Each distinct owner is
// visited once per interval; a target whose owner the interval has already
// met spends budget without a second visit, mirroring the simulator's
// duplicate-visit cost. The visit order is a function of the client's
// random stream and the ring alone.
type rpcProber struct {
	c    *Client
	ring segmentMap
	told map[uint64]answers // by owner ID
	// onVisit, when a test sets it, hears of every answered visit.
	onVisit func(bit uint, owner chord.Ref, viaWire bool)
}

// lookup routes target through the ring and folds the reply into the map.
func (p *rpcProber) lookup(target uint64) (chord.Ref, error) {
	r, err := p.c.findSucc(target, p.c.scanFlags)
	if err != nil {
		return chord.Ref{}, err
	}
	p.ring.learn(r)
	return r.owner, nil
}

// reroute is for a target the map resolved to a node that does not
// answer: forget the node — its arc and what it said — and ask the ring.
// A different owner whose reply does not itself account for target
// inherits the arc, so the dead node is paid for once, not once for every
// interval its arc crosses. The same owner again is learnt again, and
// fails the attempt like any lookup naming a dead node.
func (p *rpcProber) reroute(target uint64, dead chord.Ref) (chord.Ref, error) {
	i, known := p.ring.search(dead.ID)
	var lo uint64
	if known {
		lo = p.ring[i].lo
		p.ring = slices.Delete(p.ring, i, i+1)
	}
	delete(p.told, dead.ID)
	owner, err := p.lookup(target)
	if err != nil || owner.ID == dead.ID || !known {
		return owner, err
	}
	if now, covered := p.ring.resolve(target); !covered || now.ID != owner.ID {
		p.ring.set(lo, owner)
	}
	return owner, nil
}

// run is the request a first probe of owner at bit sends: bit, and with
// it the positions the scan visits next whose intervals meet the owner's
// arc as the map has it, as far as one frame can carry the reply. An
// owner the map does not hold is asked for bit alone.
func (p *rpcProber) run(bit uint, owner chord.Ref, metrics []uint64) wire.ProbeReq {
	g := &p.c.geom
	_, last, step := g.ScanRange()
	end := int(bit)
	if i, known := p.ring.search(owner.ID); known {
		fit := min(math.MaxUint16, (maxFrame-8)/wire.MaskBytes(g.M)) / len(metrics)
		for bits := 2; bits <= fit && end != last; bits++ {
			lo, size := g.Interval(uint(end + step))
			if !p.ring[i].meets(lo, size) {
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
// on. A failure is not kept.
func (p *rpcProber) answer(bit uint, owner chord.Ref, metrics []uint64) (a answers, viaWire bool, err error) {
	if a = p.told[owner.ID]; a.holds(bit) {
		return a, false, nil
	}
	req := p.run(bit, owner, metrics)
	masks, err := p.c.probe(owner.Addr, req)
	if err != nil {
		return answers{}, false, err
	}
	a = answers{low: int(req.Bit), bits: int(req.Span) + 1, metrics: metrics, masks: masks}
	if p.told == nil {
		p.told = make(map[uint64]answers)
	}
	p.told[owner.ID] = a
	return a, true, nil
}

func (p *rpcProber) ProbeInterval(bit uint, lim int, v *core.Visitor) core.IntervalOutcome {
	out := core.IntervalOutcome{Attempted: lim}
	metrics := v.Metrics()
	met := make(map[uint64]bool) // owners the interval has spent an attempt on
	routed, probed := 0, 0
	// visit takes owner's answer for bit to the scan. That a Visit reports
	// the interval exhausted is ignored: every interval spends lim attempts.
	visit := func(owner chord.Ref) error {
		met[owner.ID] = true
		a, viaWire, err := p.answer(bit, owner, metrics)
		if err != nil {
			return err
		}
		if viaWire {
			probed++
		}
		if p.onVisit != nil {
			p.onVisit(bit, owner, viaWire)
		}
		out.Visited++
		v.Visit(a.at(bit))
		return nil
	}
	// attempt spends one of the interval's lim attempts on target's owner.
	attempt := func(target uint64) error {
		owner, viaMap := p.ring.resolve(target)
		if !viaMap {
			routed++
			var err error
			if owner, err = p.lookup(target); err != nil {
				return err
			}
		}
		if met[owner.ID] {
			return nil
		}
		err := visit(owner)
		if err == nil || !viaMap {
			return err
		}
		// The map named a node that does not answer: the attempt goes to
		// the node the ring names instead, unless the interval has met it.
		again, lerr := p.reroute(target, owner)
		switch {
		case lerr != nil:
			return lerr
		case again.ID == owner.ID:
			return err
		case met[again.ID]:
			return nil
		}
		return visit(again)
	}
	for i := 0; i < lim; i++ {
		if attempt(p.c.randomTarget(bit)) != nil {
			out.Failed++
		}
	}
	p.c.peers.m.scanTargets(lim-routed, routed)
	p.c.peers.m.scanVisits(probed, out.Visited-probed)
	return out
}

// probe asks the node at addr for its vector masks and checks the reply
// has the shape the request asked for — the run's length, and for each of
// its positions one mask of ⌈m/8⌉ bytes per metric. A peer built with a
// different m, one that answers a run with a single position, or a
// hostile one, fails the probe here instead of indexing out of range in
// the scan.
func (c *Client) probe(addr string, req wire.ProbeReq) ([][]byte, error) {
	frame, err := wire.EncodeProbeReq(req)
	if err != nil {
		return nil, err
	}
	raw, err := c.peers.exchangeRetry(addr, frame, c.cfg.Retries, c.cfg.Backoff)
	if err != nil {
		return nil, err
	}
	resp, err := wire.DecodeProbeResp(raw)
	if err != nil {
		return nil, err
	}
	if resp.Span != req.Span || len(resp.VecMasks) != (int(req.Span)+1)*len(req.Metrics) {
		return nil, wire.ErrBadMessage
	}
	for _, mask := range resp.VecMasks {
		if len(mask) != wire.MaskBytes(c.geom.M) {
			return nil, wire.ErrBadMessage
		}
	}
	return resp.VecMasks, nil
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
func (c *Client) Ping() error {
	raw, err := c.peers.exchangeRetry(c.cfg.Entry, encodePing(), c.cfg.Retries, c.cfg.Backoff)
	if err != nil {
		return err
	}
	if len(raw) < 2 || raw[1] != tagPong {
		return fmt.Errorf("%w: unexpected ping reply", dht.ErrLost)
	}
	return nil
}
