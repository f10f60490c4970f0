package netdht

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
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
	// Seed drives the interval-target randomness. A fixed seed gives a
	// reproducible probe sequence (not byte-reproducible traffic — the
	// network interleaves).
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

// DefaultProbeParallel is how many of an interval's Lim probe attempts
// the counting scan keeps in flight. The attempts are independent
// uniform probes, so running them concurrently changes neither the
// estimate nor the accounting — only the wall-clock latency of a pass.
const DefaultProbeParallel = 4

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
		cfg:   cfg,
		geom:  geom,
		peers: newPeerPool(cfg.DialTimeout, cfg.RPCTimeout, DefaultPeerConns),
		rng:   rand.New(rand.NewPCG(cfg.Seed, 0x6a09e667f3bcc908)),
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

// findOwner routes key through the entry node and returns the owner's
// identity. The entry makes the first routing decision itself, so the
// client never needs the ring topology.
func (c *Client) findOwner(key uint64) (chord.Ref, error) {
	raw, err := c.peers.exchangeRetry(c.cfg.Entry,
		encodeFindSucc(findSuccMsg{key: key}), c.cfg.Retries, c.cfg.Backoff)
	if err != nil {
		return chord.Ref{}, err
	}
	if _, _, _, err := replyErr(raw); err != nil {
		return chord.Ref{}, err
	}
	resp, err := decodeFindSuccResp(raw)
	if err != nil {
		return chord.Ref{}, err
	}
	return resp.owner, nil
}

// ack sends req to addr with retries and verifies the reply is an ack.
func (c *Client) ack(addr string, req []byte) error {
	raw, err := c.peers.exchangeRetry(addr, req, c.cfg.Retries, c.cfg.Backoff)
	if err != nil {
		return err
	}
	if _, _, _, err := replyErr(raw); err != nil {
		return err
	}
	_, err = decodeAck(raw)
	return err
}

// Insert records one item occurrence under metric: split the item's key
// into (vector, bit), route to the owner of a uniform target in the
// bit's interval, and store the tuple there (§3.4 over the wire).
func (c *Client) Insert(metric, itemID uint64) error {
	vector, bit := c.geom.Split(itemID)
	owner, err := c.findOwner(c.randomTarget(bit))
	if err != nil {
		return fmt.Errorf("netdht: insert lookup: %w", err)
	}
	req := wire.EncodeInsert(wire.Insert{
		Metric: metric,
		Vector: uint16(vector),
		Bit:    uint8(bit),
		TTL:    wire.ClampTTL(c.cfg.TTL),
	})
	if err := c.ack(owner.Addr, req); err != nil {
		return fmt.Errorf("netdht: insert at %s: %w", owner.Addr, err)
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
	est := c.geom.Scan(rpcProber{c}, []uint64{metric}, lim)[0]
	return CountResult{
		Estimate:         est.Value,
		ProbesAttempted:  est.Quality.ProbesAttempted,
		ProbesFailed:     est.Quality.ProbesFailed,
		IntervalsSkipped: est.Quality.IntervalsSkipped,
		Degraded:         est.Quality.Degraded,
	}, nil
}

// rpcProber is the wire's core.Prober. Each of an interval's lim
// attempts routes a fresh uniform target through find_succ and probes
// its owner — the RPC surface has no successor walk — with up to
// DefaultProbeParallel attempts in flight. An owner already probed
// within the interval is not probed again but still spends budget,
// mirroring the simulator's duplicate-visit cost.
type rpcProber struct{ c *Client }

func (p rpcProber) ProbeInterval(bit uint, lim int, v *core.Visitor) core.IntervalOutcome {
	out := core.IntervalOutcome{Attempted: lim}
	reply := maskReply{metrics: v.Metrics()}
	req, err := wire.EncodeProbeReq(wire.ProbeReq{
		Bit:     uint8(bit),
		NumVecs: uint16(p.c.geom.M),
		Metrics: reply.metrics,
	})
	if err != nil {
		out.Failed = lim // more metrics than one request can name
		return out
	}

	// mu serializes the accounting, the visited set and every Visit, so
	// the visitor sees one reply at a time. The attempts are already in
	// flight when a Visit reports the interval exhausted, so that hint
	// is not acted on: every interval spends exactly lim attempts.
	var mu sync.Mutex
	visited := make(map[uint64]bool)
	attempt := func() {
		owner, err := p.c.findOwner(p.c.randomTarget(bit))
		var masks [][]byte
		if err == nil {
			mu.Lock()
			seen := visited[owner.ID]
			visited[owner.ID] = true
			mu.Unlock()
			if seen {
				return
			}
			masks, err = p.c.probe(owner.Addr, req, len(reply.metrics))
		}
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			out.Failed++
			return
		}
		out.Visited++
		reply.masks = masks
		v.Visit(&reply)
	}

	var wg sync.WaitGroup
	sem := make(chan struct{}, DefaultProbeParallel)
	for i := 0; i < lim; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			attempt()
		}()
	}
	wg.Wait()
	return out
}

// probe asks the node at addr for its vector masks and checks the reply
// has the shape the request asked for — one mask of ⌈m/8⌉ bytes per
// metric. A peer built with a different m, or a hostile one, fails the
// probe here instead of indexing out of range in the scan.
func (c *Client) probe(addr string, req []byte, metrics int) ([][]byte, error) {
	raw, err := c.peers.exchangeRetry(addr, req, c.cfg.Retries, c.cfg.Backoff)
	if err != nil {
		return nil, err
	}
	resp, err := wire.DecodeProbeResp(raw)
	if err != nil {
		return nil, err
	}
	if len(resp.VecMasks) != metrics {
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
