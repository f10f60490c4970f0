// Package baseline implements the four families of distributed counting
// solutions the paper's related-work section contrasts DHS with (§1):
//
//  1. one-node-per-counter protocols — a single DHT node keeps the value;
//  2. gossip-based protocols — push-sum averaging (Kempe et al.);
//  3. broadcast/convergecast protocols — a spanning tree collects partial
//     aggregates (Astrolabe/SDIMS-style), optionally merging hash
//     sketches for duplicate insensitivity;
//  4. sampling-based protocols — probe a random subset of nodes and
//     extrapolate.
//
// The ablation experiment E11 scores all of them, and DHS, against the
// paper's six constraints: efficiency, scalability, load balance,
// accuracy, simplicity, and duplicate (in)sensitivity.
package baseline

import (
	"math/rand/v2"

	"dhsketch/internal/chord"
	"dhsketch/internal/dht"
	"dhsketch/internal/md4"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
)

// Scenario fixes the counting problem: a set of items placed on overlay
// nodes, possibly with several copies of the same item on different nodes
// (the duplicate-counting challenge of P2P file sharing and sensor
// networks).
type Scenario struct {
	ring *chord.Ring
	env  *sim.Env
	rng  *rand.Rand

	local    map[dht.Node][]uint64 // items held per node (with duplicates)
	distinct map[uint64]struct{}
	copies   int
}

// NewScenario wraps a ring for baseline experiments.
func NewScenario(ring *chord.Ring) *Scenario {
	return &Scenario{
		ring:     ring,
		env:      ring.Env(),
		rng:      ring.Env().Derive("baseline"),
		local:    make(map[dht.Node][]uint64),
		distinct: make(map[uint64]struct{}),
	}
}

// Place distributes the items over the nodes, storing `copies` replicas
// of each item on distinct random nodes.
func (s *Scenario) Place(items []uint64, copies int) {
	if copies < 1 {
		copies = 1
	}
	nodes := s.ring.Nodes()
	for _, it := range items {
		s.distinct[it] = struct{}{}
		seen := make(map[int]struct{}, copies)
		for len(seen) < copies && len(seen) < len(nodes) {
			i := s.rng.IntN(len(nodes))
			if _, dup := seen[i]; dup {
				continue
			}
			seen[i] = struct{}{}
			s.local[nodes[i]] = append(s.local[nodes[i]], it)
		}
	}
	s.copies += copies
}

// TrueDistinct returns the number of distinct items placed.
func (s *Scenario) TrueDistinct() int { return len(s.distinct) }

// ForEach visits every node holding items, in ring order, with its local
// item copies. Other counting schemes (e.g. DHS itself in the comparison
// experiments) use it to run on the same placement.
func (s *Scenario) ForEach(f func(n dht.Node, items []uint64)) {
	for _, node := range s.ring.Nodes() {
		if items := s.local[node]; len(items) > 0 {
			f(node, items)
		}
	}
}

// TotalCopies returns the number of item copies across all nodes.
func (s *Scenario) TotalCopies() int {
	total := 0
	for _, items := range s.local {
		total += len(items)
	}
	return total
}

// Result reports a baseline protocol's outcome alongside its cost and the
// load it induced.
type Result struct {
	// Estimate is the protocol's answer.
	Estimate float64
	// DuplicateInsensitive reports whether the protocol counted distinct
	// items (true) or item copies (false).
	DuplicateInsensitive bool
	// Cost is the protocol's network cost.
	Cost sim.Traffic
	// MaxNodeLoad is the highest number of protocol messages any single
	// node handled — the load-balance score (a centralized scheme
	// approaches Cost.Messages).
	MaxNodeLoad int64
}

// ---------------------------------------------------------------------
// 1. One-node-per-counter.

// SingleNodeCounter maintains the count at the DHT node owning the
// counter's key. Updates and queries all route to that node: simple and
// exact (it can deduplicate by remembering item identifiers), but the
// counter node absorbs the entire access and storage load and becomes the
// availability bottleneck — the paper's constraints 2 and 3 violations.
type SingleNodeCounter struct {
	s       *Scenario
	home    dht.Node
	itemSet map[uint64]struct{}
	copies  int64
	load    map[dht.Node]int64
}

// NewSingleNodeCounter places the counter for the named metric.
func NewSingleNodeCounter(s *Scenario, name string) (*SingleNodeCounter, error) {
	home, err := s.ring.Owner(md4.Sum64([]byte("counter|" + name)))
	if err != nil {
		return nil, err
	}
	return &SingleNodeCounter{
		s:       s,
		home:    home,
		itemSet: make(map[uint64]struct{}),
		load:    make(map[dht.Node]int64),
	}, nil
}

// Build sends every node's items to the counter node, one update message
// per item.
func (c *SingleNodeCounter) Build() (Result, error) {
	before := c.s.env.Traffic.Snapshot()
	for node, items := range c.s.local {
		for _, it := range items {
			rt, err := c.s.ring.RouteFrom(node, c.home.ID())
			if err != nil {
				return Result{}, err
			}
			c.s.env.Traffic.Account(rt.Hops, 16)
			c.itemSet[it] = struct{}{}
			c.copies++
			c.load[c.home]++
		}
	}
	return Result{
		Estimate:             float64(len(c.itemSet)),
		DuplicateInsensitive: true, // at the cost of storing every item ID centrally
		Cost:                 c.s.env.Traffic.Snapshot().Sub(before),
		MaxNodeLoad:          c.load[c.home],
	}, nil
}

// Query reads the counter from a random node.
func (c *SingleNodeCounter) Query() (Result, error) {
	before := c.s.env.Traffic.Snapshot()
	src := c.s.ring.RandomNode()
	rt, err := c.s.ring.RouteFrom(src, c.home.ID())
	if err != nil {
		return Result{}, err
	}
	c.s.env.Traffic.Account(rt.Hops, 16)
	c.load[c.home]++
	return Result{
		Estimate:             float64(len(c.itemSet)),
		DuplicateInsensitive: true,
		Cost:                 c.s.env.Traffic.Snapshot().Sub(before),
		MaxNodeLoad:          c.load[c.home],
	}, nil
}

// ---------------------------------------------------------------------
// 2. Gossip (push-sum).

// PushSum runs the push-sum protocol of Kempe, Dobra & Gehrke for the
// given number of rounds and returns the initiator's estimate of the
// total number of item copies. Every node holds (sum, weight); each round
// it keeps half and pushes half to a uniformly random node. The protocol
// converges to the true sum exponentially in rounds but is duplicate-
// sensitive and costs N messages per round — the "multi-round property"
// the paper faults gossip for (constraint 1).
func PushSum(s *Scenario, rounds int) Result {
	before := s.env.Traffic.Snapshot()
	nodes := s.ring.Nodes()
	n := len(nodes)
	sums := make(map[dht.Node]float64, n)
	weights := make(map[dht.Node]float64, n)
	for _, node := range nodes {
		sums[node] = float64(len(s.local[node]))
	}
	initiator := nodes[s.rng.IntN(n)]
	weights[initiator] = 1

	recv := make(map[dht.Node]int64, n)
	for r := 0; r < rounds; r++ {
		nextS := make(map[dht.Node]float64, n)
		nextW := make(map[dht.Node]float64, n)
		for _, node := range nodes {
			hs, hw := sums[node]/2, weights[node]/2
			peer := nodes[s.rng.IntN(n)]
			nextS[node] += hs
			nextW[node] += hw
			nextS[peer] += hs
			nextW[peer] += hw
			recv[peer]++
			// Gossip messages travel node-to-node directly (peers keep
			// addresses from prior exchanges); account one hop.
			s.env.Traffic.Account(1, 24)
		}
		sums, weights = nextS, nextW
	}

	var est float64
	if weights[initiator] > 0 {
		est = sums[initiator] / weights[initiator]
	}
	var maxLoad int64
	for _, c := range recv {
		if c > maxLoad {
			maxLoad = c
		}
	}
	return Result{
		Estimate:             est,
		DuplicateInsensitive: false,
		Cost:                 s.env.Traffic.Snapshot().Sub(before),
		MaxNodeLoad:          maxLoad,
	}
}

// ---------------------------------------------------------------------
// 3. Broadcast/convergecast.

// Convergecast floods a query down a spanning tree rooted at a random
// node and aggregates partial results back up (the Astrolabe/SDIMS
// pattern). With useSketches it merges per-node super-LogLog sketches,
// making the count duplicate-insensitive — the approach of the
// sketch-based convergecast systems the paper cites ([3,4,8]) — otherwise
// it sums raw local counts. Either way every query touches all N nodes.
func Convergecast(s *Scenario, useSketches bool, m int, w uint) (Result, error) {
	before := s.env.Traffic.Snapshot()
	nodes := s.ring.Nodes()
	n := len(nodes)
	rootIdx := s.rng.IntN(n)

	load := make([]int64, n)
	payload := 8
	var agg sketch.Estimator
	if useSketches {
		var err error
		agg, err = sketch.New(sketch.KindSuperLogLog, m, w)
		if err != nil {
			return Result{}, err
		}
		payload = 11 + m // serialized rank bytes + header
	}

	// Binary spanning tree over the live-node array rooted at rootIdx:
	// each tree edge is one direct overlay link (the broadcast uses
	// finger pointers), so both phases cost N-1 messages each.
	var sum float64
	var walk func(idx int)
	order := make([]int, n)
	for i := range order {
		order[i] = (rootIdx + i) % n
	}
	walk = func(idx int) {
		node := nodes[order[idx]]
		if useSketches {
			for _, it := range s.local[node] {
				agg.Add(it)
			}
		} else {
			sum += float64(len(s.local[node]))
		}
		for _, child := range []int{2*idx + 1, 2*idx + 2} {
			if child < n {
				// Query down, partial result up.
				s.env.Traffic.Account(1, 16)
				s.env.Traffic.Account(1, payload)
				load[order[idx]] += 2
				load[order[child]] += 2
				walk(child)
			}
		}
	}
	walk(0)

	est := sum
	if useSketches {
		est = agg.Estimate()
	}
	var maxLoad int64
	for _, l := range load {
		if l > maxLoad {
			maxLoad = l
		}
	}
	return Result{
		Estimate:             est,
		DuplicateInsensitive: useSketches,
		Cost:                 s.env.Traffic.Snapshot().Sub(before),
		MaxNodeLoad:          maxLoad,
	}, nil
}

// ---------------------------------------------------------------------
// 4. Sampling.

// Sampling probes sampleSize distinct random nodes for their local item
// counts and extrapolates to the full network: cheap, but duplicate-
// sensitive and with error governed by the variance of the per-node
// load — the accuracy problem the paper cites ([7]).
func Sampling(s *Scenario, sampleSize int) Result {
	before := s.env.Traffic.Snapshot()
	nodes := s.ring.Nodes()
	n := len(nodes)
	if sampleSize > n {
		sampleSize = n
	}
	src := nodes[s.rng.IntN(n)]
	perm := s.rng.Perm(n)
	var sampled float64
	var maxLoad int64
	for _, i := range perm[:sampleSize] {
		rt, err := s.ring.RouteFrom(src, nodes[i].ID())
		if err != nil {
			continue
		}
		s.env.Traffic.Account(rt.Hops, 16)
		s.env.Traffic.Account(rt.Hops, 16)
		sampled += float64(len(s.local[nodes[i]]))
		maxLoad++
	}
	return Result{
		Estimate:             sampled * float64(n) / float64(sampleSize),
		DuplicateInsensitive: false,
		Cost:                 s.env.Traffic.Snapshot().Sub(before),
		// Each probed node answers once, but the querier issues and
		// collects every probe, so it bears the peak load.
		MaxNodeLoad: maxLoad,
	}
}
