// members.go is what surrounds the protocol in an in-process ring and
// is the same whichever transport the nodes speak or whichever policy
// repairs them: the ground-truth membership oracle the dht.Overlay
// contract defines as zero-cost, the converged seed, the convergence
// tracker, and the DueAt sweep loop. StabilizingRing and netdht.Cluster
// embed a Membership; Ring holds one as its oracle and repairs its
// machines from it.
package chord

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"

	"dhsketch/internal/dht"
	"dhsketch/internal/md4"
)

// Member is a ring member a Membership can host: a dht.Node that runs
// the protocol.
type Member interface {
	dht.Node
	Protocol() *Machine
}

// convergence tracks whether protocol rounds still have work: the ring
// is converged when the latest stabilize sweep changed nothing and a
// full finger cycle of fix-fingers sweeps has been clean. From then on
// sweeps are provably no-ops and are skipped until the next disturbance.
type convergence struct {
	lastStep  int64 // rounds due in (lastStep, now] run on the next step
	stabClean bool
	streak    int // consecutive clean fix-fingers sweeps
	converged bool
}

func (c *convergence) disturb() { *c = convergence{lastStep: c.lastStep} }

// advance runs every round due in (lastStep, now] through sweep, which
// performs one round on every node and returns how much it changed.
func (c *convergence) advance(now int64, cfg ProtocolConfig, sweep func(t int64, round RoundSet) int) {
	start := c.lastStep + 1
	c.lastStep = now
	for t := start; t <= now && !c.converged; t++ {
		due := cfg.DueAt(t)
		if due.Has(RoundStabilize) {
			c.stabClean = sweep(t, RoundStabilize) == 0
		}
		if due.Has(RoundFixFingers) {
			if sweep(t, RoundFixFingers) == 0 {
				c.streak++
			} else {
				c.streak = 0
			}
		}
		if due.Has(RoundCheckPred) && sweep(t, RoundCheckPred) > 0 {
			c.stabClean = false
		}
		c.converged = c.stabClean && c.streak >= fingerCycle
	}
}

// Membership is the set of nodes of one in-process ring. Its exported
// methods are the oracle half of dht.Overlay (plus SuccessorList and
// Converged) and are safe for concurrent use; routing never
// consults it.
type Membership[N interface {
	comparable
	Member
}] struct {
	cfg ProtocolConfig

	// rngMu serializes RandomNode draws (concurrent counting surface).
	rngMu sync.Mutex
	rng   *rand.Rand

	mu   sync.RWMutex
	live []N // alive nodes in ID order: the ground truth
	all  map[uint64]N
	// epoch counts removals, so a detached step can tell that the
	// membership moved under it.
	epoch int
	conv  convergence
}

// NewMembership returns an empty, converged membership whose rounds are
// due from tick now on. rng feeds RandomNode.
func NewMembership[N interface {
	comparable
	Member
}](cfg ProtocolConfig, rng *rand.Rand, now int64) *Membership[N] {
	cfg = cfg.withDefaults()
	return &Membership[N]{
		cfg: cfg,
		rng: rng,
		all: make(map[uint64]N),
		conv: convergence{
			lastStep: now, stabClean: true, streak: fingerCycle, converged: true,
		},
	}
}

// NewID hashes name into a ring identifier no member holds yet,
// re-hashing on collision — the derivation every ring flavor shares, so
// equal names give equal ID populations.
func (m *Membership[N]) NewID(name string) uint64 {
	label := name
	id := md4.Sum64([]byte(label))
	for _, taken := m.all[id]; taken; _, taken = m.all[id] {
		label += "'"
		id = md4.Sum64([]byte(label))
	}
	return id
}

// Add splices n into the membership. It does not lock: call it while
// constructing the ring, or holding the write lock.
func (m *Membership[N]) Add(n N) {
	m.all[n.ID()] = n
	idx := sort.Search(len(m.live), func(i int) bool { return m.live[i].ID() >= n.ID() })
	var zero N
	m.live = append(m.live, zero)
	copy(m.live[idx+1:], m.live[idx:])
	m.live[idx] = n
}

// SeedConverged installs on every member the protocol state that agrees
// with the membership — the fixed point a long-running ring reaches
// between churn events. Call it while constructing the ring, or holding
// the write lock.
func (m *Membership[N]) SeedConverged() {
	for i := range m.live {
		m.seedAt(i)
	}
}

// seedAt installs the converged state on the live member at index i,
// taken modulo the ring size. Caller holds the write lock or is
// constructing the ring.
func (m *Membership[N]) seedAt(i int) {
	size := len(m.live)
	i = (i%size + size) % size
	n := m.live[i]
	var pred Ref
	if size > 1 {
		pred = m.live[(i-1+size)%size].Protocol().Self()
	}
	listLen := min(m.cfg.SuccListLen, size-1)
	succ := make([]Ref, 0, listLen)
	for j := 1; j <= listLen; j++ {
		succ = append(succ, m.live[(i+j)%size].Protocol().Self())
	}
	var fingers [fingerBits]Ref
	for b := range fingers {
		fingers[b] = m.live[m.ownerIndex(n.ID()+uint64(1)<<uint(b))].Protocol().Self()
	}
	n.Protocol().Seed(pred, succ, fingers)
}

// ownerIndex returns the index in live of the clockwise successor of
// key. Caller holds mu.
func (m *Membership[N]) ownerIndex(key uint64) int {
	idx := sort.Search(len(m.live), func(i int) bool { return m.live[i].ID() >= key })
	if idx == len(m.live) {
		return 0
	}
	return idx
}

// Admit splices a late joiner into the ground truth — Remove's
// counterpart, for a ring whose members link themselves in over a
// transport: the protocol state of the others learns of n through the
// rounds the disturbed tracker now runs. One joiner at a time: NewID reads
// the membership unlocked.
func (m *Membership[N]) Admit(n N) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Add(n)
	m.epoch++
	m.conv.disturb()
}

// Remove takes n out of the ground truth, running kill — whatever makes
// the node stop answering — under the write lock. Other nodes' tables
// still name it until protocol rounds discover the death.
func (m *Membership[N]) Remove(n N, kill func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	kill()
	idx := sort.Search(len(m.live), func(i int) bool { return m.live[i].ID() >= n.ID() })
	if idx < len(m.live) && m.live[idx] == n {
		m.live = append(m.live[:idx], m.live[idx+1:]...)
	}
	m.epoch++
	m.conv.disturb()
}

// StepDetached runs every round due up to now with no lock held while
// sweep — whose rounds are real RPCs — runs: it snapshots the live set
// and the tracker, sweeps, and writes the tracker back unless a Remove
// intervened, in which case the stale result is dropped and the ring
// stabilizes on a later step. Callers serialize their step drivers.
func (m *Membership[N]) StepDetached(now int64, sweep func(live []N, round RoundSet) int) {
	m.mu.Lock()
	conv, epoch := m.conv, m.epoch
	m.conv.lastStep = now
	if conv.converged {
		m.mu.Unlock()
		return
	}
	live := append([]N(nil), m.live...)
	m.mu.Unlock()

	conv.advance(now, m.cfg, func(_ int64, round RoundSet) int { return sweep(live, round) })

	m.mu.Lock()
	if m.epoch == epoch {
		m.conv = conv
	}
	m.mu.Unlock()
}

// Live returns the live members in ID order.
func (m *Membership[N]) Live() []N {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]N(nil), m.live...)
}

// ByID resolves an identifier to the member, live or crashed, holding it.
func (m *Membership[N]) ByID(id uint64) (N, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n, ok := m.all[id]
	return n, ok
}

// Config returns the (defaulted) protocol configuration.
func (m *Membership[N]) Config() ProtocolConfig { return m.cfg }

// Size returns the number of live nodes.
func (m *Membership[N]) Size() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.live)
}

// Converged reports whether the protocol state is quiescent (see
// dht.Overlay).
func (m *Membership[N]) Converged() bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.conv.converged
}

// Nodes returns the live nodes in ID order (ground truth).
func (m *Membership[N]) Nodes() []dht.Node {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]dht.Node, len(m.live))
	for i, n := range m.live {
		out[i] = n
	}
	return out
}

// RandomNode returns a uniformly chosen live node.
func (m *Membership[N]) RandomNode() dht.Node {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.draw()
}

// draw is RandomNode's draw. Caller holds mu, or orders every membership
// change against it as Ring does.
func (m *Membership[N]) draw() dht.Node {
	if len(m.live) == 0 {
		return nil
	}
	m.rngMu.Lock()
	idx := m.rng.IntN(len(m.live))
	m.rngMu.Unlock()
	return m.live[idx]
}

// Owner returns the live node responsible for key at zero cost — the
// membership oracle, not a routed operation.
func (m *Membership[N]) Owner(key uint64) (dht.Node, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if len(m.live) == 0 {
		return nil, dht.ErrNoRoute
	}
	return m.live[m.ownerIndex(key)], nil
}

// member asserts n is one of this ring's nodes.
func (m *Membership[N]) member(n dht.Node) (N, error) {
	mn, ok := n.(N)
	if !ok {
		return mn, fmt.Errorf("chord: foreign node type %T", n)
	}
	return mn, nil
}

// Successor returns the node's believed successor — the head of its
// successor list — or dht.ErrNodeDown when that head is dead and not
// yet repaired; callers then fall back through SuccessorList. A dead
// node's successor is resolved against the oracle.
func (m *Membership[N]) Successor(n dht.Node) (dht.Node, error) {
	mn, err := m.member(n)
	if err != nil {
		return nil, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	if len(m.live) == 0 {
		return nil, dht.ErrNoRoute
	}
	if !mn.Alive() {
		return m.live[m.ownerIndex(mn.ID()+1)], nil
	}
	succ, ok := mn.Protocol().Successor()
	if !ok {
		if len(m.live) == 1 {
			return mn, nil
		}
		return nil, dht.ErrNoRoute
	}
	if head, ok := m.all[succ.ID]; ok && head.Alive() {
		return head, nil
	}
	return nil, dht.ErrNodeDown
}

// Predecessor returns the live node immediately preceding n, resolved
// against the oracle.
func (m *Membership[N]) Predecessor(n dht.Node) (dht.Node, error) {
	mn, err := m.member(n)
	if err != nil {
		return nil, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	if len(m.live) == 0 {
		return nil, dht.ErrNoRoute
	}
	idx := sort.Search(len(m.live), func(i int) bool { return m.live[i].ID() >= mn.ID() }) - 1
	if idx < 0 {
		idx = len(m.live) - 1
	}
	return m.live[idx], nil
}

// SuccessorList returns n's believed successors in ring order, possibly
// including dead entries (see dht.Overlay) — the node's local
// state, read at zero cost.
func (m *Membership[N]) SuccessorList(n dht.Node) []dht.Node {
	mn, err := m.member(n)
	if err != nil {
		return nil
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	refs := mn.Protocol().Neighbors().Succ
	out := make([]dht.Node, 0, len(refs))
	for _, r := range refs {
		if s, ok := m.all[r.ID]; ok {
			out = append(out, s)
		}
	}
	return out
}
