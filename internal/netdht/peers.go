package netdht

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dhsketch/internal/dht"
)

// Default transport timings. Loopback rings in tests override them
// downward; a WAN deployment would raise them.
const (
	defaultDialTimeout = 2 * time.Second
	defaultRPCTimeout  = 5 * time.Second
	defaultBackoff     = 50 * time.Millisecond
)

// DefaultPeerConns is the connection-pool width per peer address: the
// number of outbound sockets (and therefore concurrent request/reply
// exchanges) the pool keeps toward one peer. One connection was the
// original discipline — sufficient for recursive routing, but a hard
// serialization wall for a query frontend whose concurrent counts probe
// the same owners — so the default is a few, far below any
// file-descriptor budget.
const DefaultPeerConns = 4

// mapNetErr folds a transport failure into the dht error taxonomy the
// counting layer dispatches on: a deadline becomes dht.ErrTimeout (the
// request may or may not have been processed), a refused connection
// becomes dht.ErrNodeDown (nobody is listening — the crash-stop
// signature), and everything else — resets, EOF mid-reply, closed
// sockets — becomes dht.ErrLost. The original error stays wrapped for
// diagnostics.
func mapNetErr(err error) error {
	if err == nil {
		return nil
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w: %v", dht.ErrTimeout, err)
	}
	if errors.Is(err, syscall.ECONNREFUSED) {
		return fmt.Errorf("%w: %v", dht.ErrNodeDown, err)
	}
	return fmt.Errorf("%w: %v", dht.ErrLost, err)
}

// peerConn is one cached outbound connection slot; its mutex serializes
// the slot's request/reply exchange — one in flight per *connection*,
// which is what the framed protocol requires (a reply is matched to its
// request purely by ordering on the stream).
type peerConn struct {
	mu sync.Mutex
	c  net.Conn
}

// peerEntry is one peer address's slot set. Slot count is fixed at the
// pool's width; connections inside slots are dialed lazily and redialed
// on failure, so an idle peer costs no sockets.
type peerEntry struct {
	next  atomic.Uint32 // round-robin cursor for the blocking fallback
	slots []*peerConn
}

// acquire picks a slot and locks it: any idle slot first (TryLock scan
// from the cursor), otherwise block on the cursor's slot. The returned
// slot's mutex is held by the caller through the exchange; it never
// nests inside the pool mutex or any server lock — only exchanges
// beyond the pool width queue behind it. Holding it across the dial and
// the RPC is intentional (the slot *is* the unit of one-in-flight), and
// invisible to the lockrpc analyzer by construction: the lock is taken
// here and the I/O happens in the caller, so the documented contract
// above is the whole story.
func (e *peerEntry) acquire() *peerConn {
	n := len(e.slots)
	start := int(e.next.Add(1)) % n
	for i := 0; i < n; i++ {
		pc := e.slots[(start+i)%n]
		if pc.mu.TryLock() {
			return pc
		}
	}
	pc := e.slots[start]
	pc.mu.Lock()
	return pc
}

// peerPool caches up to connsPer outbound connections per peer address,
// with dial and per-exchange read/write deadlines. Outbound connections
// are kept separate from inbound ones (the server's accept loop), so
// two nodes routing through each other concurrently use disjoint
// sockets and cannot deadlock on a shared stream.
type peerPool struct {
	dialTimeout time.Duration
	rpcTimeout  time.Duration
	connsPer    int
	m           *poolMetrics // nil when metrics are off

	live atomic.Int64 // open outbound sockets (scrape gauge)

	mu     sync.Mutex
	peers  map[string]*peerEntry
	closed bool
}

func newPeerPool(dialTimeout, rpcTimeout time.Duration, connsPer int) *peerPool {
	if dialTimeout <= 0 {
		dialTimeout = defaultDialTimeout
	}
	if rpcTimeout <= 0 {
		rpcTimeout = defaultRPCTimeout
	}
	return &peerPool{
		dialTimeout: dialTimeout,
		rpcTimeout:  rpcTimeout,
		connsPer:    connsPer,
		peers:       make(map[string]*peerEntry),
	}
}

// get returns a locked connection slot for addr with a live socket,
// dialing if the slot is empty.
func (p *peerPool) get(addr string) (*peerConn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: peer pool closed", dht.ErrLost)
	}
	e, ok := p.peers[addr]
	if !ok {
		e = &peerEntry{slots: make([]*peerConn, p.connsPer)}
		for i := range e.slots {
			e.slots[i] = &peerConn{}
		}
		p.peers[addr] = e
	}
	p.mu.Unlock()

	pc := e.acquire() // held by the caller through the exchange
	if pc.c == nil {
		c, err := net.DialTimeout("tcp", addr, p.dialTimeout)
		if err != nil {
			pc.mu.Unlock()
			merr := mapNetErr(err)
			p.m.dialAttempt(merr)
			return nil, merr
		}
		p.m.dialAttempt(nil)
		p.live.Add(1)
		pc.c = c
	}
	return pc, nil
}

// dropConn closes and clears a slot's socket. Caller holds pc.mu.
func (p *peerPool) dropConn(pc *peerConn) {
	if pc.c == nil {
		return
	}
	pc.c.Close()
	pc.c = nil
	p.live.Add(-1)
}

// exchange performs one framed request/reply round trip with addr. A
// failure on a connection that predates this call is retried once on a
// fresh dial: a stale cached socket (the peer restarted, an idle
// timeout fired) is indistinguishable from a dead peer until a second
// dial answers. Safe for the idempotent RPC set this package speaks.
// The metrics hooks meter the exchange per tag (count, bytes, frame
// size, round-trip latency) and transport failures by errno class;
// with metrics off they are nil-receiver no-ops.
func (p *peerPool) exchange(addr string, req []byte) ([]byte, error) {
	slot, tm := p.m.startRPC(req)
	resp, err := p.doExchange(addr, req)
	p.m.finishRPC(slot, resp, err, tm)
	return resp, err
}

func (p *peerPool) doExchange(addr string, req []byte) ([]byte, error) {
	pc, err := p.get(addr)
	if err != nil {
		return nil, err
	}
	defer pc.mu.Unlock()

	resp, err := p.roundTrip(pc.c, req)
	if err == nil {
		return resp, nil
	}
	p.dropConn(pc)
	p.m.redialAttempt()
	c, derr := net.DialTimeout("tcp", addr, p.dialTimeout)
	p.m.dialAttempt(derr)
	if derr != nil {
		return nil, mapNetErr(derr)
	}
	p.live.Add(1)
	pc.c = c
	resp, err = p.roundTrip(pc.c, req)
	if err != nil {
		p.dropConn(pc)
		return nil, mapNetErr(err)
	}
	return resp, nil
}

func (p *peerPool) roundTrip(c net.Conn, req []byte) ([]byte, error) {
	if err := c.SetDeadline(time.Now().Add(p.rpcTimeout)); err != nil {
		return nil, err
	}
	if err := writeFrame(c, req); err != nil {
		return nil, err
	}
	return readFrame(c)
}

// exchangeRetry is exchange with bounded linear-backoff retries for the
// client-facing operations (insert, probe, entry-point routing): the
// networked analogue of core's insert retry loop, except real time
// passes instead of virtual clock ticks. Typed errors pass through
// unchanged, so the caller's failure accounting sees the same taxonomy
// the simulator produces.
func (p *peerPool) exchangeRetry(addr string, req []byte, retries int, backoff time.Duration) ([]byte, error) {
	if backoff <= 0 {
		backoff = defaultBackoff
	}
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			p.m.retryAttempt()
			time.Sleep(time.Duration(attempt) * backoff)
		}
		resp, err := p.exchange(addr, req)
		if err == nil {
			return resp, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// close tears down every cached connection. New exchanges fail
// immediately; an in-flight one finishes (or times out on its
// deadline) before its slot is reaped — per-slot locking keeps the
// teardown race-free.
func (p *peerPool) close() {
	p.mu.Lock()
	p.closed = true
	peers := p.peers
	p.peers = make(map[string]*peerEntry)
	p.mu.Unlock()
	for _, e := range peers {
		for _, pc := range e.slots {
			pc.mu.Lock()
			p.dropConn(pc)
			pc.mu.Unlock()
		}
	}
}
