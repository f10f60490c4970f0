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
	"dhsketch/internal/metrics"
)

// Default transport timings. Loopback rings in tests override them
// downward; a WAN deployment would raise them.
const (
	defaultDialTimeout = 2 * time.Second
	defaultRPCTimeout  = 5 * time.Second
	defaultBackoff     = 50 * time.Millisecond
)

// DefaultPeerConns is the connection-pool width per peer address: the most
// outbound sockets (and therefore concurrent request/reply exchanges) the
// pool opens toward one peer. What is left to justify more than one is
// concurrency at the caller: a scan is one goroutine and a routing step is
// one exchange, but one dhsd client runs several /count scans at once, every
// scan starts at the same high bit positions, and so they meet at the same
// first owner — with one socket the second scan waits out the first one's
// round trip. A socket beyond the first is dialled only when an exchange
// finds every open one in use (peerEntry.acquire), so a caller that never
// overlaps its exchanges — a dhsnode relaying, a single writer — holds one
// socket per peer whatever the width; the width is a ceiling, a few, far
// below any file-descriptor budget.
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
// request purely by ordering on the stream). The slot owns the two buffers
// its frames are built in and read into; like the socket they are touched
// only under the mutex, and the reply leaves the slot as a copy.
type peerConn struct {
	mu         sync.Mutex
	c          net.Conn
	rbuf, wbuf []byte
}

// peerEntry is one peer address's slot set. Slot count is fixed at the
// pool's width; connections inside slots are dialed lazily and redialed
// on failure, so an idle peer costs no sockets.
type peerEntry struct {
	next  atomic.Uint32 // round-robin cursor for the blocking fallback
	slots []*peerConn
}

// acquire picks a slot and locks it: the first idle slot (TryLock scan
// from slot 0, so sequential exchanges reuse one socket and a second is
// dialled only because the first was in use), otherwise block on the
// cursor's slot, which spreads the waiters over the width. The returned
// slot's mutex is held by the caller through the exchange; it never
// nests inside the pool mutex or any server lock — only exchanges
// beyond the pool width queue behind it. Holding it across the dial and
// the RPC is intentional (the slot *is* the unit of one-in-flight), and
// invisible to the lockrpc analyzer by construction: the lock is taken
// here and the I/O happens in the caller, so the documented contract
// above is the whole story.
func (e *peerEntry) acquire() *peerConn {
	for _, pc := range e.slots {
		if pc.mu.TryLock() {
			return pc
		}
	}
	pc := e.slots[int(e.next.Add(1))%len(e.slots)]
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
	m           poolMetrics

	live atomic.Int64 // open outbound sockets (scrape gauge)

	mu     sync.Mutex
	peers  map[string]*peerEntry
	closed bool
}

func newPeerPool(dialTimeout, rpcTimeout time.Duration, connsPer int, reg *metrics.Registry) *peerPool {
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
		m:           newPoolMetrics(reg),
		peers:       make(map[string]*peerEntry),
	}
}

// get returns a locked connection slot for addr with a live socket,
// dialing if the slot is empty; dialled reports that it did.
func (p *peerPool) get(addr string) (pc *peerConn, dialled bool, err error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, false, fmt.Errorf("%w: peer pool closed", dht.ErrLost)
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

	pc = e.acquire() // held by the caller through the exchange
	if pc.c != nil {
		return pc, false, nil
	}
	if err := p.dial(pc, addr); err != nil {
		pc.mu.Unlock()
		return nil, false, mapNetErr(err)
	}
	return pc, true, nil
}

// dial opens a socket to addr into the empty slot pc. Caller holds pc.mu.
func (p *peerPool) dial(pc *peerConn, addr string) error {
	c, err := net.DialTimeout("tcp", addr, p.dialTimeout)
	p.m.dialAttempt(err)
	if err != nil {
		return err
	}
	p.live.Add(1)
	pc.c = c
	return nil
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

// exchange performs one framed request/reply round trip with addr and
// returns the reply appended to dst[:0] — the caller's memory, or a fresh
// slice when dst has no room for it. The reply is read into the slot's own
// buffer and copied out before the slot is released, so the slot's next
// user never writes under a reader that is still decoding; req is copied
// into the slot too and may live on the caller's stack. A failure on a
// socket an earlier exchange left in the slot is retried once on a fresh
// dial: a stale cached socket (the peer restarted, an idle timeout fired)
// is indistinguishable from a dead peer until a second dial answers. A
// failure on a socket this exchange dialled is final — the caller's one
// spent attempt (DESIGN.md §8). Safe for the idempotent RPC set this
// package speaks. The metrics hooks meter the exchange per tag (count,
// bytes, frame size, round-trip latency) and transport failures by errno
// class; with metrics off each instrument they touch is nil and no-ops on
// its own receiver.
func (p *peerPool) exchange(addr string, req, dst []byte) ([]byte, error) {
	slot, tm := p.m.startRPC(req)
	resp, err := p.doExchange(addr, req, dst)
	p.m.finishRPC(slot, resp, err, tm)
	return resp, err
}

func (p *peerPool) doExchange(addr string, req, dst []byte) ([]byte, error) {
	pc, dialled, err := p.get(addr)
	if err != nil {
		return nil, err
	}
	defer pc.release()

	err = p.roundTrip(pc, req)
	if err != nil && !dialled {
		p.dropConn(pc)
		p.m.redials.Inc()
		if err = p.dial(pc, addr); err == nil {
			err = p.roundTrip(pc, req)
		}
	}
	if err != nil {
		p.dropConn(pc)
		return nil, mapNetErr(err)
	}
	return append(dst[:0], pc.rbuf...), nil
}

// ping is one ping exchange with addr; a reply but a pong is an error.
func (p *peerPool) ping(addr string) error {
	var scratch [rpcScratch]byte
	raw, err := p.exchange(addr, pingFrame, scratch[:0])
	if err == nil && (len(raw) < 2 || raw[1] != tagPong) {
		err = fmt.Errorf("%w: unexpected ping reply", dht.ErrLost)
	}
	return err
}

// release ends the caller's hold on the slot: buffers that grew beyond
// keepFrame for this exchange go, the rest stay for the next.
func (pc *peerConn) release() {
	pc.rbuf, pc.wbuf = trimFrame(pc.rbuf), trimFrame(pc.wbuf)
	pc.mu.Unlock()
}

// roundTrip sends req and reads the reply into pc.rbuf. Caller holds pc.mu.
func (p *peerPool) roundTrip(pc *peerConn, req []byte) error {
	if len(req) > maxFrame {
		return errFrameTooBig // before the slot's buffer grows for it
	}
	if err := pc.c.SetDeadline(time.Now().Add(p.rpcTimeout)); err != nil {
		return err
	}
	pc.wbuf = append(beginFrame(pc.wbuf), req...)
	if err := writeFrame(pc.c, pc.wbuf); err != nil {
		return err
	}
	var err error
	pc.rbuf, err = readFrame(pc.c, pc.rbuf)
	return err
}

// backoff is the one linear backoff of the asking side — before an
// insert's fresh target and a Join's next attempt: it meters a retry and
// sleeps attempt units (defaultBackoff when unit is not positive).
func (p *peerPool) backoff(attempt int, unit time.Duration) {
	if unit <= 0 {
		unit = defaultBackoff
	}
	p.m.retries.Inc()
	time.Sleep(time.Duration(attempt) * unit)
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
