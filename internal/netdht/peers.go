package netdht

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dhsketch/internal/chord"
	"dhsketch/internal/dht"
	"dhsketch/internal/metrics"
	"dhsketch/internal/wire"
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
// its frames are built in and read into, and the socket's memory
// (wire.Memory, DESIGN.md §14 "Socket memory"), born empty with it and
// dropped with it (dropConn); like the socket they are touched only under the
// mutex, a request is encoded there and a reply decoded there, never kept.
type peerConn struct {
	mu         sync.Mutex
	c          net.Conn
	rbuf, wbuf []byte
	mem        wire.Memory
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

// dropConn closes and clears a slot's socket, and the socket's memory goes
// with it. Caller holds pc.mu.
func (p *peerPool) dropConn(pc *peerConn) {
	if pc.c == nil {
		return
	}
	pc.c.Close()
	pc.c = nil
	pc.mem = wire.Memory{}
	p.live.Add(-1)
}

// exchange performs one framed request/reply round trip with addr and hands
// the reply to read where it arrived: in the slot's own buffer, once, after
// a successful round trip and before the slot is released, with the
// socket's memory beside it. read must not keep either — the slot's next
// user reads into the same buffer. read's error is the exchange's, and
// unless it is a typed failure the peer replied with (remoteErr) it refuses
// the reply, and the socket goes with it: the one rule for every RPC, so
// that a socket whose replies the asker stopped following — and whose two
// memories may no longer agree — never carries another. One typed failure
// drops the socket too: errnoBad, a request the peer could not read, after
// which a peer that could not read a store ends its own end. req is the
// request as the stateless encoders build it, and may live on the caller's
// stack; it is encoded into the slot against the socket's memory
// (appendRequest). A failure on a socket an earlier exchange left in the slot
// is retried once on a fresh dial: a stale cached socket (the peer restarted,
// an idle timeout fired) is indistinguishable from a dead peer until a second
// dial answers, and the new socket's memory is empty, so the re-send is
// stateless. A failure on a socket this exchange dialled is final — the caller's one
// spent attempt (DESIGN.md §8). Safe for the idempotent RPC set this
// package speaks. The metrics hooks meter the exchange per tag (count,
// bytes as they went on the socket, frame size, round-trip latency) and
// transport failures by errno class — a refused reply is an exchange that
// moved its bytes; with metrics off each instrument they touch is nil and
// no-ops on its own receiver.
func (p *peerPool) exchange(addr string, req []byte, read func(reply []byte, mem *wire.Memory) error) error {
	slot, tm := p.m.startRPC(req)
	n, err, refused := p.doExchange(addr, req, read)
	p.m.finishRPC(slot, n, err, tm)
	if err != nil {
		return err
	}
	return refused
}

func (p *peerPool) doExchange(addr string, req []byte, read func([]byte, *wire.Memory) error) (n int, err, refused error) {
	pc, dialled, err := p.get(addr)
	if err != nil {
		return 0, err, nil
	}
	defer pc.release()

	pc.wbuf = pc.wbuf[:0] // what the exchange writes, and nothing an earlier one did, is metered
	err = p.roundTrip(pc, req)
	if err != nil && !dialled {
		p.dropConn(pc)
		p.m.redials.Inc()
		if err = p.dial(pc, addr); err == nil {
			err = p.roundTrip(pc, req)
		}
	}
	p.m.sent(pc.wbuf)
	if err != nil {
		p.dropConn(pc)
		return 0, mapNetErr(err), nil
	}
	n = len(pc.rbuf)
	if refused = read(pc.rbuf, &pc.mem); refused != nil {
		if re, typed := refused.(remoteErr); !typed || re.code == errnoBad {
			p.dropConn(pc)
		}
	}
	return n, nil, refused
}

// call is how this package asks a peer anything but a probe (Client.probe)
// or a routed store (peerPool.route): one exchange with addr, then the one
// reply rule — a typed failure reads as its dht sentinel (replyErr), on
// every RPC alike — and any other reply decoded while it is still in the
// slot, or refused. Every reply decoder returns values that share nothing
// with the frame (msg.go), so nothing a caller keeps points into the slot;
// with an error, v is the zero T, as the decoders return it.
func call[T any](p *peerPool, addr string, req []byte, decode func([]byte) (T, error)) (v T, err error) {
	err = p.exchange(addr, req, func(reply []byte, _ *wire.Memory) (err error) {
		if err = replyErr(reply); err == nil {
			v, err = decode(reply)
		}
		return err
	})
	return v, err
}

// rpcScratch is the stack room a caller gives a request it builds: every
// fixed-size request and a ref or two fit; a longer one spills to the heap.
const rpcScratch = 96

// route sends the routed request — a find_succ, or with m.store set the
// routed store — to addr, and returns its terminal reply: a find_succ
// reply, or to a store the store ack and nothing else, so that a node that
// routed the key and says nothing of the tuple is never read as having
// stored it. Client lookups and stores, and every relayed hop, go out here.
// A store and its ack travel against the socket's memory. The reply's refs
// are decoded against known, the asking node's machine, or nil (decodeRef).
func (p *peerPool) route(addr string, m findSuccMsg, known *chord.Machine) (f chord.Found, err error) {
	var req [rpcScratch]byte
	frame := appendFindSucc(req[:0], m, nil)
	if m.store == nil {
		return call(p, addr, frame, func(reply []byte) (chord.Found, error) { return decodeFindSuccResp(reply, known) })
	}
	err = p.exchange(addr, frame, func(reply []byte, mem *wire.Memory) (err error) {
		if err = replyErr(reply); err == nil {
			if f, err = decodeStoreAckOn(reply, mem, known); err == nil {
				p.m.storeAck(reply)
			}
		}
		return err
	})
	return f, err
}

// ping is one ping exchange with addr; a reply but a pong is an error.
func (p *peerPool) ping(addr string) error {
	_, err := call(p, addr, pingFrame, decodePong)
	return err
}

// release ends the caller's hold on the slot: buffers that grew beyond
// keepFrame for this exchange go, the rest stay for the next.
func (pc *peerConn) release() {
	pc.rbuf, pc.wbuf = trimFrame(pc.rbuf), trimFrame(pc.wbuf)
	pc.mu.Unlock()
}

// roundTrip sends req, encoded against the socket's memory, and reads the
// reply into pc.rbuf. Caller holds pc.mu.
func (p *peerPool) roundTrip(pc *peerConn, req []byte) error {
	if len(req) > maxFrame {
		return errFrameTooBig // before the slot's buffer grows for it
	}
	if err := pc.c.SetDeadline(time.Now().Add(p.rpcTimeout)); err != nil {
		return err
	}
	pc.wbuf = appendRequest(beginFrame(pc.wbuf), req, &pc.mem)
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
