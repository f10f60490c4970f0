package netdht

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dhsketch/internal/chord"
	"dhsketch/internal/dht"
	"dhsketch/internal/md4"
	"dhsketch/internal/metrics"
	"dhsketch/internal/respond"
	"dhsketch/internal/store"
	"dhsketch/internal/wire"
)

// Options configures one Server.
type Options struct {
	// Name is the label hashed (md4, like every ring flavor) into the
	// node's 64-bit identifier. Empty means the bound listen address —
	// unique per process, which is what a deployment wants.
	Name string

	// Protocol shapes the stabilization rounds; zero fields take the
	// chord package defaults. The tick unit here is maintenance-ticker
	// fires, not sim.Clock ticks.
	Protocol chord.ProtocolConfig

	// Now supplies the coarse tick clock TTL expiry is evaluated
	// against. Nil means the server's own maintenance tick counter —
	// suitable for a daemon; a Cluster passes its sim clock so stores
	// attached by core expire on the same timeline core reads them on.
	Now func() int64

	// Logf receives operational messages (join, crash discovery,
	// shutdown). Nil means silent. Messages arrive as single structured
	// key=value lines ("event=joined successor=... "), one Logf call per
	// line, with a stable field order — grep-able and machine-parseable.
	Logf func(format string, args ...any)

	// Metrics, when non-nil, instruments the server: per-tag RPC
	// latency/error histograms on both sides of the wire, dial/retry and
	// failure-class counters, maintenance-round durations, and store
	// gauges (DESIGN.md §15). Nil means metrics off — the hot paths then
	// pay one nil check per event and zero allocations.
	Metrics *metrics.Registry
}

// Server is one networked ring member: the chord.Node the simulated
// rings are made of — identity, liveness, app slot, load counters and
// the Chord state machine — behind a TCP listener speaking the framed
// wire + control protocol, with the DHS data plane (tuple store, probe
// answering). The overlay surface over a set of Servers is provided by
// Cluster (in-process) or by a remote peer's routing RPCs (cmd/dhsnode).
type Server struct {
	chord.Node
	cfg   chord.ProtocolConfig
	addr  string
	port  respond.Loop // the ring port's connections
	peers *peerPool
	nowFn func() int64
	logf  func(string, ...any)
	m     srvMetrics

	// linked flips once the node has ever been part of a ring larger
	// than itself (Join succeeded, a notify adopted a first successor,
	// or a Cluster seeded peers). /healthz uses it to distinguish a
	// fresh bootstrap ring-of-one (healthy) from a node that lost every
	// successor (partitioned).
	linked atomic.Bool

	// tick is the wall-clock maintenance tick counter — the DueAt
	// domain when StartMaintenance drives the protocol.
	tick atomic.Int64

	// roundMu serializes the node's maintenance rounds, which share one
	// transport, rounds: built once, as an inbound connection's is, and
	// holding the array the last neighbors reply was decoded into.
	roundMu sync.Mutex
	rounds  tcpPeers

	// mu guards the node's protocol state machine and is never held
	// across an RPC.
	mu sync.Mutex

	storeMu sync.Mutex // serializes lazy store creation

	wg       sync.WaitGroup
	quit     chan struct{}
	quitOnce sync.Once
}

// NewServer binds listen and starts serving RPCs. The returned server
// is a ring of one until Join (or a Cluster seeding its state) links
// it to peers.
func NewServer(listen string, opt Options) (*Server, error) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("netdht: listen %s: %w", listen, err)
	}
	return serveOn(ln, opt), nil
}

// serveOn is NewServer on a bound listener.
func serveOn(ln net.Listener, opt Options) *Server {
	addr := ln.Addr().String()
	name := opt.Name
	if name == "" {
		name = addr
	}
	s := &Server{
		cfg:   opt.Protocol.WithDefaults(),
		addr:  addr,
		peers: newPeerPool(DefaultPeerConns, opt.Metrics),
		logf:  opt.Logf,
		m:     newSrvMetrics(opt.Metrics),
		quit:  make(chan struct{}),
	}
	s.rounds.s = s
	s.Init(md4.Sum64([]byte(name)), name, addr, s.cfg, &s.mu)
	if opt.Now != nil {
		s.nowFn = opt.Now
	} else {
		s.nowFn = s.tick.Load
	}
	s.registerGauges(opt.Metrics)
	s.wg.Add(1)
	go s.serve(ln)
	return s
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.addr }

// logKV emits one structured operational log line: "event=<name>"
// followed by the key=value pairs in the order given (stable per call
// site, so a line's fields always appear in the same order). Values
// containing spaces, quotes, or '=' are quoted. Nil logf is silent.
func (s *Server) logKV(event string, kv ...any) {
	if s.logf == nil {
		return
	}
	var b strings.Builder
	b.WriteString("event=")
	b.WriteString(event)
	for i := 0; i+1 < len(kv); i += 2 {
		b.WriteByte(' ')
		fmt.Fprint(&b, kv[i])
		b.WriteByte('=')
		b.WriteString(kvValue(kv[i+1]))
	}
	s.logf("%s", b.String())
}

// kvValue renders one logKV value, quoting it when the bare rendering
// would break key=value tokenization.
func kvValue(v any) string {
	str := fmt.Sprint(v)
	if str == "" || strings.ContainsAny(str, " \t\n\"=") {
		return strconv.Quote(str)
	}
	return str
}

// ensureStore returns the node's tuple store, creating one on first
// use. Concurrent insert RPCs may race here, hence the dedicated lock.
func (s *Server) ensureStore() *store.Store {
	s.storeMu.Lock()
	defer s.storeMu.Unlock()
	if st, ok := s.App().(*store.Store); ok {
		return st
	}
	st := store.New()
	st.Instrument(s.m.storeRT)
	s.SetApp(st)
	return st
}

// ---------------------------------------------------------------------
// Accept loop and dispatch

// serve runs the ring port on the accept loop both HTTP ports share. A
// connection past serverMaxConns is closed unanswered, which its pool
// reads as a failed exchange.
func (s *Server) serve(ln net.Listener) {
	defer s.wg.Done()
	if err := s.port.Serve(ln, serverMaxConns, "", s.handleConn); err != nil {
		s.logKV("accept-failed", "addr", s.addr, "err", err)
	}
}

// Server-side socket deadlines (conndeadline invariant, DESIGN.md §10):
// an inbound connection that sends nothing for serverIdleTimeout is
// reaped — clients tolerate this transparently, because the peer pool
// redials on a failed exchange — and a reply write that cannot drain
// within respond.WriteTimeout abandons the connection rather than parking
// the handler goroutine behind a stalled peer forever. The idle bound and
// the cap on open connections are respond's, which every port holds;
// variables, so a test can shrink them.
var (
	serverIdleTimeout = respond.IdleTimeout
	serverMaxConns    = respond.MaxConns
)

func (s *Server) handleConn(c net.Conn) {
	in := s.newInbound()
	for in.step(c) == nil {
	}
}

// inbound is what one accepted connection owns, and its one goroutine
// alone touches: the buffer requests are read into, the buffer replies are
// built in, and the scratch the handlers decode and route with. A request
// is valid until the next one is read, a reply until the next one is
// started; nothing a handler produces points into either once the reply is
// written — a tuple is stored as a key, a relayed store is copied into the
// outbound slot before it is sent (peerPool.exchange) — so a request leaves
// no garbage behind and no bytes for the next one to find.
type inbound struct {
	s          *Server
	rbuf, wbuf []byte
	route      tcpPeers // handed to the state machine by pointer, per request
	metrics    []uint64 // a probe request's metric list
	words      []uint64 // one (metric, bit) answer out of the store
	tuple      []byte   // a kept store's tuple frame, expanded from the memory
	// mem is what the connection's probes and routed stores have carried,
	// the asking slot's memory at this end: born empty with the connection,
	// gone with it.
	mem wire.Memory
	// end is set by a request the connection must not outlive: a store or a
	// probe it could not decode, after which the two memories may differ.
	end bool
}

func (s *Server) newInbound() *inbound { return &inbound{s: s, route: tcpPeers{s: s}} }

// errRefused ends a connection that carried a store or a probe its server
// could not decode.
var errRefused = errors.New("netdht: undecodable request")

// step serves one request of the connection: read it, answer it, send the
// answer, under the per-request deadlines. An error ends the connection, and
// so does a store or a probe the server refused as undecodable, once its
// answer is sent.
func (in *inbound) step(c net.Conn) (err error) {
	if err = c.SetReadDeadline(time.Now().Add(serverIdleTimeout)); err != nil {
		return err
	}
	if in.rbuf, err = readFrame(c, in.rbuf); err != nil {
		return err
	}
	if err = c.SetWriteDeadline(time.Now().Add(respond.WriteTimeout)); err != nil {
		return err
	}
	err = writeFrame(c, in.dispatch(in.rbuf))
	in.rbuf, in.wbuf, in.tuple = trimFrame(in.rbuf), trimFrame(in.wbuf), trimFrame(in.tuple)
	if err == nil && in.end {
		err = errRefused
	}
	return err
}

// dispatch answers one framed request with the frame to send back, built in
// the connection's write buffer: the reply behind its length prefix. Every
// request gets a reply — the exchange discipline keeps one request/reply
// in flight per connection, so framing never desynchronizes. The metrics
// hooks meter the request per tag (count, bytes, frame size, handling
// latency, and typed-error replies); with metrics off each instrument they
// touch is nil and no-ops on its own receiver.
func (in *inbound) dispatch(req []byte) []byte {
	slot, tm := in.s.m.startRequest(req)
	in.wbuf = in.handleRequest(beginFrame(in.wbuf), req)
	in.s.m.finishRequest(slot, in.wbuf[4:], tm)
	return in.wbuf
}

// handleRequest appends the reply to req to dst, as every handler below
// does.
func (in *inbound) handleRequest(dst, req []byte) []byte {
	s := in.s
	if len(req) < 2 || req[0] != wire.Version {
		return appendErr(dst, dht.ClassOther, 0, 0)
	}
	switch req[1] {
	case tagFindSucc, tagStore, tagStoreKept:
		return in.handleFindSucc(dst, req)
	case tagNeighbors:
		return s.handleNeighbors(dst)
	case tagNotify:
		return s.handleNotify(dst, req)
	case tagPing:
		if !s.Alive() {
			return appendErr(dst, dht.ClassDown, 0, 0)
		}
		return append(dst, pongFrame...)
	case wire.TagProbeReq, wire.TagProbeReqKept:
		return in.handleProbeReq(dst, req)
	default:
		// Among them a bare wire.TagInsert / TagBulkInsert frame: a tuple
		// is stored where a route ends (§3.2), not where a peer dialled.
		return appendErr(dst, dht.ClassOther, 0, 0)
	}
}

// ---------------------------------------------------------------------
// Routing

// handleFindSucc is the recursive routing step: meter the hop that
// reached us and let the state machine answer — itself when this node
// is the delivery target, otherwise whatever routing on from here finds.
// The forwarded peer meters its own Routed increment (flagForwarded),
// so a lookup's hop count equals the Routed increments it caused — the
// dhttest metering invariant — without any shared counter. On
// flagNeighbors the node named owner attaches its neighbourhood. A
// tagStore ends the same way, except that the node the route ends at —
// delivered to, or finding it owns the key — stores the enclosed tuple
// frame before it answers, after Route has returned and so never under
// the machine's lock, and on flagNeighbors names itself and its
// neighbourhood in the ack; every hop before it relays the ack as it came.
// A client that believes this node owns the key sends the store here
// first, unflagged: Route's own (pred, self] check decides whether it does.
// A store and its ack travel against the connection's memory, and a store
// that does not decode ends the connection once it is refused.
func (in *inbound) handleFindSucc(dst, req []byte) []byte {
	s := in.s
	m, tuple, err := decodeFindSuccOn(req, &in.mem, in.tuple)
	in.tuple = tuple
	if err != nil {
		in.end = req[1] != tagFindSucc
		return appendErr(dst, dht.ClassOther, 0, 0)
	}
	if !s.Alive() {
		return appendErr(dst, dht.ClassDown, m.hops, m.stale)
	}
	if m.flags&flagForwarded != 0 {
		s.Counters().AddRouted()
	}
	near := m.flags&flagNeighbors != 0
	// m.store points into the connection's read buffer or, expanded from a
	// kept store, its tuple scratch, and stays good until this request is
	// answered: a relay encodes it into the outbound slot before sending,
	// the storing node keeps a key, not the bytes.
	in.route.near, in.route.store = near, m.store
	f := s.Protocol().HandleFindSucc(&in.route, m.key, int(m.hops), int(m.stale), m.flags&flagDeliver != 0)
	if f.Err != nil {
		return appendErr(dst, dht.ClassOf(f.Err), uint16(f.Hops), uint16(f.Stale))
	}
	// The reply is f, with this node's neighbourhood where it attaches one —
	// built in a copy, because f.Err reaches dht.ClassOf and a neighbourhood
	// stored in f would go to the heap with it.
	reply := f
	if m.store != nil {
		// The machine names this node, and no peer's ack does (a short one
		// names nobody, a long one comes with a neighbourhood): the route
		// ended here.
		if f.Owner.Addr == s.addr && f.Near == nil {
			if c := s.applyStore(m.store); c != dht.ClassNone {
				return appendErr(dst, c, uint16(f.Hops), uint16(f.Stale))
			}
			if near {
				nb := s.Protocol().Neighbors()
				reply.Near = &nb
			}
		}
		return appendStoreAck(dst, reply, &in.mem)
	}
	if near && f.Owner.ID == s.ID() {
		nb := s.Protocol().Neighbors()
		reply.Near = &nb
	}
	return appendFindSuccResp(dst, reply)
}

// tcpPeers is the TCP transport of the Chord protocol: each call is one
// request/reply exchange through the server's peer pool (call), and any
// failed exchange — refused, timed out, undecodable, or answered by a node
// that is shutting down — is how the protocol learns a peer is gone. It is
// handed to the state machine by pointer — an inbound connection's own, set
// per request, or the server's for its rounds — so serving a request or
// running a round boxes nothing. A reply's refs are decoded against the
// server's machine (decodeRef).
type tcpPeers struct {
	s     *Server
	near  bool        // relaying a request with flagNeighbors: forward it set
	store []byte      // relaying a tagStore: the tuple frame to forward with it
	succ  []chord.Ref // the array the last neighbors reply was decoded into
}

// Neighbors decodes the reply's successor list into p's own array, which the
// next call reuses (chord.Peers).
func (p *tcpPeers) Neighbors(to chord.Ref) (chord.Neighbors, error) {
	nb, err := call(p.s.peers, to.Addr, neighborsReqFrame, func(reply []byte) (chord.Neighbors, error) {
		return decodeNeighborsResp(reply, p.succ, p.s.Protocol())
	})
	if err != nil {
		p.s.logKV("successor-unreachable", "successor", to.Addr, "err", err)
		return nb, err
	}
	p.succ = nb.Succ
	return nb, nil
}

func (p *tcpPeers) Notify(to, self chord.Ref) (bool, error) {
	var req [rpcScratch]byte
	return call(p.s.peers, to.Addr, appendNotify(req[:0], self), decodeAck)
}

func (p *tcpPeers) Ping(to chord.Ref) error { return p.s.peers.ping(to.Addr) }

// FindSucc sends one routing step in one exchange; a failed one is a
// candidate that failed (Server.Join retries a joiner's whole attempt).
// An origin contact (hops == 0, a joiner reaching its bootstrap) is not a
// metered hop; a forwarded step carries flagForwarded. A decoded reply is
// terminal: the owner, or a typed downstream routing failure. Two replies
// are a candidate that failed instead: a peer that says it is down
// (dht.ClassDown, or dht.ClassNone, which no failure is), and, to a relayed store,
// any reply but a store ack (peerPool.route).
func (p *tcpPeers) FindSucc(to chord.Ref, key uint64, hops, stale int, deliver bool) (chord.Found, error) {
	m := findSuccMsg{key: key, hops: uint16(hops), stale: uint16(stale), store: p.store}
	if deliver {
		m.flags |= flagDeliver
	}
	if p.near {
		m.flags |= flagNeighbors
	}
	if hops > 0 {
		m.flags |= flagForwarded
	}
	f, err := p.s.peers.route(to.Addr, m, p.s.Protocol())
	if re, ok := err.(remoteErr); ok && re.class != dht.ClassNone && re.class != dht.ClassDown {
		return chord.Found{Hops: int(re.hops), Stale: int(re.stale), Err: re.Unwrap()}, nil
	}
	return f, err
}

// Reseed: a daemon has no oracle. Its predecessor is the one other peer
// it knows — on a small ring the node that will re-close it; with none
// the node is partitioned until someone notifies it.
func (p *tcpPeers) Reseed(_, pred chord.Ref) chord.Ref { return pred }

// ---------------------------------------------------------------------
// Data plane: insert and probe RPCs (the cmd/dhsnode path; in-process
// clusters let core access the store directly, like the simulator). The
// client's inserts reach applyStore as the payload of a routed store
// (handleFindSucc) and no other way: handleRequest refuses a bare insert
// frame.

// applyStore stores the tuple frame a routed store ended here with — one
// tuple or one bit position's batch — and returns the class to refuse it
// with, dht.ClassNone when it is stored. The ack is the routed store's own
// (tagStoreAck).
func (s *Server) applyStore(frame []byte) dht.Class {
	var m wire.BulkInsert
	var err error
	if frame[1] == wire.TagBulkInsert {
		m, err = wire.DecodeBulkInsert(frame)
	} else {
		var t wire.Insert
		t, err = wire.DecodeInsert(frame)
		m = wire.BulkInsert{Metric: t.Metric, Bit: t.Bit, TTL: t.TTL, Vectors: []uint16{t.Vector}}
	}
	if err != nil {
		return dht.ClassOther
	}
	if !s.Alive() {
		return dht.ClassDown
	}
	st := s.ensureStore()
	expiry := store.Expiry(s.nowFn(), int64(m.TTL))
	for _, v := range m.Vectors {
		st.Set(store.Key{Metric: m.Metric, Vector: int32(v), Bit: m.Bit}, expiry)
	}
	s.Counters().AddStoreOps()
	return dht.ClassNone
}

// handleProbeReq answers a probe with the masks of its run, against the
// connection's memory: the request, whole or kept, is decoded and
// recorded there, and the reply is encoded and recorded there. A request that
// does not decode ends the connection once it is refused.
func (in *inbound) handleProbeReq(dst, req []byte) []byte {
	s := in.s
	m, err := wire.DecodeProbeReqOn(in.metrics, req, &in.mem)
	if err != nil {
		in.end = true
		return appendErr(dst, dht.ClassOther, 0, 0)
	}
	in.metrics = m.Metrics
	if !s.Alive() {
		return appendErr(dst, dht.ClassDown, 0, 0)
	}
	s.Counters().AddProbed()
	st, _ := s.App().(*store.Store)
	now := s.nowFn()
	maskLen := wire.MaskBytes(int(m.NumVecs))
	bits := int(m.Span) + 1
	// Span, NumVecs and the metric list are peer-controlled: a 12-byte
	// request claiming 65535 vectors across 65535 metrics would demand
	// ~512 MiB of mask allocations, a run of 256 positions as many times
	// more. Refuse any request whose reply could not fit one frame, or
	// its masks the reply's count field, before allocating for it
	// (wirebounds invariant).
	if bits*len(m.Metrics) > math.MaxUint16 || wire.ProbeRespOverhead+bits*len(m.Metrics)*maskLen > maxFrame {
		return appendErr(dst, dht.ClassOther, 0, 0)
	}
	start := len(dst)
	resp, err := wire.AppendProbeRespHeader(dst, m.Bit, m.Span, m.NumVecs, bits*len(m.Metrics))
	if err != nil {
		return appendErr(dst, dht.ClassOther, 0, 0)
	}
	// Bit-major: every metric's mask for Bit, then Bit+1, … — each the
	// store's own bit words for (metric, bit), copied behind the header.
	for b := 0; b < bits; b++ {
		for _, metric := range m.Metrics {
			in.words = st.AppendBitsWithBit(in.words, metric, m.Bit+uint8(b), now)
			resp = wire.AppendMask(resp, in.words, int(m.NumVecs))
		}
	}
	// The reply ends with the arc this node answers for — from its
	// predecessor, when it knows one, up to itself — so that a client which
	// remembered the node hears of a join or a leave in front of it from the
	// reply it came for (DESIGN.md §14).
	if pred := s.Protocol().Neighbors().Pred; pred.Valid() {
		resp = wire.AppendArc(resp, pred.ID)
	}
	// The dense reply goes out in its shortest form: each mask dense, as the
	// vectors set or as the vectors clear, whichever is fewest bytes, or as
	// one byte when it, or the arc, is what this connection carried last; on a
	// connection that carried a reply before, without the header that restates
	// the request, and as its tag alone when everything in it is kept.
	return wire.ShortenProbeRespOn(resp, start, m.Metrics, &in.mem)
}

// ---------------------------------------------------------------------
// Stabilization protocol: the state machine's rounds, timed and logged

func (s *Server) handleNeighbors(dst []byte) []byte {
	if !s.Alive() {
		return appendErr(dst, dht.ClassDown, 0, 0)
	}
	return appendNeighborsResp(dst, s.Protocol().Self(), s.Protocol().Neighbors())
}

func (s *Server) handleNotify(dst, req []byte) []byte {
	n, err := decodeNotify(req, s.Protocol())
	if err != nil {
		return appendErr(dst, dht.ClassOther, 0, 0)
	}
	if !s.Alive() {
		return appendErr(dst, dht.ClassDown, 0, 0)
	}
	changed := s.Protocol().HandleNotify(n)
	if changed {
		s.markLinked()
	}
	return appendAck(dst, changed)
}

// markLinked latches linked once the node holds a successor.
func (s *Server) markLinked() {
	if _, ok := s.Protocol().Successor(); ok {
		s.linked.Store(true)
	}
}

// round runs one of the state machine's rounds under the round timer,
// whose slot is the round's bit; the daemon ticker (maintenanceTick) and
// Cluster.Step both come through here. A closed server's rounds are
// no-ops. The result is the number of state changes — zero means a
// quiescent neighbourhood.
func (s *Server) round(r chord.RoundSet) (changes int) {
	//dhslint:allow lockrpc(roundMu only orders this node's rounds, which share one transport; no handler, client or oracle read takes it)
	s.roundMu.Lock()
	defer s.roundMu.Unlock()
	slot := bits.TrailingZeros8(uint8(r))
	tm := s.m.roundSeconds[slot].Start()
	if s.Alive() {
		p, node := &s.rounds, s.Protocol()
		switch r {
		case chord.RoundStabilize:
			changes, _ = node.Stabilize(p)
		case chord.RoundFixFingers:
			changes = node.FixFingers(p)
		case chord.RoundCheckPred:
			if pred := node.CheckPredecessor(p); pred.Valid() {
				s.logKV("predecessor-cleared", "predecessor", pred.Addr)
				changes = 1
			}
		}
	}
	s.m.finishRound(slot, tm, changes)
	return changes
}

// maintenanceTick advances the virtual protocol tick and runs whatever
// rounds chord.ProtocolConfig.DueAt schedules there, in bit order — the
// same cadence function the simulated StabilizingRing.Step uses, driven
// here by a wall-clock ticker.
func (s *Server) maintenanceTick() {
	due := s.cfg.DueAt(s.tick.Add(1))
	for r := chord.RoundStabilize; r <= chord.RoundCheckPred; r <<= 1 {
		if due.Has(r) {
			s.round(r)
		}
	}
}

// StartMaintenance launches the wall-clock protocol driver: one
// DueAt tick per period. Stops when the server closes.
func (s *Server) StartMaintenance(period time.Duration) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tk := time.NewTicker(period)
		defer tk.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tk.C:
				s.maintenanceTick()
			}
		}
	}()
}

// joinRetries is how many times Join runs again after a failed attempt,
// each after a linear backoff: daemons started in parallel need not start
// the bootstrap first.
const joinRetries = 3

// Join links this server into the ring reachable at bootstrap (see
// chord.Machine.Join). The rest of the ring learns about us through
// its stabilize rounds. A failed attempt is run again whole, up to
// joinRetries times: with the stale-socket redial, the one request the
// package re-sends unchanged.
func (s *Server) Join(bootstrap string) error {
	var succ chord.Ref
	var err error
	for attempt := 0; attempt <= joinRetries; attempt++ {
		if attempt > 0 {
			s.peers.backoff(attempt)
		}
		if succ, err = s.Protocol().Join(&tcpPeers{s: s}, chord.Ref{Addr: bootstrap}); err == nil {
			break
		}
	}
	if err != nil {
		return fmt.Errorf("netdht: join via %s: %w", bootstrap, err)
	}
	s.linked.Store(true)
	s.logKV("joined", "bootstrap", bootstrap, "successor", succ.Addr)
	return nil
}

// Close shuts the server down: stop maintenance, stop accepting,
// sever every connection, and wait for the handlers to drain. After
// Close the node reports dead and its address refuses connections —
// the crash-stop signature peers discover by timeout.
func (s *Server) Close() {
	s.quitOnce.Do(func() { close(s.quit) })
	s.SetAlive(false)
	s.peers.close()
	s.port.Close()
	s.wg.Wait()
	s.logKV("server-closed", "addr", s.addr)
}

var _ dht.Node = (*Server)(nil)
