package netdht

import (
	"dhsketch/internal/dht"
	"dhsketch/internal/metrics"
	"dhsketch/internal/store"
	"dhsketch/internal/wire"
)

// This file threads the wall-clock metrics registry (internal/metrics)
// through both sides of the wire: the server's dispatch loop and the
// outbound peer pool. The instrument structs are built from the registry
// whether or not there is one, as store.Runtime is: with metrics off
// every instrument in them is nil, and a nil instrument's own receiver
// check is the only cost an event pays — no allocation either way (the
// regression tests in internal/metrics and internal/store pin this).

// ---------------------------------------------------------------------
// Label vocabularies. Instruments are pre-registered per label value at
// construction, indexed by small slots, so hot paths never touch the
// registry map or build label slices.

// Tag slots partition the RPC tag space the same way dispatch does:
// the four control tags, the three data-plane tags (a routed store is an
// insert at every hop that carries it), and a catch-all for malformed or
// unknown frames.
const (
	slotFindSucc = iota
	slotNeighbors
	slotNotify
	slotPing
	slotInsert
	slotBulkInsert
	slotProbe
	slotOther
	numTagSlots
)

var tagSlotNames = [numTagSlots]string{
	"find_succ", "neighbors", "notify", "ping",
	"insert", "bulk_insert", "probe", "other",
}

func tagSlot(tag byte) int {
	switch tag {
	case tagFindSucc:
		return slotFindSucc
	case tagNeighbors:
		return slotNeighbors
	case tagNotify:
		return slotNotify
	case tagPing:
		return slotPing
	case wire.TagInsert, tagStore, tagStoreKept: // a tuple on its way to a store (a bare frame is refused, and counted)
		return slotInsert
	case wire.TagBulkInsert:
		return slotBulkInsert
	case wire.TagProbeReq, wire.TagProbeReqKept:
		return slotProbe
	default:
		return slotOther
	}
}

// reqSlot classifies a framed request (or reply) by its tag byte.
func reqSlot(frame []byte) int {
	if len(frame) < 2 {
		return slotOther
	}
	return tagSlot(frame[1])
}

// outErrLabel is the netdht_out_errors_total label of a transport failure
// of class c, in mapNetErr's terms: a deadline is a timeout, a refused
// connection is the crash-stop signature, and everything else (resets, EOF
// mid-reply, closed pools) is "other".
func outErrLabel(c dht.Class) string {
	switch c {
	case dht.ClassTimeout:
		return "timeout"
	case dht.ClassDown:
		return "refused"
	}
	return "other"
}

// roundSlotNames labels the maintenance-round instruments: a round's
// slot is the index of its chord.RoundSet bit.
var roundSlotNames = [...]string{"stabilize", "fix_fingers", "check_pred"}

// ---------------------------------------------------------------------
// Server-side instruments

// srvMetrics holds the inbound (dispatch) and maintenance-round
// instruments plus the store runtime counters.
type srvMetrics struct {
	reqTotal   [numTagSlots]*metrics.Counter
	reqErrors  [numTagSlots]*metrics.Counter
	reqSeconds [numTagSlots]*metrics.Histogram
	bytesIn    *metrics.Counter
	bytesOut   *metrics.Counter
	frameIn    *metrics.Histogram
	frameOut   *metrics.Histogram

	roundSeconds [len(roundSlotNames)]*metrics.Histogram
	roundChanges [len(roundSlotNames)]*metrics.Counter

	storeRT store.Runtime
}

func newSrvMetrics(reg *metrics.Registry) srvMetrics {
	m := srvMetrics{
		bytesIn:  reg.Counter("netdht_server_bytes_total", "bytes moved by the RPC server", metrics.L("dir", "in")),
		bytesOut: reg.Counter("netdht_server_bytes_total", "bytes moved by the RPC server", metrics.L("dir", "out")),
		frameIn:  reg.Histogram("netdht_server_frame_bytes", "frame sizes seen by the RPC server", metrics.DefSizeBuckets, metrics.L("dir", "in")),
		frameOut: reg.Histogram("netdht_server_frame_bytes", "frame sizes seen by the RPC server", metrics.DefSizeBuckets, metrics.L("dir", "out")),
		storeRT: store.Runtime{
			Sets:    reg.Counter("dhs_store_sets_total", "tuple inserts and refreshes"),
			Probes:  reg.Counter("dhs_store_probe_reads_total", "store probe reads"),
			Sweeps:  reg.Counter("dhs_store_sweeps_total", "expiry-heap sweep passes"),
			Expired: reg.Counter("dhs_store_expired_total", "tuples deleted by TTL expiry"),
		},
	}
	for i, name := range tagSlotNames {
		l := metrics.L("tag", name)
		m.reqTotal[i] = reg.Counter("netdht_rpc_requests_total", "RPC requests dispatched by the server", l)
		m.reqErrors[i] = reg.Counter("netdht_rpc_errors_total", "RPC requests answered with a typed error", l)
		m.reqSeconds[i] = reg.Histogram("netdht_rpc_seconds", "server-side RPC handling latency", metrics.DefLatencyBuckets, l)
	}
	for i, name := range roundSlotNames {
		l := metrics.L("round", name)
		m.roundSeconds[i] = reg.Histogram("netdht_round_seconds", "maintenance round duration", metrics.DefLatencyBuckets, l)
		m.roundChanges[i] = reg.Counter("netdht_round_changes_total", "protocol state changes made by maintenance rounds", l)
	}
	return m
}

// startRequest meters an inbound frame and begins its latency timer.
func (m *srvMetrics) startRequest(req []byte) (int, metrics.Timer) {
	slot := reqSlot(req)
	m.reqTotal[slot].Inc()
	m.bytesIn.Add(uint64(len(req)))
	m.frameIn.Observe(float64(len(req)))
	return slot, m.reqSeconds[slot].Start()
}

// finishRequest stops the timer and meters the reply frame.
func (m *srvMetrics) finishRequest(slot int, resp []byte, tm metrics.Timer) {
	tm.Stop()
	m.bytesOut.Add(uint64(len(resp)))
	m.frameOut.Observe(float64(len(resp)))
	if len(resp) >= 2 && resp[1] == tagErr {
		m.reqErrors[slot].Inc()
	}
}

// finishRound stops the timer and meters the round's state changes.
func (m *srvMetrics) finishRound(slot int, tm metrics.Timer, changes int) {
	tm.Stop()
	if changes > 0 {
		m.roundChanges[slot].Add(uint64(changes))
	}
}

// ---------------------------------------------------------------------
// Client-side (peer pool) instruments

// poolMetrics holds the outbound instruments: per-tag latency and
// error histograms for exchanges, failure-class counters following the
// mapNetErr taxonomy, and dial/redial/retry counters.
type poolMetrics struct {
	rpcTotal   [numTagSlots]*metrics.Counter
	rpcErrors  [numTagSlots]*metrics.Counter
	rpcSeconds [numTagSlots]*metrics.Histogram
	outErrors  [dht.ClassOther + 1]*metrics.Counter // by dht.Class, labelled outErrLabel

	dials      *metrics.Counter
	dialErrors *metrics.Counter
	redials    *metrics.Counter
	retries    *metrics.Counter

	// The counting scan's interval targets: those that cost a lookup, and
	// those that cost none — resolved by the view, or drawn after the
	// interval was exhausted and never resolved.
	targetsByMap, targetsByLookup *metrics.Counter
	// Its (interval, owner) visits, by where the owner's answer came from.
	visitsByWire, visitsByMemo *metrics.Counter
	// The client's stores, by who chose the node they were first sent to.
	storesByView, storesByEntry *metrics.Counter
	// masksByForm counts the masks of accepted probe replies by the form
	// each travelled in (wire.FormNames).
	masksByForm [len(wire.MaskForms{})]*metrics.Counter
	// storeFrames counts routed-store frames by direction — the requests
	// sent, the acks accepted — and form: whole, or kept (appendFindSucc).
	storeFrames [2][2]*metrics.Counter

	bytesOut *metrics.Counter
	bytesIn  *metrics.Counter
	frameOut *metrics.Histogram
	frameIn  *metrics.Histogram
}

func newPoolMetrics(reg *metrics.Registry) poolMetrics {
	m := poolMetrics{
		dials:      reg.Counter("netdht_dials_total", "outbound TCP dial attempts"),
		dialErrors: reg.Counter("netdht_dial_errors_total", "outbound TCP dials that failed"),
		redials:    reg.Counter("netdht_redials_total", "redials after a failed exchange on a socket an earlier exchange left cached"),
		retries:    reg.Counter("netdht_retries_total", "backoff retries: stores re-sent at a fresh target and joins run again"),
		bytesOut:   reg.Counter("netdht_out_bytes_total", "bytes moved by outbound exchanges", metrics.L("dir", "out")),
		bytesIn:    reg.Counter("netdht_out_bytes_total", "bytes moved by outbound exchanges", metrics.L("dir", "in")),
		frameOut:   reg.Histogram("netdht_out_frame_bytes", "frame sizes of outbound exchanges", metrics.DefSizeBuckets, metrics.L("dir", "out")),
		frameIn:    reg.Histogram("netdht_out_frame_bytes", "frame sizes of outbound exchanges", metrics.DefSizeBuckets, metrics.L("dir", "in")),
	}
	for i, name := range tagSlotNames {
		l := metrics.L("tag", name)
		m.rpcTotal[i] = reg.Counter("netdht_out_rpc_total", "outbound RPC exchanges", l)
		m.rpcErrors[i] = reg.Counter("netdht_out_rpc_errors_total", "outbound RPC exchanges that failed in transport", l)
		m.rpcSeconds[i] = reg.Histogram("netdht_out_rpc_seconds", "outbound RPC round-trip latency", metrics.DefLatencyBuckets, l)
	}
	for c := range m.outErrors {
		m.outErrors[c] = reg.Counter("netdht_out_errors_total", "outbound transport failures by errno class", metrics.L("class", outErrLabel(dht.Class(c))))
	}
	m.targetsByMap = reg.Counter("netdht_scan_targets_total", "counting-scan interval targets by what finding the owner cost: a lookup, or none (the view held it, or the interval had its answer)", metrics.L("resolved", "map"))
	m.targetsByLookup = reg.Counter("netdht_scan_targets_total", "counting-scan interval targets by what finding the owner cost: a lookup, or none (the view held it, or the interval had its answer)", metrics.L("resolved", "lookup"))
	m.visitsByWire = reg.Counter("netdht_scan_visits_total", "counting-scan owner visits by where the answer came from", metrics.L("served", "wire"))
	m.visitsByMemo = reg.Counter("netdht_scan_visits_total", "counting-scan owner visits by where the answer came from", metrics.L("served", "memo"))
	m.storesByView = reg.Counter("netdht_store_first_hop_total", "client stores by what chose their first hop", metrics.L("via", "view"))
	m.storesByEntry = reg.Counter("netdht_store_first_hop_total", "client stores by what chose their first hop", metrics.L("via", "entry"))
	for i, name := range wire.FormNames {
		m.masksByForm[i] = reg.Counter("netdht_probe_masks_total", "probe-reply masks by the form they travelled in", metrics.L("form", name))
	}
	for dir, dirName := range []string{"out", "in"} {
		for kept, form := range []string{"full", "kept"} {
			m.storeFrames[dir][kept] = reg.Counter("netdht_store_frames_total", "routed-store frames by direction (out: requests sent, in: acks accepted) and form",
				metrics.L("dir", dirName), metrics.L("form", form))
		}
	}
	return m
}

// startRPC meters one outbound exchange of a request tagged tag and begins
// its timer.
func (m *poolMetrics) startRPC(tag byte) (int, metrics.Timer) {
	slot := tagSlot(tag)
	m.rpcTotal[slot].Inc()
	return slot, m.rpcSeconds[slot].Start()
}

// sent meters the request frame an exchange wrote last — beginFrame's
// prefix and the payload, as it went on the socket, kept or not — by its
// bytes, its size and, for a routed store, its form. An exchange that wrote
// nothing leaves frame empty and is not metered.
func (m *poolMetrics) sent(frame []byte) {
	if len(frame) <= 4 {
		return
	}
	m.bytesOut.Add(uint64(len(frame) - 4))
	m.frameOut.Observe(float64(len(frame) - 4))
	if len(frame) > 5 {
		switch frame[5] {
		case tagStore:
			m.storeFrames[0][0].Inc()
		case tagStoreKept:
			m.storeFrames[0][1].Inc()
		}
	}
}

// storeAck meters one accepted store ack by its form.
func (m *poolMetrics) storeAck(reply []byte) {
	if reply[1] == tagStoreAckKept {
		m.storeFrames[1][1].Inc()
	} else {
		m.storeFrames[1][0].Inc()
	}
}

// finishRPC stops the timer and meters the outcome: reply bytes on
// success, per-tag and per-class failure counts on transport error.
func (m *poolMetrics) finishRPC(slot, replyLen int, err error, tm metrics.Timer) {
	tm.Stop()
	if err != nil {
		m.rpcErrors[slot].Inc()
		m.outErrors[dht.ClassOf(err)].Inc()
		return
	}
	m.bytesIn.Add(uint64(replyLen))
	m.frameIn.Observe(float64(replyLen))
}

// dialAttempt meters one TCP dial. Errno classes are metered once per
// failed exchange (finishRPC), not here, so a failed dial inside an
// exchange is not double-counted.
func (m *poolMetrics) dialAttempt(err error) {
	m.dials.Inc()
	if err != nil {
		m.dialErrors.Inc()
	}
}

// scanTargets meters one interval's targets of a counting scan.
func (m *poolMetrics) scanTargets(byMap, byLookup int) {
	m.targetsByMap.Add(uint64(byMap))
	m.targetsByLookup.Add(uint64(byLookup))
}

// scanVisits meters one interval's answered visits: those a probe
// exchange served and those the scan's remembered answers did.
func (m *poolMetrics) scanVisits(byWire, byMemo int) {
	m.visitsByWire.Add(uint64(byWire))
	m.visitsByMemo.Add(uint64(byMemo))
}

// probeMasks meters one probe reply's masks by form.
func (m *poolMetrics) probeMasks(forms *wire.MaskForms) {
	for i, n := range forms {
		m.masksByForm[i].Add(n)
	}
}

// storeFirstHop meters one client store: sent first to the owner the view
// remembers, or to the entry.
func (m *poolMetrics) storeFirstHop(byView bool) {
	if byView {
		m.storesByView.Inc()
	} else {
		m.storesByEntry.Inc()
	}
}

// ---------------------------------------------------------------------
// Registry wiring

// registerGauges publishes the server's scrape-time gauges against reg.
// Called once from NewServer; a nil registry registers nothing.
func (s *Server) registerGauges(reg *metrics.Registry) {
	reg.GaugeFunc("netdht_successors", "entries in the believed successor list",
		func() float64 {
			return float64(len(s.Protocol().Neighbors().Succ))
		})
	reg.GaugeFunc("netdht_peer_conns", "cached outbound peer connections",
		func() float64 { return float64(s.peers.size()) })
	reg.GaugeFunc("netdht_maintenance_ticks", "wall-clock maintenance ticks elapsed",
		func() float64 { return float64(s.tick.Load()) })
	reg.GaugeFunc("netdht_ring_linked", "1 once the node has linked into a ring (joined or notified)",
		func() float64 {
			if s.linked.Load() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("dhs_store_tuples", "live tuples in the node's store",
		func() float64 {
			if st, ok := s.App().(*store.Store); ok {
				return float64(st.Len(s.nowFn()))
			}
			return 0
		})
	reg.GaugeFunc("dhs_store_bytes", "approximate bytes held by the node's store",
		func() float64 {
			if st, ok := s.App().(*store.Store); ok {
				return float64(st.Bytes(s.nowFn()))
			}
			return 0
		})
	// The dht load counters (paper constraint 3) exposed for scraping.
	// They are monotonic but typed gauge: the authoritative counter API
	// is dht.Counters, this is a read-only mirror.
	reg.GaugeFunc("dhs_node_load", "dht load counters (routed/probed/store_ops)",
		func() float64 { return float64(s.Counters().Snapshot().Routed) }, metrics.L("op", "routed"))
	reg.GaugeFunc("dhs_node_load", "dht load counters (routed/probed/store_ops)",
		func() float64 { return float64(s.Counters().Snapshot().Probed) }, metrics.L("op", "probed"))
	reg.GaugeFunc("dhs_node_load", "dht load counters (routed/probed/store_ops)",
		func() float64 { return float64(s.Counters().Snapshot().StoreOps) }, metrics.L("op", "store_ops"))
}

// size reports the number of open outbound sockets (scrape gauge).
// Lock-free: a scrape never queues behind an in-flight exchange.
func (p *peerPool) size() int {
	return int(p.live.Load())
}
