package netdht

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dhsketch/internal/chord"
	"dhsketch/internal/dht"
	"dhsketch/internal/wire"
)

// Control-plane message tags. The data plane reuses wire.TagInsert /
// TagBulkInsert / TagProbeReq / TagProbeResp (0x01–0x04) verbatim;
// control tags start at 0x10 so the two namespaces can never collide,
// and every control message keeps wire's layout conventions: version
// byte first, tag second, fixed-width big-endian integers. A control frame
// ends where its message does: every decoder refuses bytes behind it. Every
// encoder appends to a buffer the caller names — a connection's write
// buffer, or a few bytes of the caller's stack — and every decoder returns
// values that share nothing with the frame (a ref's address is copied into
// its string), so a decoded message outlives the buffer it arrived in.
const (
	tagFindSucc      = 0x10 // route a key toward its owner
	tagFindSuccResp  = 0x11 // terminal reply: the owner plus route cost
	tagNeighbors     = 0x12 // ask a node for its predecessor + successor list
	tagNeighborsResp = 0x13
	tagNotify        = 0x14 // propose the sender as the receiver's predecessor
	tagAck           = 0x15 // generic success reply (carries one flag byte)
	tagPing          = 0x16 // liveness check
	tagPong          = 0x17
	tagStore         = 0x18 // route a key like tagFindSucc and store the enclosed tuple frame where the route ends
	tagStoreAck      = 0x19 // terminal reply to tagStore: the tuple is stored; route cost and, to a flagged store, the storing node and its neighbourhood
	tagErr           = 0x1F // typed failure reply
)

// findSucc routing flags.
const (
	// flagForwarded marks a request that reached the receiver via a
	// routing hop: the receiver meters one Routed increment, preserving
	// the contract-suite invariant that a lookup's hop count equals the
	// total Routed increments it caused. Absent on the origin's first
	// contact (a client or joiner using the receiver as its entry point,
	// which the simulated rings model as the unmetered origin).
	flagForwarded = 1 << 0
	// flagDeliver marks the receiver as the sender's believed owner of
	// the key: it answers with itself instead of routing further — the
	// networked form of the simulated router returning its successor
	// without another forwarding decision.
	flagDeliver = 1 << 1
	// flagNeighbors asks the node the route ends at to attach its
	// neighbourhood to the reply. Only a client sets it: the counting scan on
	// its lookups, an insert on a store it sends through the entry.
	flagNeighbors = 1 << 2
)

// Typed error codes carried by tagErr, mapping the dht error taxonomy
// across the wire so a remote failure surfaces as the same sentinel a
// simulated one would.
const (
	errnoNoRoute  = 1
	errnoNodeDown = 2
	errnoTimeout  = 3
	errnoLost     = 4
	errnoBad      = 5
)

func errnoOf(err error) byte {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, dht.ErrNoRoute):
		return errnoNoRoute
	case errors.Is(err, dht.ErrNodeDown):
		return errnoNodeDown
	case errors.Is(err, dht.ErrTimeout):
		return errnoTimeout
	case errors.Is(err, dht.ErrLost):
		return errnoLost
	default:
		return errnoBad
	}
}

func errnoErr(code byte) error {
	switch code {
	case errnoNoRoute:
		return dht.ErrNoRoute
	case errnoNodeDown:
		return dht.ErrNodeDown
	case errnoTimeout:
		return dht.ErrTimeout
	case errnoLost:
		return dht.ErrLost
	default:
		return fmt.Errorf("netdht: remote error code %d", code)
	}
}

// appendRef serializes a chord.Ref: id(8) + addr length(2) + addr bytes.
func appendRef(buf []byte, r chord.Ref) []byte {
	buf = binary.BigEndian.AppendUint64(buf, r.ID)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(r.Addr)))
	return append(buf, r.Addr...)
}

// decodeRef parses one chord.Ref and returns the remaining buffer. Every
// ref on the wire names a peer (an unknown predecessor is a flag byte,
// not a ref), so an empty address — the in-memory "no such peer" — is
// malformed: accepted, it would be installed as a successor nobody can
// dial.
func decodeRef(buf []byte) (chord.Ref, []byte, error) {
	if len(buf) < 10 {
		return chord.Ref{}, nil, wire.ErrShort
	}
	id := binary.BigEndian.Uint64(buf)
	n := int(binary.BigEndian.Uint16(buf[8:]))
	if n == 0 {
		return chord.Ref{}, nil, wire.ErrBadMessage
	}
	if len(buf) < 10+n {
		return chord.Ref{}, nil, wire.ErrShort
	}
	return chord.Ref{ID: id, Addr: string(buf[10 : 10+n])}, buf[10+n:], nil
}

// findSuccMsg is one routing step in flight: the key, the flags above,
// and the route cost accumulated so far (hops and stale hops), which
// the eventual owner echoes back in its reply. With store set it is a
// tagStore frame — the paper's one-lookup insertion: the same header with
// a whole tuple frame behind it, set by the inserting client, forwarded
// unchanged by every hop and applied by the node the route ends at.
type findSuccMsg struct {
	flags byte
	key   uint64
	hops  uint16
	stale uint16
	store []byte // nil: a plain tagFindSucc
}

const findSuccHeader = 15

func appendFindSucc(dst []byte, m findSuccMsg) []byte {
	tag := byte(tagFindSucc)
	if m.store != nil {
		tag = tagStore
	}
	dst = append(dst, wire.Version, tag, m.flags)
	dst = binary.BigEndian.AppendUint64(dst, m.key)
	dst = binary.BigEndian.AppendUint16(dst, m.hops)
	dst = binary.BigEndian.AppendUint16(dst, m.stale)
	return append(dst, m.store...)
}

func decodeFindSucc(buf []byte) (findSuccMsg, error) {
	if len(buf) < findSuccHeader {
		return findSuccMsg{}, wire.ErrShort
	}
	if buf[0] != wire.Version || (buf[1] != tagFindSucc && buf[1] != tagStore) {
		return findSuccMsg{}, wire.ErrBadMessage
	}
	m := findSuccMsg{
		flags: buf[2],
		key:   binary.BigEndian.Uint64(buf[3:]),
		hops:  binary.BigEndian.Uint16(buf[11:]),
		stale: binary.BigEndian.Uint16(buf[13:]),
	}
	if buf[1] == tagStore {
		m.store = buf[findSuccHeader:]
		return m, checkTupleFrame(m.store)
	}
	if len(buf) != findSuccHeader {
		return findSuccMsg{}, wire.ErrBadMessage
	}
	return m, nil
}

// insertFrameLen is the one length a wire.TagInsert frame has.
var insertFrameLen = len(wire.AppendInsert(nil, wire.Insert{}))

// checkTupleFrame admits as a routed store's payload exactly one
// data-plane tuple frame and nothing behind it: the storing node hands
// the payload to its insert handlers, so a nested control frame, or bytes
// wire's own decoders would skip, must not get past the first hop.
func checkTupleFrame(p []byte) (err error) {
	if len(p) < 2 {
		return wire.ErrShort
	}
	switch p[1] {
	case wire.TagInsert:
		if _, err = wire.DecodeInsert(p); err == nil && len(p) != insertFrameLen {
			err = wire.ErrBadMessage
		}
	case wire.TagBulkInsert:
		_, err = wire.DecodeBulkInsert(p) // its vector count is the frame's length
	default:
		err = wire.ErrBadMessage
	}
	return err
}

// storeAckMsg answers a tagStore once the tuple is in the store of the
// node the route ended at: what the route cost, relayed back hop by hop.
// Nothing is sent to that node afterwards, so the ack of an unflagged store
// names no owner and is six bytes. When the origin set flagNeighbors — a
// client whose view did not cover the key — the storing node appends its own
// ref and its neighbourhood, the same tag in a long layout, and the client
// learns from it the arcs a flagged find_succ reply would have taught.
type storeAckMsg struct {
	hops, stale uint16
	owner       chord.Ref        // the storing node; zero in the short layout
	near        *chord.Neighbors // nil: the short layout
}

const storeAckLen = 6

func appendStoreAck(dst []byte, m storeAckMsg) []byte {
	dst = append(dst, wire.Version, tagStoreAck)
	dst = binary.BigEndian.AppendUint16(dst, m.hops)
	dst = binary.BigEndian.AppendUint16(dst, m.stale)
	if m.near != nil {
		dst = appendNeighbors(appendRef(dst, m.owner), *m.near)
	}
	return dst
}

// decodeStoreAck accepts the two layouts and nothing between them: six
// bytes, or six bytes, one ref and one whole neighbourhood with nothing
// behind it.
func decodeStoreAck(buf []byte) (storeAckMsg, error) {
	if len(buf) < storeAckLen {
		return storeAckMsg{}, wire.ErrShort
	}
	if buf[0] != wire.Version || buf[1] != tagStoreAck {
		return storeAckMsg{}, wire.ErrBadMessage
	}
	m := storeAckMsg{hops: binary.BigEndian.Uint16(buf[2:]), stale: binary.BigEndian.Uint16(buf[4:])}
	if len(buf) == storeAckLen {
		return m, nil
	}
	owner, rest, err := decodeRef(buf[storeAckLen:])
	if err != nil {
		return storeAckMsg{}, err
	}
	nb, rest, err := decodeNeighbors(rest)
	if err != nil {
		return storeAckMsg{}, err
	}
	if len(rest) != 0 {
		return storeAckMsg{}, wire.ErrBadMessage
	}
	m.owner, m.near = owner, &nb
	return m, nil
}

// appendNeighbors serializes a neighbourhood: predecessor flag(1), the
// predecessor's ref when known, successor count(1), the successors' refs.
func appendNeighbors(buf []byte, nb chord.Neighbors) []byte {
	if nb.Pred.Valid() {
		buf = appendRef(append(buf, 1), nb.Pred)
	} else {
		buf = append(buf, 0)
	}
	buf = append(buf, byte(len(nb.Succ)))
	for _, s := range nb.Succ {
		buf = appendRef(buf, s)
	}
	return buf
}

// decodeNeighbors parses that and returns the remaining buffer; a count
// of more successors than the rest of the frame could hold is refused.
func decodeNeighbors(buf []byte) (nb chord.Neighbors, rest []byte, err error) {
	if len(buf) < 1 {
		return nb, nil, wire.ErrShort
	}
	rest = buf[1:]
	if buf[0] != 0 {
		if nb.Pred, rest, err = decodeRef(rest); err != nil {
			return nb, nil, err
		}
	}
	const minRef = 11 // id(8) + length(2) + a one-byte address
	if len(rest) < 1 || int(rest[0])*minRef > len(rest)-1 {
		return nb, nil, wire.ErrShort
	}
	count := int(rest[0])
	rest = rest[1:]
	for i := 0; i < count; i++ {
		var s chord.Ref
		if s, rest, err = decodeRef(rest); err != nil {
			return nb, nil, err
		}
		nb.Succ = append(nb.Succ, s)
	}
	return nb, rest, nil
}

// findSuccRespMsg is the terminal routing reply — the believed owner,
// the total cost and, when the origin set flagNeighbors, the owner's
// neighbourhood — decoded and re-encoded at each hop on its way back.
type findSuccRespMsg struct {
	hops  uint16
	stale uint16
	owner chord.Ref
	near  *chord.Neighbors // nil: the short, unflagged layout
}

func appendFindSuccResp(dst []byte, m findSuccRespMsg) []byte {
	dst = append(dst, wire.Version, tagFindSuccResp)
	dst = binary.BigEndian.AppendUint16(dst, m.hops)
	dst = binary.BigEndian.AppendUint16(dst, m.stale)
	dst = appendRef(dst, m.owner)
	if m.near != nil {
		dst = appendNeighbors(dst, *m.near)
	}
	return dst
}

func decodeFindSuccResp(buf []byte) (findSuccRespMsg, error) {
	if len(buf) < 6 {
		return findSuccRespMsg{}, wire.ErrShort
	}
	if buf[0] != wire.Version || buf[1] != tagFindSuccResp {
		return findSuccRespMsg{}, wire.ErrBadMessage
	}
	m := findSuccRespMsg{
		hops:  binary.BigEndian.Uint16(buf[2:]),
		stale: binary.BigEndian.Uint16(buf[4:]),
	}
	owner, rest, err := decodeRef(buf[6:])
	m.owner = owner
	if err != nil || len(rest) == 0 {
		return m, err
	}
	nb, rest, err := decodeNeighbors(rest)
	if err == nil && len(rest) != 0 {
		err = wire.ErrBadMessage // nothing may follow the neighbourhood
	}
	m.near = &nb
	return m, err
}

// neighborsRespMsg is a node's protocol-state answer: who it believes
// precedes it and its successor list in ring order — the payload one
// stabilize exchange fetches.
type neighborsRespMsg struct {
	self chord.Ref
	pred chord.Ref // zero when unknown
	succ []chord.Ref
}

// The three messages that are a tag and nothing else. They are only ever
// copied from — into a slot's write buffer as a request, behind a reply's
// length prefix — and never written to.
var (
	neighborsReqFrame = []byte{wire.Version, tagNeighbors}
	pingFrame         = []byte{wire.Version, tagPing}
	pongFrame         = []byte{wire.Version, tagPong}
)

func appendNeighborsResp(dst []byte, m neighborsRespMsg) []byte {
	dst = append(dst, wire.Version, tagNeighborsResp)
	return appendNeighbors(appendRef(dst, m.self), chord.Neighbors{Pred: m.pred, Succ: m.succ})
}

func decodeNeighborsResp(buf []byte) (neighborsRespMsg, error) {
	if len(buf) < 2 {
		return neighborsRespMsg{}, wire.ErrShort
	}
	if buf[0] != wire.Version || buf[1] != tagNeighborsResp {
		return neighborsRespMsg{}, wire.ErrBadMessage
	}
	var m neighborsRespMsg
	var err error
	rest := buf[2:]
	if m.self, rest, err = decodeRef(rest); err != nil {
		return m, err
	}
	nb, rest, err := decodeNeighbors(rest)
	if err == nil && len(rest) != 0 {
		err = wire.ErrBadMessage
	}
	m.pred, m.succ = nb.Pred, nb.Succ
	return m, err
}

func appendNotify(dst []byte, self chord.Ref) []byte {
	return appendRef(append(dst, wire.Version, tagNotify), self)
}

func decodeNotify(buf []byte) (chord.Ref, error) {
	if len(buf) < 2 {
		return chord.Ref{}, wire.ErrShort
	}
	if buf[0] != wire.Version || buf[1] != tagNotify {
		return chord.Ref{}, wire.ErrBadMessage
	}
	r, rest, err := decodeRef(buf[2:])
	if err == nil && len(rest) != 0 {
		return chord.Ref{}, wire.ErrBadMessage
	}
	return r, err
}

// appendAck's changed flag reports whether the request mutated the
// receiver's protocol state — the stabilizing caller folds it into its
// own change accounting, which drives convergence detection.
func appendAck(dst []byte, changed bool) []byte {
	b := byte(0)
	if changed {
		b = 1
	}
	return append(dst, wire.Version, tagAck, b)
}

func decodeAck(buf []byte) (changed bool, err error) {
	if len(buf) < 3 {
		return false, wire.ErrShort
	}
	if buf[0] != wire.Version || buf[1] != tagAck || len(buf) != 3 {
		return false, wire.ErrBadMessage
	}
	return buf[2] != 0, nil
}

// appendErr carries a typed failure back to the requester, with the
// partial route cost so the caller can meter dropped traffic exactly
// like the simulated rings do.
func appendErr(dst []byte, code byte, hops, stale uint16) []byte {
	dst = append(dst, wire.Version, tagErr, code)
	dst = binary.BigEndian.AppendUint16(dst, hops)
	return binary.BigEndian.AppendUint16(dst, stale)
}

func decodeErr(buf []byte) (code byte, hops, stale uint16, err error) {
	if len(buf) < 7 {
		return 0, 0, 0, wire.ErrShort
	}
	if buf[0] != wire.Version || buf[1] != tagErr || len(buf) != 7 {
		return 0, 0, 0, wire.ErrBadMessage
	}
	return buf[2], binary.BigEndian.Uint16(buf[3:]), binary.BigEndian.Uint16(buf[5:]), nil
}

// replyErr splits a typed failure out of a reply frame. err is nil when
// raw is any other frame; otherwise it is the dht-taxonomy error of the
// code the peer sent, returned with the partial route cost, or the decode
// error of a malformed frame (code 0 — no errno is zero).
func replyErr(raw []byte) (code byte, hops, stale uint16, err error) {
	if len(raw) < 2 || raw[1] != tagErr {
		return 0, 0, 0, nil
	}
	code, hops, stale, err = decodeErr(raw)
	if err != nil {
		return 0, 0, 0, err
	}
	return code, hops, stale, errnoErr(code)
}
