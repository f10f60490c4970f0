package netdht

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"dhsketch/internal/chord"
	"dhsketch/internal/dht"
	"dhsketch/internal/wire"
)

// Control-plane message tags. The data plane reuses wire's tags (0x01–0x08)
// verbatim; control tags start at 0x10 so the two namespaces can never
// collide, and every control message keeps wire's layout conventions: version
// byte first, tag second, fixed-width big-endian integers. A control frame
// ends where its message does: every decoder refuses bytes behind it. Every
// encoder appends to a buffer the caller names — a connection's write
// buffer, or a few bytes of the caller's stack — and every decoder returns
// values that share nothing with the frame (a ref's address is a string the
// decoding node already holds, or a copy of the bytes), so a decoded message
// outlives the buffer it arrived in.
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
	tagStoreKept     = 0x1A // a tagStore that sends only what differs from the connection's last store (appendStore)
	tagStoreAckKept  = 0x1B // a short tagStoreAck equal to the connection's last store ack: the tag alone
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
// dial. A ref the decoding node's machine, known, holds at the same address
// is that ref, string and all (chord.Machine.Known): a converged node hears
// of no one new, and so decodes its rounds without allocating. known may be
// nil, and a client's is.
func decodeRef(buf []byte, known *chord.Machine) (chord.Ref, []byte, error) {
	id, addr, rest, err := readRef(buf)
	if err != nil {
		return chord.Ref{}, nil, err
	}
	return refOf(id, addr, known), rest, nil
}

// readRef splits one ref off buf: its identifier, its address bytes, which
// are never empty, and the rest of the buffer.
func readRef(buf []byte) (id uint64, addr, rest []byte, err error) {
	if len(buf) < 10 {
		return 0, nil, nil, wire.ErrShort
	}
	id = binary.BigEndian.Uint64(buf)
	n := int(binary.BigEndian.Uint16(buf[8:]))
	if n == 0 {
		return 0, nil, nil, wire.ErrBadMessage
	}
	if len(buf) < 10+n {
		return 0, nil, nil, wire.ErrShort
	}
	return id, buf[10 : 10+n], buf[10+n:], nil
}

// refOf is the ref a decoder returns for id at addr: the one known holds,
// or one with a copy of addr.
func refOf(id uint64, addr []byte, known *chord.Machine) chord.Ref {
	if known != nil {
		if r, ok := known.Known(id, addr); ok {
			return r
		}
	}
	return chord.Ref{ID: id, Addr: string(addr)}
}

// findSuccMsg is one routing step in flight: the key, the flags above,
// and the route cost accumulated so far (hops and stale hops), which
// the eventual owner echoes back in its reply. With store set it is a
// tagStore frame — the paper's one-lookup insertion: the same header with
// a whole tuple frame behind it, set by the inserting client, carried whole
// by every hop — each decodes it from its inbound socket and encodes it
// again on its outbound one — and applied by the node the route ends at.
type findSuccMsg struct {
	flags byte
	key   uint64
	hops  uint16
	stale uint16
	store []byte // nil: a plain tagFindSucc
}

const findSuccHeader = 15

// appendFindSucc is the one encoder of the routed request. With mem nil it is
// stateless: the header, and a store's tuple frame behind it. With the memory
// of the connection it goes out on, a store is recorded there and, once that
// memory holds an earlier one, sent as tagStoreKept (appendStore); a plain
// find_succ is the same either way.
func appendFindSucc(dst []byte, m findSuccMsg, mem *wire.Memory) []byte {
	if m.store != nil && mem != nil {
		return appendStore(dst, m, mem)
	}
	return appendWhole(dst, m)
}

// appendWhole is the stateless frame of the routed request. It is not
// appendFindSucc with a nil memory because appendStore calls it: a call cycle
// would make the compiler move every caller's stack buffer to the heap.
func appendWhole(dst []byte, m findSuccMsg) []byte {
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

// decodeFindSucc is the stateless decoder of the routed request: it refuses
// tagStoreKept, which only the memory it was sent against can expand.
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

// decodeFindSuccOn decodes a routed request that arrived on a connection
// whose memory is mem, and records a store there. A tagStoreKept is expanded
// from mem into a whole tuple frame built in tuple, which is returned, grown
// when it had to be, for the caller to keep for the next one; m.store points
// into it, or into buf for a stateless store.
func decodeFindSuccOn(buf []byte, mem *wire.Memory, tuple []byte) (m findSuccMsg, _ []byte, err error) {
	if len(buf) >= 2 && buf[1] == tagStoreKept {
		return decodeKept(buf, mem, tuple)
	}
	if m, err = decodeFindSucc(buf); err == nil && m.store != nil && mem != nil {
		var f [storeFieldBytes]byte
		fields, _, _ := splitStore(f[:0], m)
		mem.Store.Record(fields)
	}
	return m, tuple, err
}

// appendRequest appends req, a request frame as the stateless encoders build
// it, to dst as the connection whose memory is mem sends it: a routed store
// or a probe encoded again against the memory (appendFindSucc,
// wire.AppendProbeReqOn), any other request as it is. A store or a probe that
// does not decode goes as it is too, and is not recorded; its receiver
// refuses it and ends the connection.
func appendRequest(dst, req []byte, mem *wire.Memory) []byte {
	if len(req) > 1 {
		switch req[1] {
		case tagStore:
			if m, err := decodeFindSucc(req); err == nil {
				return appendFindSucc(dst, m, mem)
			}
		case wire.TagProbeReq:
			return wire.AppendProbeReqOn(dst, req, mem)
		}
	}
	return append(dst, req...)
}

// storeLayout is a routed store's fields that its kept form (tagStoreKept,
// held in wire.Memory.Store) leaves out when they are the connection's last
// store's: flags, hops, stale, the tuple frame's tag (wire.TagInsert or
// wire.TagBulkInsert), and the tuple's folded metric and TTL as its frame
// carries them. Under the soft-state rule (§3.3) a writer stores every item
// again each TTL, so these are mostly the last store's, while the key ahead
// of them and the bit and vectors behind them always travel. A kept insert
// that changes all six is as long as the stateless frame; a kept bulk store
// is always shorter, since it leaves out the bulk frame's reserved byte.
var storeLayout = wire.Layout{1, 2, 2, 1, 2, 2}

const storeFieldBytes = 10 // the fields of storeLayout, one after another

// splitStore appends a routed store's fields in storeLayout to dst and
// returns them with the bit and the vectors (2 bytes each) — no fields when
// a kept form cannot carry the tuple frame byte for byte: a bulk frame whose
// reserved byte is set. m.store must be a frame checkTupleFrame admits.
func splitStore(dst []byte, m findSuccMsg) (fields []byte, bit byte, vectors []byte) {
	p := m.store
	fields = binary.BigEndian.AppendUint16(binary.BigEndian.AppendUint16(append(dst, m.flags), m.hops), m.stale)
	fields = append(fields, p[1], p[2], p[3])
	if p[1] == wire.TagInsert {
		return append(fields, p[7], p[8]), p[6], p[4:6]
	}
	if p[7] != 0 {
		return nil, p[4], p[8:]
	}
	return append(fields, p[5], p[6]), p[4], p[8:]
}

// appendStore is appendFindSucc for a store on a connection with a memory.
func appendStore(dst []byte, m findSuccMsg, mem *wire.Memory) []byte {
	if checkTupleFrame(m.store) != nil {
		return appendWhole(dst, m) // refused by its receiver, and recorded by neither end
	}
	var f [storeFieldBytes]byte
	var key [8]byte
	binary.BigEndian.PutUint64(key[:], m.key)
	fields, bit, vectors := splitStore(f[:0], m)
	dst, kept := mem.Store.AppendKept(dst, tagStoreKept, key[:], storeLayout, fields, 1+len(vectors), findSuccHeader+len(m.store))
	mem.Store.Record(fields)
	if !kept {
		return appendWhole(dst, m)
	}
	return append(append(dst, bit), vectors...)
}

// decodeKept expands a tagStoreKept frame against mem, which it refuses when
// mem is nil or holds no store: the tuple frame is built in tuple, and the
// store recorded.
func decodeKept(buf []byte, mem *wire.Memory, tuple []byte) (findSuccMsg, []byte, error) {
	if mem == nil {
		return findSuccMsg{}, tuple, wire.ErrBadMessage
	}
	var b [storeFieldBytes]byte
	f, key, rest, err := mem.Store.ReadKept(b[:0], buf, 8, storeLayout)
	if err == nil && len(rest) == 0 { // the bit
		err = wire.ErrShort
	}
	if err != nil {
		return findSuccMsg{}, tuple, err
	}
	bit, vectors := rest[0], rest[1:]
	tuple = append(tuple[:0], wire.Version, f[5], f[6], f[7])
	switch {
	case f[5] == wire.TagInsert && len(vectors) == 2:
		tuple = append(append(tuple, vectors...), bit, f[8], f[9])
	case f[5] == wire.TagBulkInsert && len(vectors)%2 == 0:
		tuple = append(append(tuple, bit, f[8], f[9], 0), vectors...)
	default:
		return findSuccMsg{}, tuple, wire.ErrBadMessage
	}
	if err := mem.Store.Accept(len(buf), f, findSuccHeader+len(tuple)); err != nil {
		return findSuccMsg{}, tuple, err
	}
	m := findSuccMsg{flags: f[0], key: binary.BigEndian.Uint64(key), hops: binary.BigEndian.Uint16(f[1:]), stale: binary.BigEndian.Uint16(f[3:]), store: tuple}
	return m, tuple, nil
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

// The routed request's two terminal replies decode into the chord.Found the
// state machine speaks, and share a head: version, tag, then what the route
// cost — hops and stale hops — relayed back hop by hop. A find_succ reply
// names the owner behind it, and when the origin set flagNeighbors the
// owner's neighbourhood behind that. A store ack answers a tagStore once the
// tuple is in the store of the node the route ended at. Nothing is sent to
// that node afterwards, so the ack of an unflagged store names no owner and
// is the head alone. To a flagged store — a client whose view did not cover
// the key — the storing node appends its own ref and its neighbourhood, the
// same tag in a long layout, and the client learns from it the arcs a
// flagged find_succ reply would have taught.
const routedHead = 6

func appendRouted(dst []byte, tag byte, f chord.Found) []byte {
	dst = append(dst, wire.Version, tag)
	dst = binary.BigEndian.AppendUint16(dst, uint16(f.Hops))
	return binary.BigEndian.AppendUint16(dst, uint16(f.Stale))
}

func appendFindSuccResp(dst []byte, f chord.Found) []byte {
	dst = appendRef(appendRouted(dst, tagFindSuccResp, f), f.Owner)
	if f.Near != nil {
		dst = appendNeighbors(dst, *f.Near)
	}
	return dst
}

// appendStoreAck is the one encoder of the store ack: with mem nil, or to a
// flagged store, it is stateless; with the memory of the connection it
// answers on, it records the ack's route cost there and sends an unflagged
// ack whose cost the memory held as tagStoreAckKept.
func appendStoreAck(dst []byte, f chord.Found, mem *wire.Memory) []byte {
	start := len(dst)
	dst = appendRouted(dst, tagStoreAck, f)
	if mem != nil {
		cost := dst[start+2:]
		kept := f.Near == nil && bytes.Equal(cost, mem.Ack.Fields())
		if mem.Ack.Record(cost); kept {
			return append(dst[:start], wire.Version, tagStoreAckKept)
		}
	}
	if f.Near != nil {
		dst = appendNeighbors(appendRef(dst, f.Owner), *f.Near)
	}
	return dst
}

// decodeRouted reads the head of a terminal reply that must carry tag.
func decodeRouted(buf []byte, tag byte) (chord.Found, error) {
	if len(buf) < routedHead {
		return chord.Found{}, wire.ErrShort
	}
	if buf[0] != wire.Version || buf[1] != tag {
		return chord.Found{}, wire.ErrBadMessage
	}
	return chord.Found{Hops: int(binary.BigEndian.Uint16(buf[2:])), Stale: int(binary.BigEndian.Uint16(buf[4:]))}, nil
}

// decodeOwner reads what follows the head into f: the owner's ref and,
// unless the frame ends there, one whole neighbourhood with nothing behind
// it.
func decodeOwner(f chord.Found, buf []byte, known *chord.Machine) (chord.Found, error) {
	owner, rest, err := decodeRef(buf, known)
	if err != nil {
		return chord.Found{}, err
	}
	f.Owner = owner
	if len(rest) == 0 {
		return f, nil
	}
	nb, rest, err := decodeNeighbors(rest, nil, known)
	if err != nil {
		return chord.Found{}, err
	}
	if len(rest) != 0 {
		return chord.Found{}, wire.ErrBadMessage
	}
	f.Near = &nb
	return f, nil
}

func decodeFindSuccResp(buf []byte, known *chord.Machine) (chord.Found, error) {
	f, err := decodeRouted(buf, tagFindSuccResp)
	if err != nil {
		return f, err
	}
	return decodeOwner(f, buf[routedHead:], known)
}

// decodeStoreAck is the stateless decoder of the store ack, and refuses
// tagStoreAckKept.
func decodeStoreAck(buf []byte) (chord.Found, error) { return decodeStoreAckOn(buf, nil, nil) }

// decodeStoreAckOn decodes a store ack that arrived on a connection whose
// memory is mem, expands tagStoreAckKept from it — refused when mem is nil or
// holds no ack — and records what it accepts there.
func decodeStoreAckOn(buf []byte, mem *wire.Memory, known *chord.Machine) (chord.Found, error) {
	if len(buf) >= 2 && buf[1] == tagStoreAckKept {
		if mem == nil || len(mem.Ack.Fields()) == 0 || buf[0] != wire.Version || len(buf) != 2 {
			return chord.Found{}, wire.ErrBadMessage
		}
		cost := mem.Ack.Fields()
		return chord.Found{Hops: int(binary.BigEndian.Uint16(cost)), Stale: int(binary.BigEndian.Uint16(cost[2:]))}, nil
	}
	f, err := decodeStoreAckFull(buf, known)
	if err == nil && mem != nil {
		mem.Ack.Record(buf[2:routedHead])
	}
	return f, err
}

// decodeStoreAckFull accepts the two stateless layouts and nothing between
// them: the head, or the head, one ref and one whole neighbourhood with
// nothing behind it.
func decodeStoreAckFull(buf []byte, known *chord.Machine) (chord.Found, error) {
	f, err := decodeRouted(buf, tagStoreAck)
	if err != nil || len(buf) == routedHead {
		return f, err
	}
	if f, err = decodeOwner(f, buf[routedHead:], known); err == nil && f.Near == nil {
		return chord.Found{}, wire.ErrShort
	}
	return f, err
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
// of more successors than the rest of the frame could hold is refused. The
// successors are decoded into succ's array, from its start, when it has the
// room, and one equal to the ref succ held at its place is that ref: the
// last of a successor's list is often a node the asker holds nowhere else.
func decodeNeighbors(buf []byte, succ []chord.Ref, known *chord.Machine) (nb chord.Neighbors, rest []byte, err error) {
	if len(buf) < 1 {
		return nb, nil, wire.ErrShort
	}
	rest = buf[1:]
	if buf[0] != 0 {
		if nb.Pred, rest, err = decodeRef(rest, known); err != nil {
			return nb, nil, err
		}
	}
	const minRef = 11 // id(8) + length(2) + a one-byte address
	if len(rest) < 1 || int(rest[0])*minRef > len(rest)-1 {
		return nb, nil, wire.ErrShort
	}
	count := int(rest[0])
	rest = rest[1:]
	nb.Succ = succ[:0]
	for i := 0; i < count; i++ {
		id, addr, r, err := readRef(rest)
		if err != nil {
			return nb, nil, err
		}
		rest = r
		if i < len(succ) && succ[i].ID == id && succ[i].Addr == string(addr) {
			nb.Succ = append(nb.Succ, succ[i])
		} else {
			nb.Succ = append(nb.Succ, refOf(id, addr, known))
		}
	}
	return nb, rest, nil
}

// The three messages that are a tag and nothing else. They are only ever
// copied from — into a slot's write buffer as a request, behind a reply's
// length prefix — and never written to.
var (
	neighborsReqFrame = []byte{wire.Version, tagNeighbors}
	pingFrame         = []byte{wire.Version, tagPing}
	pongFrame         = []byte{wire.Version, tagPong}
)

// A neighbors reply is a node's protocol-state answer: its own ref, then
// who it believes precedes it and its successor list in ring order — the
// payload one stabilize exchange fetches. The asker knows whom it asked, so
// the reply decodes to the neighbourhood alone, its successors into succ's
// array (decodeNeighbors).
func appendNeighborsResp(dst []byte, self chord.Ref, nb chord.Neighbors) []byte {
	return appendNeighbors(appendRef(append(dst, wire.Version, tagNeighborsResp), self), nb)
}

func decodeNeighborsResp(buf []byte, succ []chord.Ref, known *chord.Machine) (chord.Neighbors, error) {
	if len(buf) < 2 {
		return chord.Neighbors{}, wire.ErrShort
	}
	if buf[0] != wire.Version || buf[1] != tagNeighborsResp {
		return chord.Neighbors{}, wire.ErrBadMessage
	}
	_, rest, err := decodeRef(buf[2:], known)
	if err != nil {
		return chord.Neighbors{}, err
	}
	nb, rest, err := decodeNeighbors(rest, succ, known)
	if err == nil && len(rest) != 0 {
		err = wire.ErrBadMessage
	}
	if err != nil {
		return chord.Neighbors{}, err
	}
	return nb, nil
}

func appendNotify(dst []byte, self chord.Ref) []byte {
	return appendRef(append(dst, wire.Version, tagNotify), self)
}

func decodeNotify(buf []byte, known *chord.Machine) (chord.Ref, error) {
	if len(buf) < 2 {
		return chord.Ref{}, wire.ErrShort
	}
	if buf[0] != wire.Version || buf[1] != tagNotify {
		return chord.Ref{}, wire.ErrBadMessage
	}
	r, rest, err := decodeRef(buf[2:], known)
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

// appendErr carries a typed failure back to the requester — its class, as
// one byte, so a remote failure surfaces as the sentinel a simulated one
// would — with the partial route cost so the caller can meter dropped
// traffic exactly like the simulated rings do.
func appendErr(dst []byte, c dht.Class, hops, stale uint16) []byte {
	dst = append(dst, wire.Version, tagErr, byte(c))
	dst = binary.BigEndian.AppendUint16(dst, hops)
	return binary.BigEndian.AppendUint16(dst, stale)
}

// decodeErr reads any class byte a peer sends, one past dht.ClassOther
// included.
func decodeErr(buf []byte) (c dht.Class, hops, stale uint16, err error) {
	if len(buf) < 7 {
		return 0, 0, 0, wire.ErrShort
	}
	if buf[0] != wire.Version || buf[1] != tagErr || len(buf) != 7 {
		return 0, 0, 0, wire.ErrBadMessage
	}
	return dht.Class(buf[2]), binary.BigEndian.Uint16(buf[3:]), binary.BigEndian.Uint16(buf[5:]), nil
}

// decodePong accepts a pong; any other reply to a ping is an error.
func decodePong(buf []byte) (struct{}, error) {
	if len(buf) < 2 || buf[1] != tagPong {
		return struct{}{}, fmt.Errorf("%w: unexpected ping reply", dht.ErrLost)
	}
	return struct{}{}, nil
}

// remoteErr is a typed failure a peer replied with: its class, which reads
// as the class's dht sentinel, and the route cost paid until the failure.
type remoteErr struct {
	class       dht.Class
	hops, stale uint16
}

func (e remoteErr) Error() string { return e.Unwrap().Error() }

// Unwrap returns the class's sentinel, or, for a class that stands for
// none, an error that wraps none.
func (e remoteErr) Unwrap() error {
	if err := e.class.Err(); err != nil {
		return err
	}
	return fmt.Errorf("netdht: remote error code %d", byte(e.class))
}

// replyErr splits a typed failure out of a reply frame: nil when raw is any
// other frame, else the peer's remoteErr, or the decode error of a malformed
// tagErr frame.
func replyErr(raw []byte) error {
	if len(raw) < 2 || raw[1] != tagErr {
		return nil
	}
	c, hops, stale, err := decodeErr(raw)
	if err != nil {
		return err
	}
	return remoteErr{class: c, hops: hops, stale: stale}
}
