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
// encoder appends to a connection's write buffer: a request once a try, in
// the slot that sends it (peerPool.exchange), a reply in the connection that
// answers. Every reply decoder returns values that share nothing with the
// frame (a ref's address is a string the decoding node already holds, or a
// copy of the bytes), so a decoded reply outlives the buffer it arrived in;
// a routed store's vectors stay in the frame it arrived in, which outlives
// the request's handling (decodeFindSucc).
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
	tagStoreKept     = 0x1A // a tagStore that sends only what differs from the connection's last store (appendFindSucc)
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
// the eventual owner echoes back in its reply. With a tuple it is a
// tagStore — the paper's one-lookup insertion: the same header with a
// tuple frame behind it, set by the inserting client, carried by every hop
// as the value its inbound socket's frame decoded to, its vectors still in
// that socket's read buffer, encoded again only onto its outbound socket,
// and applied by the node the route ends at.
type findSuccMsg struct {
	flags byte
	key   uint64
	hops  uint16
	stale uint16
	tuple wire.Tuple // no tag: a plain tagFindSucc
}

func (m findSuccMsg) isStore() bool { return m.tuple.Tag != 0 }

const findSuccHeader = 15

// appendFindSucc is the one encoder of the routed request: the header, and
// a store's tuple frame behind it (wire.AppendTuple). With the memory of the
// connection it goes out on, a store is recorded there and, once that memory
// holds an earlier one, sent as tagStoreKept when that is no longer; a plain
// find_succ is the same either way.
func appendFindSucc(dst []byte, m findSuccMsg, mem *wire.Memory) []byte {
	if m.isStore() && mem != nil {
		var f [storeFieldBytes]byte
		var key [8]byte
		binary.BigEndian.PutUint64(key[:], m.key)
		fields := storeFields(f[:0], m)
		out, kept := mem.Store.AppendKept(dst, tagStoreKept, key[:], storeLayout, fields, 1+len(m.tuple.Vectors), findSuccHeader+m.tuple.Size())
		if mem.Store.Record(fields); kept {
			return append(append(out, m.tuple.Bit), m.tuple.Vectors...)
		}
	}
	tag := byte(tagFindSucc)
	if m.isStore() {
		tag = tagStore
	}
	dst = append(dst, wire.Version, tag, m.flags)
	dst = binary.BigEndian.AppendUint64(dst, m.key)
	dst = binary.BigEndian.AppendUint16(dst, m.hops)
	dst = binary.BigEndian.AppendUint16(dst, m.stale)
	if m.isStore() {
		dst = wire.AppendTuple(dst, m.tuple)
	}
	return dst
}

// decodeFindSucc is the one decoder of the routed request. A store's tuple
// is read in place (wire.ReadTuple), its vectors left in buf. With the
// memory of the connection the request arrived on, a store is recorded
// there and a tagStoreKept expanded from it; without one, or with one that
// holds no store, tagStoreKept is refused.
func decodeFindSucc(buf []byte, mem *wire.Memory) (m findSuccMsg, err error) {
	if len(buf) >= 2 && buf[1] == tagStoreKept {
		return decodeKept(buf, mem)
	}
	if len(buf) < findSuccHeader {
		return findSuccMsg{}, wire.ErrShort
	}
	if buf[0] != wire.Version || (buf[1] != tagFindSucc && buf[1] != tagStore) {
		return findSuccMsg{}, wire.ErrBadMessage
	}
	m = findSuccMsg{
		flags: buf[2],
		key:   binary.BigEndian.Uint64(buf[3:]),
		hops:  binary.BigEndian.Uint16(buf[11:]),
		stale: binary.BigEndian.Uint16(buf[13:]),
	}
	if buf[1] == tagFindSucc {
		if len(buf) != findSuccHeader {
			return findSuccMsg{}, wire.ErrBadMessage
		}
		return m, nil
	}
	// The payload is exactly one tuple frame: the storing node applies it,
	// so nothing else, and no bytes behind it, get past the first hop.
	if m.tuple, err = wire.ReadTuple(buf[findSuccHeader:]); err != nil {
		return findSuccMsg{}, err
	}
	if mem != nil {
		var f [storeFieldBytes]byte
		mem.Store.Record(storeFields(f[:0], m))
	}
	return m, nil
}

// storeLayout is a routed store's fields that its kept form (tagStoreKept,
// held in wire.Memory.Store) leaves out when they are the connection's last
// store's: flags, hops, stale, the tuple's tag (wire.TagInsert or
// wire.TagBulkInsert), folded metric and TTL. Under the soft-state rule
// (§3.3) a writer stores every item again each TTL, so these are mostly the
// last store's, while the key ahead of them and the bit and vectors behind
// them always travel. A kept insert that changes all six is as long as the
// stateless frame; a kept bulk store is always shorter, since it leaves out
// the bulk frame's reserved byte.
var storeLayout = wire.Layout{1, 2, 2, 1, 2, 2}

const storeFieldBytes = 10 // the fields of storeLayout, one after another

// storeFields appends a routed store's fields in storeLayout to dst, or
// returns nil when a kept form cannot carry its tuple byte for byte: a bulk
// frame whose reserved byte is set.
func storeFields(dst []byte, m findSuccMsg) []byte {
	t := m.tuple
	if t.Reserved != 0 {
		return nil
	}
	dst = binary.BigEndian.AppendUint16(binary.BigEndian.AppendUint16(append(dst, m.flags), m.hops), m.stale)
	dst = binary.BigEndian.AppendUint16(append(dst, t.Tag), t.Metric)
	return binary.BigEndian.AppendUint16(dst, t.TTL)
}

// decodeKept reads a tagStoreKept frame against mem, which it refuses when
// mem is nil or holds no store, and records the store.
func decodeKept(buf []byte, mem *wire.Memory) (findSuccMsg, error) {
	if mem == nil {
		return findSuccMsg{}, wire.ErrBadMessage
	}
	var b [storeFieldBytes]byte
	f, key, rest, err := mem.Store.ReadKept(b[:0], buf, 8, storeLayout)
	if err == nil && len(rest) == 0 { // the bit
		err = wire.ErrShort
	}
	if err != nil {
		return findSuccMsg{}, err
	}
	m := findSuccMsg{flags: f[0], key: binary.BigEndian.Uint64(key), hops: binary.BigEndian.Uint16(f[1:]), stale: binary.BigEndian.Uint16(f[3:]),
		tuple: wire.Tuple{Tag: f[5], Metric: binary.BigEndian.Uint16(f[6:]), TTL: binary.BigEndian.Uint16(f[8:]), Bit: rest[0], Vectors: rest[1:]}}
	size := m.tuple.Size()
	if size == 0 {
		return findSuccMsg{}, wire.ErrBadMessage
	}
	if err := mem.Store.Accept(len(buf), f, findSuccHeader+size); err != nil {
		return findSuccMsg{}, err
	}
	return m, nil
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
