package wire

import (
	"bytes"
	"encoding/binary"
)

// Memory is what one connection has carried, kept alike at its two ends
// (DESIGN.md §14 "Socket memory"): the last request of each kind — a probe,
// and a routed store and its ack in the layouts of the transport that sends
// them (internal/netdht) — and, of the probe replies, the last mask sent
// under each (folded metric, position) at one NumVecs, and the last arc. One
// memory keeps three rules.
//
// The update rule: every frame a memory covers is recorded at both ends, in
// the same order — a request by its sender once it has encoded it and by its
// receiver once it has decoded it, a reply by its sender once it has encoded
// it and by its receiver once it has accepted it. A request is recorded whole,
// and one its kept form cannot carry empties its kind instead. A reply is
// recorded mask by mask in its order, with its arc or its lack; one at another
// NumVecs than the last empties the masks first; and a new key takes a free
// slot or, once every slot is used, the slot of the key that arrived first.
// So what a memory holds is a function of the frames it has recorded.
//
// The reset rule: a memory is born empty with its socket and dies with it;
// anything that could leave the two ends unequal — a request its receiver
// cannot decode, a reply its receiver refuses, a failed exchange — ends the
// connection.
//
// The bound: whatever a peer sends, at most memoryMasks masks and memoryBytes
// of them beside a fixed index, and keptBytes of each kind of request.
//
// The zero value is an empty memory; it allocates on the first request and
// the first reply it records.
type Memory struct {
	// Store and Ack are the last routed store's fields and its ack's.
	Store, Ack KeptReq

	probe   KeptReq // in probeLayout
	hasArc  bool
	arcLo   uint64
	numVecs uint16
	keys    []uint32 // slot → memKey of the mask in it, slots in order of first use
	masks   []byte   // slot s's mask at s × ⌈numVecs/8⌉
	index   []uint16 // open addressing by memKey: slot+1, 0 for none
	next    int      // the slot a new key takes once every slot is used
}

// The memory's bounds.
const (
	memoryMasks = 1024
	memoryBytes = 64 << 10
	// indexBits sizes the index at twice memoryMasks entries, so that
	// linear probing stays short and always finds a free entry.
	indexBits = 11
)

// memKey names a mask by its folded metric and its position.
func memKey(metric uint64, bit int) uint32 { return uint32(FoldMetric(metric))<<8 | uint32(bit) }

// home is the index entry where key's search starts.
func home(key uint32) int { return int(key * 0x9E3779B1 >> (32 - indexBits)) }

// slots is how many masks the memory holds at its NumVecs.
func (r *Memory) slots() int {
	if n := MaskBytes(int(r.numVecs)); n > 0 {
		return min(memoryMasks, memoryBytes/n)
	}
	return memoryMasks
}

// find returns the index entry that holds key, or the free entry where it
// would go.
func (r *Memory) find(key uint32) int {
	for at := home(key); ; at = (at + 1) & (len(r.index) - 1) {
		if s := r.index[at]; s == 0 || r.keys[s-1] == key {
			return at
		}
	}
}

// unindex frees the index entry at and moves back into the hole every entry
// behind it whose search would otherwise no longer reach it.
func (r *Memory) unindex(at int) {
	wrap := len(r.index) - 1
	for j := (at + 1) & wrap; r.index[j] != 0; j = (j + 1) & wrap {
		if h := home(r.keys[r.index[j]-1]); (j-h)&wrap >= (j-at)&wrap {
			r.index[at], at = r.index[j], j
		}
	}
	r.index[at] = 0
}

// put records mask under key.
func (r *Memory) put(key uint32, mask []byte) {
	at := r.find(key)
	if s := int(r.index[at]); s != 0 {
		copy(r.masks[(s-1)*len(mask):], mask)
		return
	}
	s, slots := len(r.keys), r.slots()
	if s < slots {
		r.keys = append(grow(r.keys, 1, slots), key)
		r.masks = append(grow(r.masks, len(mask), slots*len(mask)), mask...)
	} else {
		s, r.next = r.next, (r.next+1)%slots
		r.unindex(r.find(r.keys[s]))
		r.keys[s] = key
		copy(r.masks[s*len(mask):], mask)
		at = r.find(key)
	}
	r.index[at] = uint16(s + 1)
}

// grow returns s with room for n more elements, never with a capacity past
// limit, which the caller keeps len(s)+n within.
func grow[T any](s []T, n, limit int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	return append(make([]T, 0, min(max(2*cap(s), len(s)+n, 16), limit)), s...)
}

// keyed is one reply's masks as a memory names them: mask i answers
// metrics[i mod len(metrics)] at position bit + ⌊i / len(metrics)⌋. With mem
// nil the reply is stateless: no mask is known and nothing is recorded.
type keyed struct {
	mem     *Memory
	metrics []uint64
	bit     uint8
	numVecs uint16
}

// at returns the mask the memory holds for the reply's i-th, and whether it
// holds one.
func (k keyed) at(i int) ([]byte, bool) {
	r := k.mem
	if r == nil || r.index == nil || r.numVecs != k.numVecs {
		return nil, false
	}
	s := int(r.index[r.find(memKey(k.metrics[i%len(k.metrics)], int(k.bit)+i/len(k.metrics)))])
	if s == 0 {
		return nil, false
	}
	n := MaskBytes(int(k.numVecs))
	return r.masks[(s-1)*n : s*n], true
}

// arc reports the arc the memory holds.
func (k keyed) arc() (bool, uint64) {
	if k.mem == nil {
		return false, 0
	}
	return k.mem.hasArc, k.mem.arcLo
}

// record is the update rule: the reply's count dense masks, in order, and
// its arc.
func (k keyed) record(count int, masks []byte, hasArc bool, arcLo uint64) {
	r := k.mem
	if r == nil {
		return
	}
	r.hasArc, r.arcLo = hasArc, arcLo
	if r.index == nil || r.numVecs != k.numVecs {
		if r.index == nil {
			r.index = make([]uint16, 1<<indexBits)
		}
		clear(r.index)
		r.numVecs, r.keys, r.masks, r.next = k.numVecs, r.keys[:0], r.masks[:0], 0
	}
	n := MaskBytes(int(k.numVecs))
	for i := 0; i < count; i++ {
		r.put(memKey(k.metrics[i%len(k.metrics)], int(k.bit)+i/len(k.metrics)), masks[i*n:(i+1)*n])
	}
}

// A Layout is a kind of request as its kept form carries it. A request sent
// on a connection whose memory holds an earlier one of its kind goes as a
// kept form: version, the kind's kept tag, a changed byte, what always travels
// ahead of the fields (a routed store's key), the fields the changed byte
// names, then what always travels behind them (a routed store's bit and
// vectors). The Layout lists the fields in the order of the changed byte's
// bits, each its width in bytes on the stateless frame, or List; a request's
// fields are those bytes, one field after another. A field the changed byte
// does not name is the remembered request's, and one it names must differ from
// it, so that each request has one kept form and what is accepted re-encodes
// to the bytes it came in.
type Layout []uint8

// List is the width of a field that is a list: a 2-byte count, then two
// bytes an entry.
const List = 0

// keptBytes bounds the fields a memory holds: a probe's, of memoryMasks
// metrics.
const keptBytes = 6 + 2*memoryMasks

// KeptReq is what a connection's memory holds of the requests of one kind:
// the fields of the last one recorded, or none. The zero value holds none.
type KeptReq struct{ fields []byte }

// Fields returns the fields k holds, empty when it holds none.
func (k *KeptReq) Fields() []byte { return k.fields }

// Record is the update rule for a request: k holds its fields from now on,
// or none when fields is nil — a request its kept form cannot carry — or
// longer than keptBytes.
func (k *KeptReq) Record(fields []byte) {
	if len(fields) > keptBytes {
		fields = nil
	}
	k.fields = append(grow(k.fields[:0], len(fields), keptBytes), fields...)
}

// fieldLen is the length of the field of width w at the front of f, which
// may run past the end of f.
func fieldLen(f []byte, w uint8) int {
	if w != List {
		return int(w)
	}
	if len(f) < 2 {
		return 2
	}
	return 2 + 2*int(binary.BigEndian.Uint16(f))
}

// fits is the one rule for when a kept form is sent: whenever it is no
// longer than the request's stateless frame.
func fits(kept, whole int) bool { return kept <= whole }

// AppendKept appends to dst the kept form, up to its fields, of the request
// whose fields in l are now, whose stateless frame is whole bytes long, and
// behind whose fields behind bytes travel; it reports whether it did. It does
// not when k holds no request, when now is nil, or when the kept form would
// be longer than the stateless frame; the caller then sends that, and
// otherwise appends what travels behind.
func (k *KeptReq) AppendKept(dst []byte, tag byte, ahead []byte, l Layout, now []byte, behind, whole int) ([]byte, bool) {
	if len(k.fields) == 0 || now == nil {
		return dst, false
	}
	start := len(dst)
	dst = append(append(dst, Version, tag, 0), ahead...)
	last := k.fields
	for i, w := range l {
		a, b := fieldLen(last, w), fieldLen(now, w)
		if !bytes.Equal(last[:a], now[:b]) {
			dst[start+2] |= 1 << i
			dst = append(dst, now[:b]...)
		}
		last, now = last[a:], now[b:]
	}
	if !fits(len(dst)-start+behind, whole) {
		return dst[:start], false
	}
	return dst, true
}

// ReadKept reads a kept form in l, the ahead bytes ahead of whose fields it
// returns as key, against the request k holds: it builds the request's fields
// in dst and returns them, and what travels behind them. It refuses a form
// when k holds no request, when its changed byte names a field l has not or
// a field equal to the remembered one, and when the fields are more than a
// memory holds. The caller reads the request from the fields and hands them
// to Accept.
func (k *KeptReq) ReadKept(dst, buf []byte, ahead int, l Layout) (fields, key, rest []byte, err error) {
	if len(k.fields) == 0 || len(buf) < 2 || buf[0] != Version {
		return nil, nil, nil, ErrBadMessage
	}
	if len(buf) < 3+ahead {
		return nil, nil, nil, ErrShort
	}
	changed, key, rest := buf[2], buf[3:3+ahead], buf[3+ahead:]
	if changed >= 1<<len(l) {
		return nil, nil, nil, ErrBadMessage
	}
	fields, last := dst[:0], k.fields
	for i, w := range l {
		a := fieldLen(last, w)
		field := last[:a]
		if changed&(1<<i) != 0 {
			b := fieldLen(rest, w)
			if len(rest) < b {
				return nil, nil, nil, ErrShort
			}
			if bytes.Equal(rest[:b], field) {
				return nil, nil, nil, ErrBadMessage
			}
			field, rest = rest[:b], rest[b:]
		}
		if len(fields)+len(field) > keptBytes {
			return nil, nil, nil, ErrBadMessage
		}
		fields, last = append(fields, field...), last[a:]
	}
	return fields, key, rest, nil
}

// Accept ends the decoding of a kept form, kept bytes long, whose fields
// ReadKept read: it refuses the form when it is longer than the stateless
// frame of the request it reads as, whole bytes long, and records the fields
// otherwise.
func (k *KeptReq) Accept(kept int, fields []byte, whole int) error {
	if !fits(kept, whole) {
		return ErrBadMessage
	}
	k.Record(fields)
	return nil
}

// probeLayout is a probe request's: its position, its run, NumVecs and its
// metric list, folded two bytes each.
var probeLayout = Layout{1, 1, 2, List}

// AppendProbeReqOn appends req to dst as the connection whose memory is
// kept sends it: as TagProbeReqKept when the memory holds a request and the
// kept form is no longer than the stateless frame (AppendProbeReq), else as
// that; and records it there. With kept nil it goes stateless. A request
// AppendProbeReq refuses appends nothing and is not recorded.
func AppendProbeReqOn(dst []byte, req ProbeReq, kept *Memory) []byte {
	if kept != nil && req.check() == nil {
		var f [keptBytes]byte
		now := req.fields(f[:0])
		out, ok := kept.probe.AppendKept(dst, TagProbeReqKept, nil, probeLayout, now, 0, req.wholeLen())
		if kept.probe.Record(now); ok {
			return out
		}
	}
	dst, _ = AppendProbeReq(dst, req)
	return dst
}

// DecodeProbeReqOn is DecodeProbeReqInto for a request that arrived on a
// connection whose memory is kept, and records what it accepts there. A
// TagProbeReqKept frame is read against the remembered request, and refused
// without one.
func DecodeProbeReqOn(metrics []uint64, buf []byte, kept *Memory) (ProbeReq, error) {
	var f [keptBytes]byte
	if len(buf) < 2 || buf[1] != TagProbeReqKept {
		h, err := splitProbeReq(buf)
		if err != nil {
			return ProbeReq{}, err
		}
		req := h.req(metrics)
		if kept != nil {
			kept.probe.Record(req.fields(f[:0]))
		}
		return req, nil
	}
	if kept == nil {
		return ProbeReq{}, ErrBadMessage
	}
	fields, _, rest, err := kept.probe.ReadKept(f[:0], buf, 0, probeLayout)
	if err != nil {
		return ProbeReq{}, err
	}
	h := headOf(fields)
	if len(rest) != 0 || !runFits(h.bit, h.span) {
		return ProbeReq{}, ErrBadMessage
	}
	req := h.req(metrics)
	if err := kept.probe.Accept(len(buf), fields, req.wholeLen()); err != nil {
		return ProbeReq{}, err
	}
	return req, nil
}
