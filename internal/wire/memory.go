package wire

import (
	"bytes"
	"encoding/binary"
)

// ReplyMemory is what the probe exchanges of one connection have carried,
// kept alike at both of its ends: the last request — its position, run,
// NumVecs and folded metric list — and, of the replies, the last mask sent
// under each (folded metric, position) at one NumVecs, and the last arc. A
// request goes as TagProbeReqKept with only the fields that differ from the
// remembered one (AppendProbeReqOn, DecodeProbeReqOn). The owner sends a mask
// equal to the one its memory holds as formKept and an arc equal to the
// remembered one as arcKept, one byte each, leaves out the header that
// restates the request once the memory has recorded a reply, and sends a
// reply whose every mask and arc it holds as the tag alone
// (ShortenProbeRespOn); the client's memory, which has seen the same
// exchanges, expands them (DecodeProbeRespTo).
//
// The update rule: every request is recorded — by the client once it has
// encoded it, by the owner once it has decoded it — and so is every reply —
// the owner's once it has encoded it, the client's once it has accepted it.
// A request is recorded whole, and one that lists more than memoryMasks
// metrics empties the request half instead. A reply is recorded mask by mask
// in its order, each dense mask for its (metric, position), and its arc or
// its lack. A reply at another NumVecs than the last one empties the memory
// of masks first. A new key takes a free slot or, once every slot is used,
// the slot of the key that arrived first, so what a memory holds is a
// function of the exchanges it has recorded and nothing else. The reset rule:
// a memory is born empty with its connection and dies with it; anything that
// could leave the two ends unequal — a request the owner cannot decode, a
// reply the client refuses, a failed exchange — ends the connection. The
// bound: at most memoryMasks masks and memoryBytes of them, whatever NumVecs a
// peer claims, a fixed index beside them, and one request of at most
// memoryMasks metrics. The zero value is an empty memory; it allocates on the
// first request and the first reply it records.
type ReplyMemory struct {
	hasArc  bool
	arcLo   uint64
	numVecs uint16
	keys    []uint32 // slot → memKey of the mask in it, slots in order of first use
	masks   []byte   // slot s's mask at s × ⌈numVecs/8⌉
	index   []uint16 // open addressing by memKey: slot+1, 0 for none
	next    int      // the slot a new key takes once every slot is used

	hasReq bool
	req    probeHead // its metrics in memory of its own
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
func (r *ReplyMemory) slots() int {
	if n := MaskBytes(int(r.numVecs)); n > 0 {
		return min(memoryMasks, memoryBytes/n)
	}
	return memoryMasks
}

// find returns the index entry that holds key, or the free entry where it
// would go.
func (r *ReplyMemory) find(key uint32) int {
	for at := home(key); ; at = (at + 1) & (len(r.index) - 1) {
		if s := r.index[at]; s == 0 || r.keys[s-1] == key {
			return at
		}
	}
}

// unindex frees the index entry at and moves back into the hole every entry
// behind it whose search would otherwise no longer reach it.
func (r *ReplyMemory) unindex(at int) {
	wrap := len(r.index) - 1
	for j := (at + 1) & wrap; r.index[j] != 0; j = (j + 1) & wrap {
		if h := home(r.keys[r.index[j]-1]); (j-h)&wrap >= (j-at)&wrap {
			r.index[at], at = r.index[j], j
		}
	}
	r.index[at] = 0
}

// put records mask under key.
func (r *ReplyMemory) put(key uint32, mask []byte) {
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
	mem     *ReplyMemory
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

// The changed byte of a TagProbeReqKept frame: bit i says that field i
// follows it, in this order and at its width in the stateless request — the
// position (1 byte), the run (1), NumVecs (2), and the metric list, its count
// (2) and its folded metrics (2 each).
const (
	reqBit = 1 << iota
	reqSpan
	reqNumVecs
	reqMetrics
	reqFields = iota
)

// AppendProbeReqOn appends req, a probe request frame as AppendProbeReq
// builds it, to dst as the connection whose memory is kept sends it, and
// records it there. Once the memory holds a request, req goes as
// TagProbeReqKept — version, tag, the changed byte, then each field that
// differs from the remembered request — when that is shorter than req; else,
// and with kept nil, it goes as it is. A frame that does not decode goes as
// it is too, and is not recorded: its receiver refuses it and ends the
// connection.
func AppendProbeReqOn(dst, req []byte, kept *ReplyMemory) []byte {
	h, err := splitProbeReq(req)
	if err != nil || kept == nil {
		return append(dst, req...)
	}
	start := len(dst)
	if kept.hasReq && h.keepable() {
		dst = kept.req.appendKept(dst, h)
	}
	if len(dst) == start || len(dst)-start >= h.wholeLen() {
		dst = append(dst[:start], req...)
	}
	kept.recordReq(h)
	return dst
}

// appendKept appends h's TagProbeReqKept frame against the remembered
// request last.
func (last probeHead) appendKept(dst []byte, h probeHead) []byte {
	changed := last.diff(h)
	dst = append(dst, Version, TagProbeReqKept, changed)
	if changed&reqBit != 0 {
		dst = append(dst, h.bit)
	}
	if changed&reqSpan != 0 {
		dst = append(dst, h.span)
	}
	if changed&reqNumVecs != 0 {
		dst = binary.BigEndian.AppendUint16(dst, h.numVecs)
	}
	if changed&reqMetrics != 0 {
		dst = append(binary.BigEndian.AppendUint16(dst, uint16(len(h.metrics)/2)), h.metrics...)
	}
	return dst
}

// diff is the changed byte of h against the remembered request last.
func (last probeHead) diff(h probeHead) (changed byte) {
	if h.bit != last.bit {
		changed |= reqBit
	}
	if h.span != last.span {
		changed |= reqSpan
	}
	if h.numVecs != last.numVecs {
		changed |= reqNumVecs
	}
	if !bytes.Equal(h.metrics, last.metrics) {
		changed |= reqMetrics
	}
	return changed
}

// DecodeProbeReqOn is DecodeProbeReqInto for a request that arrived on a
// connection whose memory is kept, and records what it accepts there. A
// TagProbeReqKept frame is expanded from the remembered request; it is
// refused when the memory holds none, when a field it names equals the
// remembered one, or when it is not shorter than the request sent whole — so
// each request has one kept form, and what is accepted re-encodes to the
// bytes it came in.
func DecodeProbeReqOn(metrics []uint64, buf []byte, kept *ReplyMemory) (ProbeReq, error) {
	var h probeHead
	var err error
	if len(buf) >= 2 && buf[1] == TagProbeReqKept {
		h, err = kept.expandReq(buf)
	} else {
		h, err = splitProbeReq(buf)
	}
	if err != nil {
		return ProbeReq{}, err
	}
	kept.recordReq(h)
	return h.req(metrics), nil
}

// expandReq reads a TagProbeReqKept frame against the remembered request.
// The metric list it returns may be the memory's own.
func (r *ReplyMemory) expandReq(buf []byte) (probeHead, error) {
	if r == nil || !r.hasReq || buf[0] != Version {
		return probeHead{}, ErrBadMessage
	}
	if len(buf) < 3 {
		return probeHead{}, ErrShort
	}
	changed, rest := buf[2], buf[3:]
	if changed >= 1<<reqFields {
		return probeHead{}, ErrBadMessage
	}
	h, last := r.req, r.req
	if changed&reqBit != 0 {
		if len(rest) < 1 {
			return probeHead{}, ErrShort
		}
		h.bit, rest = rest[0], rest[1:]
	}
	if changed&reqSpan != 0 {
		if len(rest) < 1 {
			return probeHead{}, ErrShort
		}
		h.span, rest = rest[0], rest[1:]
	}
	if changed&reqNumVecs != 0 {
		if len(rest) < 2 {
			return probeHead{}, ErrShort
		}
		h.numVecs, rest = binary.BigEndian.Uint16(rest), rest[2:]
	}
	if changed&reqMetrics != 0 {
		if len(rest) < 2 {
			return probeHead{}, ErrShort
		}
		n := 2 * int(binary.BigEndian.Uint16(rest))
		if len(rest) < 2+n {
			return probeHead{}, ErrShort
		}
		h.metrics, rest = rest[2:2+n], rest[2+n:]
	}
	// Each field named differs from the remembered one: the frame is the one
	// appendKept builds.
	if len(rest) != 0 || !runFits(h.bit, h.span) || !h.keepable() || len(buf) >= h.wholeLen() || changed != last.diff(h) {
		return probeHead{}, ErrBadMessage
	}
	return h, nil
}

// keepable reports whether a memory holds h: whether it lists no more than
// memoryMasks metrics.
func (h probeHead) keepable() bool { return len(h.metrics) <= 2*memoryMasks }

// recordReq is the update rule for a request.
func (r *ReplyMemory) recordReq(h probeHead) {
	if r == nil {
		return
	}
	if r.hasReq = h.keepable(); r.hasReq {
		r.req.bit, r.req.span, r.req.numVecs = h.bit, h.span, h.numVecs
		r.req.metrics = append(grow(r.req.metrics[:0], len(h.metrics), 2*memoryMasks), h.metrics...)
	}
}
