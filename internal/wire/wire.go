// Package wire defines the binary message formats of the DHS protocol:
// the <metric_id, vector_id, bit, time_out> tuple of §3.2 and the
// counting probe request/reply of §4. The simulation accounts costs with
// the byte-size model of internal/core; this package pins that model to
// concrete, codec-tested encodings, so a networked deployment of the
// library has an interoperable wire format and the simulated byte counts
// provably correspond to real message sizes (wire_test asserts the
// equivalence with core's constants).
//
// A probe may ask for a run of bit positions in one exchange (ProbeReq.Span,
// ProbeResp.Span). The cost model knows only the single-position probe,
// and a span of zero encodes to exactly those bytes: the span is a
// trailing request byte that is absent when zero, and the reply header
// byte that single-position replies leave zero. A reply may also end with
// the arc of the identifier circle its sender answers for (ProbeResp.HasArc);
// one that does not know it ends where it always did.
//
// A probe reply travels dense (TagProbeResp: every mask its ⌈m/8⌉ bytes,
// the reply the cost model sizes) or, when that is shorter, coded
// (TagProbeRespCoded: each mask as the vectors set, the vectors clear, or
// dense). The cost model's size is therefore an upper bound on the wire,
// met exactly by masks no coding shortens. On a connection whose two ends
// keep a Memory, a probe request sends only the fields that changed since
// the connection's last, and a reply after the first leaves out the header
// that restates its request, and sends a mask or an arc the connection has
// carried before as one byte that says so.
//
// Layout conventions: fixed-width big-endian integers, no framing (the
// transport is expected to provide it), version byte first.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Version identifies the wire format.
const Version = 1

// Message type tags.
const (
	TagInsert     = 0x01 // store/refresh one tuple
	TagBulkInsert = 0x02 // store/refresh many tuples of one bit position
	TagProbeReq   = 0x03 // counting probe request
	TagProbeResp  = 0x04 // counting probe reply, every mask dense
	// TagProbeRespCoded is a probe reply with each mask in its shortest
	// lossless form; an owner sends it only when it is shorter than the
	// TagProbeResp frame of the same reply.
	TagProbeRespCoded = 0x05
	// The kept forms of a probe exchange, which only a connection whose two
	// ends keep a Memory carries, and no stateless decoder accepts.
	// TagProbeReqKept is a probe request that sends only the fields that
	// differ from the connection's last request (AppendProbeReqOn).
	TagProbeReqKept = 0x06
	// TagProbeRespKept is a coded probe reply without its header, which
	// restates the request: its client reads the position, run, NumVecs and
	// mask count from the request it sent (ShortenProbeRespOn).
	TagProbeRespKept = 0x07
	// TagProbeRespSame is a probe reply whose every mask, and whose arc or its
	// lack, the connection's memory holds: the tag alone.
	TagProbeRespSame = 0x08
)

var (
	// ErrShort is returned when a buffer is too small for its header or
	// declared payload.
	ErrShort = errors.New("wire: short message")
	// ErrBadMessage is returned on version/tag mismatches and on encode
	// when a field does not fit its wire width (e.g. more than 65535
	// probe metrics or vector masks). Encoding must fail loudly: a
	// silently wrapped uint16 count decodes as a different, valid-looking
	// message on the receiver.
	ErrBadMessage = errors.New("wire: malformed message")
)

// Insert is the paper's DHS tuple: which bit of which bitmap vector of
// which metric to set, and the soft-state lifetime to store it with.
//
// The paper packs it into 64 bits using deployment-specific field sizes
// (§5.1: 8-bit metric, 16-bit vector, 8-bit bit, 32-bit timeout). This
// codec spends a 2-byte header (version + tag) plus a trimmed tuple so
// the total stays within the 8-byte budget the cost model charges for
// the tuple itself, plus core.MsgHeaderBytes of envelope.
type Insert struct {
	Metric uint64 // full 64-bit metric identifiers are hashed down below
	Vector uint16
	Bit    uint8
	// TTL is the soft-state lifetime in coarse ticks. The wire width is
	// 16 bits while core.Config.TTL is an int64 tick count; producers
	// MUST narrow through ClampTTL, whose semantics are saturating: a
	// configured lifetime beyond 65535 ticks travels as 65535 (the
	// receiver keeps the tuple as long as the field can express), never
	// as a silently wrapped — i.e. much shorter — lifetime. 0 still
	// means "no expiry", and ClampTTL never turns a finite lifetime
	// into 0.
	TTL uint16
}

// ClampTTL narrows a configured tick lifetime (core.Config.TTL, int64)
// to the 16-bit wire field with saturating semantics: values above
// math.MaxUint16 clamp to math.MaxUint16, and non-positive values map
// to 0 ("no expiry" — core validates TTL ≥ 0, so negatives only arise
// from untrusted input). The plain conversion uint16(ttl) this replaces
// silently truncated lifetimes > 65535 ticks, wrapping a long-lived
// tuple into an arbitrarily short one.
func ClampTTL(ttl int64) uint16 {
	if ttl <= 0 {
		return 0
	}
	if ttl > math.MaxUint16 {
		return math.MaxUint16
	}
	return uint16(ttl)
}

// insertSize = version(1) + tag(1) + metric(2, folded) + vector(2) +
// bit(1) + ttl(2) = 9 bytes. The metric travels as its 16-bit fold
// (FoldMetric), and the receiving node keys the tuple on that fold, so
// metrics whose folds are equal share tuples; see FoldMetric.
const insertSize = 9

// FoldMetric compresses a 64-bit metric identifier to the 16-bit wire
// form (§5.1's byte model allots 8 bits). The fold is not a namespace:
// every frame that names a metric carries only the fold, and a node keys
// its stored tuples on it, so two metrics with equal folds (1 and 65536,
// say) merge — a count of either reads the union, unflagged. DESIGN.md
// §14 "Metric folding" records the merge and the item that closes it.
func FoldMetric(metric uint64) uint16 {
	return uint16(metric ^ metric>>16 ^ metric>>32 ^ metric>>48)
}

// AppendInsert appends the serialized Insert message to dst.
func AppendInsert(dst []byte, m Insert) []byte {
	dst = append(dst, Version, TagInsert)
	dst = binary.BigEndian.AppendUint16(dst, FoldMetric(m.Metric))
	dst = binary.BigEndian.AppendUint16(dst, m.Vector)
	dst = append(dst, m.Bit)
	return binary.BigEndian.AppendUint16(dst, m.TTL)
}

// EncodeInsert serializes an Insert message into a buffer of its own.
func EncodeInsert(m Insert) []byte { return AppendInsert(make([]byte, 0, insertSize), m) }

// DecodeInsert parses an Insert message. The Metric field of the result
// holds the folded 16-bit identifier.
func DecodeInsert(buf []byte) (Insert, error) {
	if len(buf) < insertSize {
		return Insert{}, ErrShort
	}
	if buf[0] != Version || buf[1] != TagInsert {
		return Insert{}, ErrBadMessage
	}
	return Insert{
		Metric: uint64(binary.BigEndian.Uint16(buf[2:])),
		Vector: binary.BigEndian.Uint16(buf[4:]),
		Bit:    buf[6],
		TTL:    binary.BigEndian.Uint16(buf[7:]),
	}, nil
}

// BulkInsert carries every vector that sets one bit position of one
// metric — the §3.2 bulk optimization groups per-bit.
type BulkInsert struct {
	Metric  uint64
	Bit     uint8
	TTL     uint16
	Vectors []uint16
}

// EncodeBulkInsert serializes a BulkInsert message: an 8-byte header
// followed by 2 bytes per vector.
func EncodeBulkInsert(m BulkInsert) []byte {
	buf := make([]byte, 8+2*len(m.Vectors))
	buf[0] = Version
	buf[1] = TagBulkInsert
	binary.BigEndian.PutUint16(buf[2:], FoldMetric(m.Metric))
	buf[4] = m.Bit
	binary.BigEndian.PutUint16(buf[5:], m.TTL)
	// buf[7] reserved; the vector count is implicit in the length.
	for i, v := range m.Vectors {
		binary.BigEndian.PutUint16(buf[8+2*i:], v)
	}
	return buf
}

// DecodeBulkInsert parses a BulkInsert message.
func DecodeBulkInsert(buf []byte) (BulkInsert, error) {
	if len(buf) < 8 {
		return BulkInsert{}, ErrShort
	}
	if buf[0] != Version || buf[1] != TagBulkInsert {
		return BulkInsert{}, ErrBadMessage
	}
	if (len(buf)-8)%2 != 0 {
		return BulkInsert{}, ErrBadMessage
	}
	m := BulkInsert{
		Metric: uint64(binary.BigEndian.Uint16(buf[2:])),
		Bit:    buf[4],
		TTL:    binary.BigEndian.Uint16(buf[5:]),
	}
	for i := 8; i < len(buf); i += 2 {
		m.Vectors = append(m.Vectors, binary.BigEndian.Uint16(buf[i:]))
	}
	return m, nil
}

// ProbeReq asks a node which bitmap vectors have the given bit set, for
// each of the listed metrics (multi-dimensional counting sends several).
// NumVecs carries the querier's vector count m so a networked responder
// knows the mask width to answer with; the in-process data plane derives
// it from shared configuration and may leave it 0.
//
// Span widens the question to the run of positions Bit … Bit+Span: §4.2's
// observation that one node holds the tuples of all vectors and metrics
// side by side holds for the bit positions on its arc too, so one exchange
// answers for all of them. Zero is the single-bit request, encoded as it
// always was.
type ProbeReq struct {
	Bit     uint8
	Span    uint8
	NumVecs uint16
	Metrics []uint64
}

// runFits reports whether bit … bit+span names bit positions at all.
func runFits(bit, span uint8) bool { return int(bit)+int(span) <= math.MaxUint8 }

// AppendProbeReq appends the serialized probe request to dst: version,
// tag, bit, vector count, metric count, 2 bytes per folded metric, then the
// span byte when it is not zero. A single-metric single-bit request is 9
// bytes — within the core.ProbeReqBytes=16 budget of the cost model. More
// than 65535 metrics do not fit the count field and return ErrBadMessage:
// the pre-check replaces a silent uint16 wrap that would encode 65536
// metrics as a valid-looking zero-metric request. So does a run past
// position 255. On error dst comes back as it was.
func AppendProbeReq(dst []byte, m ProbeReq) ([]byte, error) {
	if len(m.Metrics) > math.MaxUint16 {
		return dst, fmt.Errorf("%w: %d probe metrics exceed the uint16 count field", ErrBadMessage, len(m.Metrics))
	}
	if !runFits(m.Bit, m.Span) {
		return dst, fmt.Errorf("%w: probe run %d+%d leaves the bit field", ErrBadMessage, m.Bit, m.Span)
	}
	dst = append(dst, Version, TagProbeReq, m.Bit)
	dst = binary.BigEndian.AppendUint16(dst, m.NumVecs)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Metrics)))
	for _, metric := range m.Metrics {
		dst = binary.BigEndian.AppendUint16(dst, FoldMetric(metric))
	}
	if m.Span > 0 {
		dst = append(dst, m.Span)
	}
	return dst, nil
}

// EncodeProbeReq serializes a probe request into a buffer of its own.
func EncodeProbeReq(m ProbeReq) ([]byte, error) {
	buf, err := AppendProbeReq(make([]byte, 0, 8+2*min(len(m.Metrics), math.MaxUint16)), m)
	if err != nil {
		return nil, err
	}
	return buf, nil
}

// DecodeProbeReq parses a probe request; Metrics holds folded IDs.
func DecodeProbeReq(buf []byte) (ProbeReq, error) { return DecodeProbeReqInto(nil, buf) }

// DecodeProbeReqInto is DecodeProbeReq with the metric list appended to
// metrics[:0], for a server that decodes one request after another.
func DecodeProbeReqInto(metrics []uint64, buf []byte) (ProbeReq, error) {
	h, err := splitProbeReq(buf)
	if err != nil {
		return ProbeReq{}, err
	}
	return h.req(metrics), nil
}

// probeHead is a probe request read from its frame: its position, run and
// NumVecs, and its metric list as the frame carries it, two bytes a folded
// metric.
type probeHead struct {
	bit, span uint8
	numVecs   uint16
	metrics   []byte
}

// splitProbeReq reads a stateless probe request without copying its metric
// list out of buf.
func splitProbeReq(buf []byte) (probeHead, error) {
	if len(buf) < 7 {
		return probeHead{}, ErrShort
	}
	if buf[0] != Version || buf[1] != TagProbeReq {
		return probeHead{}, ErrBadMessage
	}
	n := int(binary.BigEndian.Uint16(buf[5:]))
	if len(buf) < 7+2*n {
		return probeHead{}, ErrShort
	}
	h := probeHead{bit: buf[2], numVecs: binary.BigEndian.Uint16(buf[3:]), metrics: buf[7 : 7+2*n]}
	if len(buf) > 7+2*n {
		h.span = buf[7+2*n]
	}
	if !runFits(h.bit, h.span) {
		return probeHead{}, ErrBadMessage
	}
	return h, nil
}

// req is the request h reads as, its metric list appended to metrics[:0].
func (h probeHead) req(metrics []uint64) ProbeReq {
	m := ProbeReq{Bit: h.bit, Span: h.span, NumVecs: h.numVecs, Metrics: metrics[:0]}
	for i := 0; i < len(h.metrics); i += 2 {
		m.Metrics = append(m.Metrics, uint64(binary.BigEndian.Uint16(h.metrics[i:])))
	}
	return m
}

// fields appends h's fields in probeLayout to dst, or returns nil when they
// are more than a memory holds.
func (h probeHead) fields(dst []byte) []byte {
	if 6+len(h.metrics) > keptBytes {
		return nil
	}
	dst = binary.BigEndian.AppendUint16(append(dst, h.bit, h.span), h.numVecs)
	return append(binary.BigEndian.AppendUint16(dst, uint16(len(h.metrics)/2)), h.metrics...)
}

// wholeLen is the length of h's stateless frame (AppendProbeReq).
func (h probeHead) wholeLen() int {
	if h.span > 0 {
		return 8 + len(h.metrics)
	}
	return 7 + len(h.metrics)
}

// headOf reads a probe request's fields in probeLayout.
func headOf(f []byte) probeHead {
	return probeHead{bit: f[0], span: f[1], numVecs: binary.BigEndian.Uint16(f[2:]), metrics: f[6:]}
}

// ProbeResp answers a probe: per requested metric, a bitmask over the m
// bitmap vectors marking which have the bit set at this node. A reply to
// a run carries (Span+1) × metrics masks, bit-major: every metric's mask
// for Bit, then every metric's for Bit+1, and so on.
//
// In memory a mask is always its dense ⌈m/8⌉ bytes. On the wire the owner
// sends each in whichever lossless form is shortest — dense, the list of
// vectors set, or the list of vectors clear (AppendProbeResp,
// ShortenProbeResp) — and both decoders expand it back, so a reply decodes
// to the same VecMasks whatever form it travelled in, and is never longer
// than its dense form.
//
// HasArc and ArcLo are the responder's word on what it answers for: the
// identifiers behind ArcLo up to its own. An overlay whose nodes know their
// arc sends it so that a querier which remembered the node can tell, from
// the reply it wanted anyway, whether what it remembered still holds. A
// node that cannot say leaves HasArc false and sends no trailer.
type ProbeResp struct {
	Bit      uint8
	Span     uint8
	NumVecs  uint16   // m, fixing the per-metric mask width
	VecMasks [][]byte // dense ⌈m/8⌉-byte masks, one per position of the run and requested metric
	HasArc   bool
	ArcLo    uint64
}

// The arc trailer: a flag byte — one value, so that a reply cut short or
// followed by anything else is refused rather than read as "no arc" — and
// the 8-byte identifier; or, in a reply without its header
// (TagProbeRespKept), the one byte arcKept: the arc the connection's last
// reply carried.
const (
	arcFlag = 1
	arcKept = 2
	arcSize = 9
)

// ProbeRespOverhead is what a probe reply spends beside its masks: the
// 8-byte header and, at most, the arc trailer.
const ProbeRespOverhead = 8 + arcSize

// MaxFrame is the largest message a transport of these formats carries
// (internal/netdht's frames are capped at it). A dense probe reply is its
// own size in memory; a coded one is not, so its decoder refuses a reply
// whose masks would expand past what a dense reply may carry in one frame,
// before allocating for them.
const MaxFrame = 1 << 20

// The coded probe reply (TagProbeRespCoded) is the dense reply's 8-byte
// header under its own tag, then per mask a uvarint k<<formBits | form and
// the form's body, then the arc trailer or nothing:
//
//	formDense       k = 0, then the ⌈m/8⌉ mask bytes
//	formSparse      the k vectors that are set
//	formComplement  the k vectors that are clear
//	formKept        k = 0, in a reply without its header only: the mask the
//	                connection's Memory holds for its metric and position
//
// An index list is strictly ascending, each index written as the uvarint
// distance from the one before it (the first from -1), so every distance
// is at least 1.
const (
	formDense = iota
	formSparse
	formComplement
	formKept
	formBits = 2
)

// MaskForms tallies the masks a decoder read by the form each travelled in,
// in FormNames' order. A dense reply's masks are all dense.
type MaskForms [formKept + 1]uint64

// FormNames names the forms a mask travels in, indexed as MaskForms.
var FormNames = [len(MaskForms{})]string{"dense", "sparse", "complement", "kept"}

// MaskBytes returns the size of one vector mask: ⌈m/8⌉.
func MaskBytes(numVecs int) int { return (numVecs + 7) / 8 }

// AppendProbeRespHeader starts a dense probe reply in dst: the 8-byte
// header — the span in the byte single-bit replies leave zero — for a reply
// of masks masks of ⌈numVecs/8⌉ bytes each, which the caller appends behind
// it (AppendMask), may close with AppendArc, and hands to ShortenProbeResp
// to send. More than 65535 masks do not fit the count field and return
// ErrBadMessage (a silent wrap would decode as a reply for a different
// number of metrics), as does a mask count that is no multiple of the run's
// length. On error dst comes back as it was.
func AppendProbeRespHeader(dst []byte, bit, span uint8, numVecs uint16, masks int) ([]byte, error) {
	if masks > math.MaxUint16 {
		return dst, fmt.Errorf("%w: %d vector masks exceed the uint16 count field", ErrBadMessage, masks)
	}
	if !runFits(bit, span) || masks%(int(span)+1) != 0 {
		return dst, fmt.Errorf("%w: %d vector masks for the run %d+%d", ErrBadMessage, masks, bit, span)
	}
	dst = append(dst, Version, TagProbeResp, bit)
	dst = binary.BigEndian.AppendUint16(dst, numVecs)
	dst = binary.BigEndian.AppendUint16(dst, uint16(masks))
	return append(dst, span), nil
}

// AppendMask appends one ⌈numVecs/8⌉-byte mask taken from a bitset's words
// — bit v of word ⌊v/64⌋ is vector v, the layout store.AppendBitsWithBit
// answers in. Written little-endian the words are the mask's bytes already
// ("vector v is bit v%8 of byte v/8"): the copy is cut to the mask's
// length, padded with zeros when the bitset is shorter, and the bits at and
// beyond numVecs in its last byte are cleared, so vectors another geometry
// wrote past m never travel.
func AppendMask(dst []byte, words []uint64, numVecs int) []byte {
	n := MaskBytes(numVecs)
	start := len(dst)
	for _, w := range words {
		if len(dst)-start >= n {
			break
		}
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	for len(dst)-start < n {
		dst = append(dst, 0)
	}
	dst = dst[:start+n]
	clearPast(dst[start:], numVecs)
	return dst
}

// AppendArc closes a probe reply with the arc trailer: its sender answers
// for the identifiers behind arcLo up to its own.
func AppendArc(dst []byte, arcLo uint64) []byte {
	return binary.BigEndian.AppendUint64(append(dst, arcFlag), arcLo)
}

// AppendProbeResp appends the serialized probe reply to dst in its shortest
// form (ShortenProbeResp): the header, one mask per position and metric,
// and, with an arc, its 9-byte trailer behind the masks. Sent dense — when
// no coding is shorter — one position's reply is exactly the core cost
// model's MsgHeaderBytes + metrics×⌈m/8⌉ accounting; coded, it is less. On
// error dst comes back as it was.
func AppendProbeResp(dst []byte, m ProbeResp) ([]byte, error) {
	start := len(dst)
	buf, err := AppendProbeRespHeader(dst, m.Bit, m.Span, m.NumVecs, len(m.VecMasks))
	if err != nil {
		return dst, err
	}
	mask := MaskBytes(int(m.NumVecs))
	for i, vm := range m.VecMasks {
		if len(vm) != mask {
			return dst, fmt.Errorf("wire: mask %d is %d bytes, want %d", i, len(vm), mask)
		}
		buf = append(buf, vm...)
	}
	if m.HasArc {
		buf = AppendArc(buf, m.ArcLo)
	}
	return ShortenProbeResp(buf, start), nil
}

// EncodeProbeResp serializes a probe reply into a buffer of its own, with
// room for the dense reply and the coded one ShortenProbeResp builds behind it.
func EncodeProbeResp(m ProbeResp) ([]byte, error) {
	size := 8 + min(len(m.VecMasks), math.MaxUint16)*MaskBytes(int(m.NumVecs)) + arcSize
	buf, err := AppendProbeResp(make([]byte, 0, 2*size), m)
	if err != nil {
		return nil, err
	}
	return buf, nil
}

// ShortenProbeResp is the stateless probe-reply encoder: it takes the dense
// reply that fills dst[start:] — AppendProbeRespHeader, a mask per position
// and metric, and the arc or none — clears the vectors at and past NumVecs
// from every mask, and sends each mask in the fewest bytes: dense, sparse or
// complement (formDense …), under TagProbeRespCoded. When that is not
// shorter than the dense reply, the dense reply stays as it was, byte for
// byte; so does one whose masks would expand past MaxFrame. The coded reply
// is built behind the dense one and moved down over it: with room for both in
// dst, shortening allocates nothing.
func ShortenProbeResp(dst []byte, start int) []byte { return ShortenProbeRespOn(dst, start, nil, nil) }

// ShortenProbeRespOn is ShortenProbeResp for the owner's end of a connection
// whose memory is kept, for a request of metrics; it records the reply there.
// The first reply a memory records is ShortenProbeResp's. Once it has
// recorded one, the 8-byte header, which only restates the request its
// client decodes the reply against (DecodeProbeRespTo), is left out: a mask
// equal to the one kept holds for its metric and position travels as
// formKept and an arc equal to the kept one as arcKept; a coded reply goes as
// TagProbeRespKept — version, tag, the coded masks, the arc trailer — and a
// reply whose every mask is the kept one and whose arc is the kept one, or
// which has none where kept has none, as TagProbeRespSame, two bytes. A reply
// no coding shortens by the header's six bytes goes dense, as
// ShortenProbeResp sends it. A reply that is not one mask per position and
// metric, or whose masks would expand past MaxFrame, goes as ShortenProbeResp
// sends it, and no memory records it.
func ShortenProbeRespOn(dst []byte, start int, metrics []uint64, kept *Memory) []byte {
	frame := dst[start:]
	if len(frame) < 8 || frame[1] != TagProbeResp {
		return dst
	}
	bit, span, numVecs := frame[2], frame[7], binary.BigEndian.Uint16(frame[3:])
	mask := MaskBytes(int(numVecs))
	count := int(binary.BigEndian.Uint16(frame[5:]))
	dense := count * mask
	body, end := start+8, len(dst)
	if len(frame) < 8+dense {
		return dst
	}
	for at := body; at < body+dense; at += mask {
		clearPast(dst[at:at+mask], int(numVecs))
	}
	if ProbeRespOverhead+dense > MaxFrame {
		return dst
	}
	hasArc := end-body-dense == arcSize && dst[body+dense] == arcFlag
	var arcLo uint64
	if hasArc {
		arcLo = binary.BigEndian.Uint64(dst[body+dense+1:])
	}
	if count != (int(span)+1)*len(metrics) || !hasArc && end != body+dense {
		kept = nil
	}
	bare := kept != nil && kept.index != nil
	// The coded masks must come in under limit bytes to beat the dense reply:
	// its masks, and the header when the coded reply leaves it out.
	head, tag, limit := 8, byte(TagProbeRespCoded), dense
	if bare {
		head, tag, limit = 2, TagProbeRespKept, dense+6
	}
	k := keyed{mem: kept, metrics: metrics, bit: bit, numVecs: numVecs}
	same := bare // every mask so far the kept one
	for i, at := 0, body; at < body+dense && len(dst)-end < limit; i, at = i+1, at+mask {
		if was, ok := k.at(i); ok && bytes.Equal(was, dst[at:at+mask]) {
			dst = append(dst, formKept)
		} else {
			same = false
			dst = appendShortMask(dst, dst[at:at+mask], int(numVecs))
		}
	}
	keptHas, keptLo := k.arc()
	sameArc := hasArc && keptHas && keptLo == arcLo
	k.record(count, dst[body:body+dense], hasArc, arcLo)
	switch {
	case same && (sameArc || !hasArc && !keptHas):
		return append(dst[:start], Version, TagProbeRespSame)
	case len(dst)-end >= limit:
		return dst[:end]
	}
	if sameArc {
		dst = append(dst, arcKept)
	} else {
		dst = append(dst, dst[body+dense:end]...) // the arc trailer, or nothing
	}
	dst = dst[:start+head+copy(dst[start+head:], dst[end:])]
	dst[start+1] = tag
	return dst
}

// appendShortMask appends one dense mask over numVecs vectors in its
// shortest coded form. Only the shorter index list can beat the dense form:
// the longer one lists more than ⌈m/8⌉ vectors, a byte each at least.
func appendShortMask(dst, mask []byte, numVecs int) []byte {
	set := 0
	for i := 0; i < len(mask); i += 8 {
		set += bits.OnesCount64(maskWord(mask, i))
	}
	form, k, clear := uint64(formSparse), set, false
	if numVecs-set < set {
		form, k, clear = formComplement, numVecs-set, true
	}
	start := len(dst)
	if k < len(mask) {
		dst = binary.AppendUvarint(dst, uint64(k)<<formBits|form)
		prev := -1
		for i := 0; i < len(mask); i += 8 {
			w := maskWord(mask, i)
			if clear {
				w = ^w
				if rest := numVecs - 8*i; rest < 64 {
					w &= 1<<rest - 1
				}
			}
			for ; w != 0; w &= w - 1 {
				v := 8*i + bits.TrailingZeros64(w)
				dst = binary.AppendUvarint(dst, uint64(v-prev))
				prev = v
			}
		}
		if len(dst)-start <= len(mask) {
			return dst
		}
		dst = dst[:start]
	}
	return append(append(dst, formDense), mask...)
}

// maskWord reads the up to eight mask bytes at i as a little-endian word:
// vectors 8i … 8i+63.
func maskWord(mask []byte, i int) uint64 {
	if len(mask)-i >= 8 {
		return binary.LittleEndian.Uint64(mask[i:])
	}
	var tail [8]byte
	copy(tail[:], mask[i:])
	return binary.LittleEndian.Uint64(tail[:])
}

// clearPast clears the bits of a mask's last byte that stand for vectors
// at and past numVecs.
func clearPast(mask []byte, numVecs int) {
	if r := numVecs % 8; r != 0 && len(mask) > 0 {
		mask[len(mask)-1] &= 1<<r - 1
	}
}

// pastVecs reports whether a mask marks a vector at or past numVecs.
func pastVecs(mask []byte, numVecs int) bool {
	r := numVecs % 8
	return r != 0 && len(mask) > 0 && mask[len(mask)-1]>>r != 0
}

// DecodeProbeResp parses a probe reply into memory of its own: the masks
// share one copy of their dense bytes — the frame's, or a coded reply's
// expanded — made once the frame has passed every check. Behind the masks
// comes the arc trailer, whole, or nothing; each mask is capped at its own
// end. A mask that marks a vector at or past NumVecs is refused in every
// form. A coded reply is checked whole before its masks are expanded. A
// reply that names a kept mask or arc is refused, and so is either reply
// without a header: there is no memory or request here to read them by.
func DecodeProbeResp(buf []byte) (ProbeResp, error) { return decodeProbeResp(nil, buf, nil, nil, nil) }

// MaskArena is memory that probe replies decode into and that is used
// again: DecodeProbeRespTo appends a reply's mask bytes and their headers to
// it, so a reader that resets it between uses stops allocating once it has
// held its largest load. What a reply decoded into it stays as it was until
// Reset.
type MaskArena struct {
	bytes []byte
	masks [][]byte
}

// Reset empties a, keeping its memory for the replies decoded next.
func (a *MaskArena) Reset() { a.bytes, a.masks = a.bytes[:0], a.masks[:0] }

// grow returns count zeroed masks of size bytes each, appended to a.
func (a *MaskArena) grow(count, size int) (masks [][]byte, body []byte) {
	from, at := len(a.masks), len(a.bytes)
	a.bytes = slices.Grow(a.bytes, count*size)[:at+count*size]
	body = a.bytes[at:]
	clear(body)
	for i := 0; i < count; i++ {
		a.masks = append(a.masks, body[i*size:(i+1)*size:(i+1)*size])
	}
	return a.masks[from:len(a.masks):len(a.masks)], body
}

// DecodeProbeRespTo is DecodeProbeResp for the reply to req on a connection
// whose memory is kept, and accepts the tags and forms ShortenProbeResp and
// ShortenProbeRespOn send and no other: a reply that does not answer req
// — its position, run, NumVecs, or one mask per position and metric — or
// whose masks would expand past MaxFrame is refused. A reply with its header,
// dense or coded, names nothing kept. One without it (TagProbeRespKept,
// TagProbeRespSame) comes only once kept holds a reply, and is read as
// answering req, its kept masks and arc expanded from kept. A reply accepted
// is recorded in kept (Memory's update rule). The masks never alias kept.
// forms, when not nil, adds the accepted reply's masks by the form they
// travelled in. The masks are appended to into, or, when it is nil, are
// memory of their own, as DecodeProbeResp's are.
func DecodeProbeRespTo(into *MaskArena, req ProbeReq, buf []byte, kept *Memory, forms *MaskForms) (ProbeResp, error) {
	return decodeProbeResp(into, buf, &req, kept, forms)
}

// decodeProbeResp is the one probe-reply decoder, stateless when req is nil.
func decodeProbeResp(into *MaskArena, buf []byte, req *ProbeReq, kept *Memory, forms *MaskForms) (ProbeResp, error) {
	if len(buf) < 2 {
		return ProbeResp{}, ErrShort
	}
	tag := buf[1]
	held := req != nil && kept != nil && kept.index != nil // kept holds a reply
	headless := tag == TagProbeRespKept || tag == TagProbeRespSame
	if buf[0] != Version || !(tag == TagProbeResp || tag == TagProbeRespCoded || headless && held) {
		return ProbeResp{}, ErrBadMessage
	}
	var m ProbeResp
	var count, at int // at: where the masks start
	if headless {
		m = ProbeResp{Bit: req.Bit, Span: req.Span, NumVecs: req.NumVecs}
		count, at = (int(req.Span)+1)*len(req.Metrics), 2
	} else {
		if len(buf) < 8 {
			return ProbeResp{}, ErrShort
		}
		m = ProbeResp{Bit: buf[2], Span: buf[7], NumVecs: binary.BigEndian.Uint16(buf[3:])}
		count, at = int(binary.BigEndian.Uint16(buf[5:])), 8
	}
	mask := MaskBytes(int(m.NumVecs))
	end := at + count*mask
	k := keyed{bit: m.Bit, numVecs: m.NumVecs}
	if req != nil {
		if m.Bit != req.Bit || m.Span != req.Span || m.NumVecs != req.NumVecs ||
			count != (int(m.Span)+1)*len(req.Metrics) || ProbeRespOverhead+count*mask > MaxFrame {
			return ProbeResp{}, ErrBadMessage
		}
		k.mem, k.metrics = kept, req.Metrics
	}
	named := k // what the reply may name as kept: nothing, unless it is headless
	if !headless {
		named.mem = nil
	}
	same := tag == TagProbeRespSame
	switch tag {
	case TagProbeResp:
		if len(buf) < end {
			return ProbeResp{}, ErrShort
		}
		if !runFits(m.Bit, m.Span) || count%(int(m.Span)+1) != 0 {
			return ProbeResp{}, ErrBadMessage
		}
		for i := at; i < end; i += mask {
			if pastVecs(buf[i:i+mask], int(m.NumVecs)) {
				return ProbeResp{}, ErrBadMessage
			}
		}
	default:
		if !runFits(m.Bit, m.Span) || count%(int(m.Span)+1) != 0 || ProbeRespOverhead+count*mask > MaxFrame {
			return ProbeResp{}, ErrBadMessage
		}
		n, err := expandMasks(nil, buf[at:], count, int(m.NumVecs), named, same, nil)
		if err != nil {
			return ProbeResp{}, err
		}
		end = at + n
	}
	switch arc := buf[end:]; {
	case same && len(arc) != 0:
		return ProbeResp{}, ErrBadMessage
	case same:
		m.HasArc, m.ArcLo = named.arc()
	case len(arc) == 0:
	case arc[0] == arcKept && len(arc) == 1:
		if m.HasArc, m.ArcLo = named.arc(); !m.HasArc {
			return ProbeResp{}, ErrBadMessage
		}
	case arc[0] != arcFlag || len(arc) > arcSize:
		return ProbeResp{}, ErrBadMessage
	case len(arc) < arcSize:
		return ProbeResp{}, ErrShort
	default:
		m.HasArc, m.ArcLo = true, binary.BigEndian.Uint64(arc[1:])
	}
	if into == nil {
		into = &MaskArena{bytes: make([]byte, 0, count*mask), masks: make([][]byte, 0, count)}
	}
	var body []byte
	m.VecMasks, body = into.grow(count, mask)
	if count == 0 {
		m.VecMasks = nil
	}
	if tag == TagProbeResp {
		copy(body, buf[at:end])
		if forms != nil {
			forms[formDense] += uint64(count)
		}
	} else {
		expandMasks(body, buf[at:], count, int(m.NumVecs), named, same, forms)
	}
	k.record(count, body, m.HasArc, m.ArcLo)
	return m, nil
}

// expandMasks reads count coded masks over numVecs vectors from the front
// of src and returns how many bytes they took; with same, every mask is the
// kept one and src holds none of them (TagProbeRespSame). With out nil it
// only checks them; otherwise out holds count zeroed dense masks and each is
// written into its own, and forms, when not nil, tallies their forms. An
// index list toggles its vectors from all clear (sparse) or all set
// (complement): ascending, every index toggles a distinct bit. A kept mask
// is copied from the memory keys names it in, and is refused when that
// holds none.
func expandMasks(out, src []byte, count, numVecs int, keys keyed, same bool, forms *MaskForms) (int, error) {
	mask := MaskBytes(numVecs)
	at := 0
	for i := 0; i < count; i++ {
		h := uint64(formKept)
		if !same {
			var n int
			if h, n = binary.Uvarint(src[at:]); n <= 0 {
				return 0, varintErr(n)
			}
			at += n
		}
		var dst []byte
		if out != nil {
			dst = out[i*mask : (i+1)*mask]
		}
		form, k := h&(1<<formBits-1), h>>formBits
		if forms != nil {
			forms[form]++
		}
		switch {
		case form == formDense && k == 0:
			if len(src)-at < mask {
				return 0, ErrShort
			}
			if pastVecs(src[at:at+mask], numVecs) {
				return 0, ErrBadMessage
			}
			copy(dst, src[at:at+mask])
			at += mask
		case form == formKept && k == 0:
			was, ok := keys.at(i)
			if !ok {
				return 0, ErrBadMessage
			}
			copy(dst, was)
		case form != formSparse && form != formComplement || k > uint64(numVecs):
			return 0, ErrBadMessage
		case k > uint64(len(src)-at): // an index takes a byte at least
			return 0, ErrShort
		default:
			if form == formComplement && dst != nil {
				for j := range dst {
					dst[j] = 0xFF
				}
				clearPast(dst, numVecs)
			}
			prev := -1
			for ; k > 0; k-- {
				d, n := binary.Uvarint(src[at:])
				if n <= 0 {
					return 0, varintErr(n)
				}
				at += n
				if d == 0 || d > uint64(numVecs-1-prev) { // not ascending, or past NumVecs
					return 0, ErrBadMessage
				}
				prev += int(d)
				if dst != nil {
					dst[prev/8] ^= 1 << (prev % 8)
				}
			}
		}
	}
	return at, nil
}

// varintErr is the error of a uvarint binary.Uvarint could not read: the
// buffer ended inside it (n == 0), or it overflows 64 bits (n < 0).
func varintErr(n int) error {
	if n == 0 {
		return ErrShort
	}
	return ErrBadMessage
}

// SetVec marks vector v in a mask.
func SetVec(mask []byte, v int) { mask[v/8] |= 1 << (v % 8) }

// HasVec reports whether vector v is marked in a mask.
func HasVec(mask []byte, v int) bool { return mask[v/8]&(1<<(v%8)) != 0 }
