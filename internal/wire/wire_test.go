package wire

import (
	"bytes"
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"dhsketch/internal/core"
)

func TestInsertRoundTrip(t *testing.T) {
	f := func(metric uint64, vector uint16, bit uint8, ttl uint16) bool {
		enc := EncodeInsert(Insert{Metric: metric, Vector: vector, Bit: bit, TTL: ttl})
		dec, err := DecodeInsert(enc)
		if err != nil {
			return false
		}
		return dec.Metric == uint64(FoldMetric(metric)) &&
			dec.Vector == vector && dec.Bit == bit && dec.TTL == ttl
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInsertSizeMatchesCostModel(t *testing.T) {
	// The cost model charges TupleBytes + MsgHeaderBytes per insertion
	// message; the concrete encoding must fit in that budget.
	enc := EncodeInsert(Insert{Metric: 1, Vector: 2, Bit: 3, TTL: 4})
	if len(enc) > core.TupleBytes+core.MsgHeaderBytes {
		t.Errorf("insert message is %d bytes, model budget %d", len(enc), core.TupleBytes+core.MsgHeaderBytes)
	}
}

func TestBulkInsertRoundTrip(t *testing.T) {
	m := BulkInsert{Metric: 0xDEADBEEF12345678, Bit: 17, TTL: 600, Vectors: []uint16{0, 5, 511, 1023}}
	enc := EncodeBulkInsert(m)
	dec, err := DecodeBulkInsert(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Bit != 17 || dec.TTL != 600 || len(dec.Vectors) != 4 {
		t.Errorf("decoded %+v", dec)
	}
	for i, v := range m.Vectors {
		if dec.Vectors[i] != v {
			t.Errorf("vector %d: %d != %d", i, dec.Vectors[i], v)
		}
	}
	// Per-vector wire cost must not exceed the model's TupleBytes.
	perVector := float64(len(enc)-8) / float64(len(m.Vectors))
	if perVector > core.TupleBytes {
		t.Errorf("bulk spends %.1f bytes/vector, model charges %d", perVector, core.TupleBytes)
	}
}

func TestBulkInsertEmpty(t *testing.T) {
	enc := EncodeBulkInsert(BulkInsert{Metric: 9, Bit: 1, TTL: 2})
	dec, err := DecodeBulkInsert(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Vectors) != 0 {
		t.Errorf("decoded %d vectors from empty bulk", len(dec.Vectors))
	}
}

func TestProbeReqRoundTrip(t *testing.T) {
	m := ProbeReq{Bit: 9, NumVecs: 512, Metrics: []uint64{1, 0xABCDEF, 1 << 60}}
	enc, err := EncodeProbeReq(m)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeProbeReq(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Bit != 9 || dec.NumVecs != 512 || len(dec.Metrics) != 3 {
		t.Errorf("decoded %+v", dec)
	}
	for i, metric := range m.Metrics {
		if dec.Metrics[i] != uint64(FoldMetric(metric)) {
			t.Errorf("metric %d not folded consistently", i)
		}
	}
}

func TestProbeReqSizeMatchesCostModel(t *testing.T) {
	// A single-metric probe request must fit the model's ProbeReqBytes.
	enc, err := EncodeProbeReq(ProbeReq{Bit: 1, Metrics: []uint64{42}})
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) > core.ProbeReqBytes {
		t.Errorf("probe request is %d bytes, model budget %d", len(enc), core.ProbeReqBytes)
	}
}

// TestProbeReqCountBounds pins the overflow fix: exactly 65535 metrics
// is the largest encodable request, and one more must fail with
// ErrBadMessage instead of wrapping the uint16 count to 0 — the pre-fix
// behavior, under which the 65536-metric request decoded as a valid
// zero-metric one.
func TestProbeReqCountBounds(t *testing.T) {
	at := make([]uint64, 65535)
	enc, err := EncodeProbeReq(ProbeReq{Bit: 3, Metrics: at})
	if err != nil {
		t.Fatalf("65535 metrics rejected: %v", err)
	}
	dec, err := DecodeProbeReq(enc)
	if err != nil || len(dec.Metrics) != 65535 {
		t.Fatalf("65535-metric round trip: %d metrics, %v", len(dec.Metrics), err)
	}

	over := make([]uint64, 65536)
	if _, err := EncodeProbeReq(ProbeReq{Bit: 3, Metrics: over}); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("65536 metrics: err = %v, want ErrBadMessage", err)
	}
}

// TestProbeRespCountBounds is the reply-side twin: 65535 masks round-
// trip, 65536 must not silently wrap to a zero-mask reply.
func TestProbeRespCountBounds(t *testing.T) {
	const m = 8 // 1-byte masks keep the boundary case small
	masks := make([][]byte, 65535)
	for i := range masks {
		masks[i] = make([]byte, MaskBytes(m))
	}
	enc, err := EncodeProbeResp(ProbeResp{NumVecs: m, VecMasks: masks})
	if err != nil {
		t.Fatalf("65535 masks rejected: %v", err)
	}
	dec, err := DecodeProbeResp(enc)
	if err != nil || len(dec.VecMasks) != 65535 {
		t.Fatalf("65535-mask round trip: %d masks, %v", len(dec.VecMasks), err)
	}

	masks = append(masks, make([]byte, MaskBytes(m)))
	if _, err := EncodeProbeResp(ProbeResp{NumVecs: m, VecMasks: masks}); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("65536 masks: err = %v, want ErrBadMessage", err)
	}
}

// TestClampTTL pins the saturating narrowing semantics documented on
// wire.Insert.TTL and core.Config.TTL: lifetimes beyond the 16-bit wire
// range clamp to MaxUint16 — the pre-fix uint16(ttl) conversion wrapped
// them to arbitrary shorter lifetimes (65536 → 0, i.e. "no expiry";
// 100000 → 34464 ticks).
func TestClampTTL(t *testing.T) {
	cases := []struct {
		ttl  int64 // a core.Config.TTL value
		want uint16
	}{
		{0, 0}, // 0 stays "no expiry"
		{1, 1},
		{65535, 65535},
		{65536, 65535},  // one past the wire range: saturate, not wrap to 0
		{100000, 65535}, // pre-fix uint16() gave 34464
		{math.MaxInt64, 65535},
		{-7, 0}, // untrusted input; core validates TTL ≥ 0
	}
	for _, c := range cases {
		if got := ClampTTL(c.ttl); got != c.want {
			t.Errorf("ClampTTL(%d) = %d, want %d", c.ttl, got, c.want)
		}
		// Core-equivalence: the clamped value survives the Insert codec
		// unchanged, so the receiver sees exactly the saturated lifetime.
		enc := EncodeInsert(Insert{Metric: 1, Vector: 2, Bit: 3, TTL: ClampTTL(c.ttl)})
		dec, err := DecodeInsert(enc)
		if err != nil || dec.TTL != c.want {
			t.Errorf("TTL %d: round-tripped as %d (%v), want %d", c.ttl, dec.TTL, err, c.want)
		}
		// A finite configured lifetime must never clamp into the "no
		// expiry" sentinel.
		if c.ttl > 0 && ClampTTL(c.ttl) == 0 {
			t.Errorf("ClampTTL(%d) collapsed a finite lifetime to the no-expiry sentinel", c.ttl)
		}
	}
}

func TestProbeRespRoundTrip(t *testing.T) {
	const m = 512
	mask1 := make([]byte, MaskBytes(m))
	mask2 := make([]byte, MaskBytes(m))
	SetVec(mask1, 0)
	SetVec(mask1, 511)
	SetVec(mask2, 100)
	resp := ProbeResp{Bit: 7, NumVecs: m, VecMasks: [][]byte{mask1, mask2}}
	enc, err := EncodeProbeResp(resp)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeProbeResp(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Bit != 7 || dec.NumVecs != m || len(dec.VecMasks) != 2 {
		t.Fatalf("decoded %+v", dec)
	}
	if !HasVec(dec.VecMasks[0], 0) || !HasVec(dec.VecMasks[0], 511) || HasVec(dec.VecMasks[0], 100) {
		t.Error("mask 0 bits wrong")
	}
	if !HasVec(dec.VecMasks[1], 100) || HasVec(dec.VecMasks[1], 0) {
		t.Error("mask 1 bits wrong")
	}
	if !bytes.Equal(dec.VecMasks[0], mask1) {
		t.Error("mask bytes not preserved")
	}
}

func TestProbeRespSizeMatchesCostModel(t *testing.T) {
	// The cost model charges MsgHeaderBytes + metrics×⌈m/8⌉ per reply: the
	// dense reply. Masks no coding shortens travel dense and match it
	// exactly; the encoder codes any others, and never past the model.
	const m, metrics = 512, 100
	model := core.MsgHeaderBytes + metrics*MaskBytes(m)
	for name, fill := range map[string]func(mask []byte, i int){
		"incompressible": func(mask []byte, i int) { copy(mask, halfMask(m)) },
		"empty":          func([]byte, int) {},
		"one vector":     func(mask []byte, i int) { SetVec(mask, i) },
		"full but one": func(mask []byte, i int) {
			for v := 0; v < m; v++ {
				if v != i {
					SetVec(mask, v)
				}
			}
		},
	} {
		masks := make([][]byte, metrics)
		for i := range masks {
			masks[i] = make([]byte, MaskBytes(m))
			fill(masks[i], i)
		}
		enc, err := EncodeProbeResp(ProbeResp{NumVecs: m, VecMasks: masks})
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case name == "incompressible" && (len(enc) != model || enc[1] != TagProbeResp):
			t.Errorf("%s: probe reply is %d bytes under tag %d, model says %d", name, len(enc), enc[1], model)
		case len(enc) > model:
			t.Errorf("%s: probe reply is %d bytes, past the model's %d", name, len(enc), model)
		}
	}
}

// halfMask is a mask over m vectors with every even one set: no index list
// is shorter, so it travels dense.
func halfMask(m int) []byte {
	mask := make([]byte, MaskBytes(m))
	for v := 0; v < m; v += 2 {
		SetVec(mask, v)
	}
	return mask
}

func TestProbeRespMaskSizeValidation(t *testing.T) {
	_, err := EncodeProbeResp(ProbeResp{NumVecs: 64, VecMasks: [][]byte{make([]byte, 3)}})
	if err == nil {
		t.Error("wrong mask size accepted")
	}
}

// TestProbeRunCodec: a probe for the run Bit … Bit+Span round-trips with
// its masks in bit-major order, a span of zero is byte for byte the
// single-bit encoding, and a run the bit field cannot hold or a mask
// count that does not divide over it is refused on both sides.
func TestProbeRunCodec(t *testing.T) {
	const m, metrics, span = 64, 2, 3
	req := ProbeReq{Bit: 5, Span: span, NumVecs: m, Metrics: []uint64{7, 9}}
	enc, err := EncodeProbeReq(req)
	if err != nil {
		t.Fatal(err)
	}
	single, err := EncodeProbeReq(ProbeReq{Bit: 5, NumVecs: m, Metrics: req.Metrics})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, append(slices.Clone(single), span)) || len(single) != 7+2*metrics {
		t.Errorf("ranged request %x is not the single-bit request %x plus the span byte", enc, single)
	}
	if dec, err := DecodeProbeReq(enc); err != nil || !reflect.DeepEqual(dec, req) {
		t.Errorf("ranged request decoded as %+v, %v", dec, err)
	}
	// Cut back to the metric list, the frame is the single-bit request:
	// the reply's span byte is how the asker tells.
	if dec, err := DecodeProbeReq(enc[:len(enc)-1]); err != nil || dec.Span != 0 {
		t.Errorf("request without its span byte decoded as %+v, %v", dec, err)
	}

	masks := make([][]byte, (span+1)*metrics)
	for i := range masks {
		masks[i] = halfMask(m)  // dense: the layout below is the dense one
		SetVec(masks[i], 2*i+1) // mask i marks vector 2i+1: order is observable
	}
	resp := ProbeResp{Bit: 5, Span: span, NumVecs: m, VecMasks: masks}
	raw, err := EncodeProbeResp(resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 8+len(masks)*MaskBytes(m) || raw[7] != span {
		t.Errorf("ranged reply is %d bytes with span byte %d", len(raw), raw[7])
	}
	if dec, err := DecodeProbeResp(raw); err != nil || !reflect.DeepEqual(dec, resp) {
		t.Errorf("ranged reply decoded as %+v, %v", dec, err)
	}
	if raw, err := EncodeProbeResp(ProbeResp{Bit: 5, NumVecs: m, VecMasks: masks[:1]}); err != nil || len(raw) != 16 || raw[7] != 0 {
		t.Errorf("single-bit reply at m=64 is %x, %v; want 16 bytes, reserved byte zero", raw, err)
	}

	_, reqOff := EncodeProbeReq(ProbeReq{Bit: 250, Span: 6})
	_, respOff := EncodeProbeResp(ProbeResp{Bit: 255, Span: 1})
	_, uneven := EncodeProbeResp(ProbeResp{Bit: 5, Span: span, NumVecs: m, VecMasks: masks[:7]})
	for name, err := range map[string]error{
		"request run past position 255":   reqOff,
		"reply run past position 255":     respOff,
		"masks not a multiple of the run": uneven,
	} {
		if !errors.Is(err, ErrBadMessage) {
			t.Errorf("encode %s: err = %v, want ErrBadMessage", name, err)
		}
	}
	patch := func(buf []byte, at int, b byte) []byte {
		buf = slices.Clone(buf)
		buf[at] = b
		return buf
	}
	for name, tc := range map[string]struct {
		decode func([]byte) error
		buf    []byte
		want   error
	}{
		"request run past position 255":   {decodeReq, patch(enc, 2, 253), ErrBadMessage},
		"reply run past position 255":     {decodeResp, patch(raw, 2, 253), ErrBadMessage},
		"masks not a multiple of the run": {decodeResp, patch(raw, 7, 2), ErrBadMessage},
		"reply short of a mask":           {decodeResp, raw[:len(raw)-1], ErrShort},
		"reply cut inside its header":     {decodeResp, raw[:7], ErrShort},
	} {
		if err := tc.decode(tc.buf); !errors.Is(err, tc.want) {
			t.Errorf("decode %s: err = %v, want %v", name, err, tc.want)
		}
	}
}

// TestProbeRespArcCodec: a reply that names its sender's arc is the reply
// without one plus nine bytes, round-trips, and decodes only whole — a
// trailer cut short, a flag with no identifier, another flag value or a
// byte behind it is refused, so that damage never reads as "no arc"; and a
// reply with no arc is byte for byte what it was before replies had one.
func TestProbeRespArcCodec(t *testing.T) {
	masks := [][]byte{halfMask(64), halfMask(64)}
	SetVec(masks[1], 9)
	plain, err := EncodeProbeResp(ProbeResp{Bit: 5, Span: 1, NumVecs: 64, VecMasks: masks})
	if err != nil {
		t.Fatal(err)
	}
	resp := ProbeResp{Bit: 5, Span: 1, NumVecs: 64, VecMasks: masks, HasArc: true, ArcLo: 0xfedcba9876543210}
	raw, err := EncodeProbeResp(resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != ProbeRespOverhead+2*MaskBytes(64) || !bytes.Equal(raw[:len(plain)], plain) {
		t.Errorf("reply with an arc %x is not the reply without %x plus 9 bytes", raw, plain)
	}
	if dec, err := DecodeProbeResp(raw); err != nil || !reflect.DeepEqual(dec, resp) {
		t.Errorf("reply with an arc decoded as %+v, %v", dec, err)
	}
	if dec, err := DecodeProbeResp(plain); err != nil || dec.HasArc || dec.ArcLo != 0 {
		t.Errorf("reply without an arc decoded as %+v, %v", dec, err)
	}
	otherFlag := slices.Clone(raw)
	otherFlag[len(plain)] = 2
	for name, tc := range map[string]struct {
		buf  []byte
		want error
	}{
		"arc cut short":        {raw[:len(raw)-1], ErrShort},
		"flag and no id":       {raw[:len(plain)+1], ErrShort},
		"unknown flag":         {otherFlag, ErrBadMessage},
		"zero flag":            {append(slices.Clone(plain), 0), ErrBadMessage},
		"a byte behind":        {append(slices.Clone(raw), 0), ErrBadMessage},
		"nine bytes of zeroes": {append(slices.Clone(plain), make([]byte, 9)...), ErrBadMessage},
	} {
		if err := decodeResp(tc.buf); !errors.Is(err, tc.want) {
			t.Errorf("decode %s: err = %v, want %v", name, err, tc.want)
		}
	}
}

func decodeReq(b []byte) error  { _, err := DecodeProbeReq(b); return err }
func decodeResp(b []byte) error { _, err := DecodeProbeResp(b); return err }

// TestDecodeProbeRespOneCopy: a ranged reply carries bits × metrics masks;
// decoding copies the mask bytes once and slices the copy, and a mask's
// capacity ends where the next begins. A coded reply's masks cannot be the
// frame's bytes: the decoder expands them into one buffer of its own.
func TestDecodeProbeRespOneCopy(t *testing.T) {
	masks := make([][]byte, 32)
	for i := range masks {
		masks[i] = halfMask(64)
	}
	raw, err := EncodeProbeResp(ProbeResp{Span: 15, NumVecs: 64, VecMasks: masks})
	if err != nil || raw[1] != TagProbeResp {
		t.Fatalf("EncodeProbeResp = % x, %v; want a dense reply", raw, err)
	}
	var dec ProbeResp
	if n := testing.AllocsPerRun(50, func() { dec, _ = DecodeProbeResp(raw) }); n != 2 {
		t.Errorf("DecodeProbeResp of 32 masks allocated %.0f times, want 2: the payload copy and the slice of masks", n)
	}
	dec.VecMasks[0] = append(dec.VecMasks[0], 0xFF)
	if dec.VecMasks[1][0] != 0x55 || raw[8] != 0x55 {
		t.Error("appending to one mask wrote into its neighbour or the frame")
	}

	for i := range masks {
		masks[i] = make([]byte, MaskBytes(64))
	}
	coded, err := EncodeProbeResp(ProbeResp{Span: 15, NumVecs: 64, VecMasks: masks})
	if err != nil || coded[1] != TagProbeRespCoded {
		t.Fatalf("EncodeProbeResp of empty masks = % x, %v; want a coded reply", coded, err)
	}
	if n := testing.AllocsPerRun(50, func() { dec, _ = DecodeProbeResp(coded) }); n != 2 {
		t.Errorf("a coded reply of 32 masks allocated %.0f times, want 2: the expanded masks and their slice", n)
	}
	dec.VecMasks[0] = append(dec.VecMasks[0], 0xFF)
	if dec.VecMasks[1][0] != 0 {
		t.Error("appending to one expanded mask wrote into its neighbour")
	}
}

// TestAppendCodecsShareTheEncoders: every Encode is its Append into an empty
// buffer, an Append leaves what was in the buffer alone and, given room,
// allocates nothing; on error the buffer comes back as it went in.
func TestAppendCodecsShareTheEncoders(t *testing.T) {
	ins := Insert{Metric: 0xABCD1234, Vector: 77, Bit: 9, TTL: 1200}
	req := ProbeReq{Bit: 3, Span: 6, NumVecs: 64, Metrics: []uint64{7, 0x1_0001}}
	resp := ProbeResp{Bit: 3, Span: 1, NumVecs: 12, VecMasks: [][]byte{{1, 2}, {3, 4}}, HasArc: true, ArcLo: 99}
	encReq, _ := EncodeProbeReq(req)
	encResp, _ := EncodeProbeResp(resp)
	prefix := []byte("keep")
	buf := make([]byte, 0, 256)
	check := func(name string, enc []byte, app func([]byte) []byte) {
		t.Helper()
		if got := app(append(buf[:0], prefix...)); !bytes.Equal(got[:4], prefix) || !bytes.Equal(got[4:], enc) {
			t.Errorf("%s: append gave % x, encode % x", name, got, enc)
		}
		if n := testing.AllocsPerRun(50, func() { app(buf[:0]) }); n != 0 {
			t.Errorf("%s: append into a buffer with room allocated %.0f times", name, n)
		}
	}
	check("insert", EncodeInsert(ins), func(b []byte) []byte { return AppendInsert(b, ins) })
	check("probe request", encReq, func(b []byte) []byte { b, _ = AppendProbeReq(b, req); return b })
	check("probe reply", encResp, func(b []byte) []byte { b, _ = AppendProbeResp(b, resp); return b })
	// A reply that codes shorter goes through the same encoder whether it is
	// appended whole or built as a server builds it, from bitset words.
	coded := ProbeResp{Bit: 3, Span: 1, NumVecs: 64, VecMasks: [][]byte{make([]byte, 8), bytes.Repeat([]byte{0xFF}, 8)}, HasArc: true, ArcLo: 99}
	encCoded, _ := EncodeProbeResp(coded)
	if encResp[1] != TagProbeResp || encCoded[1] != TagProbeRespCoded {
		t.Fatalf("replies went out under tags %d and %d", encResp[1], encCoded[1])
	}
	check("coded probe reply", encCoded, func(b []byte) []byte { b, _ = AppendProbeResp(b, coded); return b })
	check("probe reply from bitset words", encCoded, func(b []byte) []byte {
		start := len(b)
		b, _ = AppendProbeRespHeader(b, 3, 1, 64, 2)
		b = AppendMask(AppendMask(b, nil, 64), []uint64{^uint64(0)}, 64)
		return ShortenProbeResp(AppendArc(b, 99), start)
	})

	if got, err := AppendProbeReq(prefix, ProbeReq{Bit: 200, Span: 56}); err == nil || !bytes.Equal(got, prefix) {
		t.Errorf("a refused request left % x (%v)", got, err)
	}
	short := ProbeResp{NumVecs: 12, VecMasks: [][]byte{{1, 2}, {3}}}
	if got, err := AppendProbeResp(prefix, short); err == nil || !bytes.Equal(got, prefix) {
		t.Errorf("a refused reply left % x (%v)", got, err)
	}

	var metrics []uint64
	if n := testing.AllocsPerRun(50, func() {
		m, err := DecodeProbeReqInto(metrics, encReq)
		if err != nil || len(m.Metrics) != 2 {
			t.Fatalf("DecodeProbeReqInto: %+v, %v", m, err)
		}
		metrics = m.Metrics
	}); n != 0 {
		t.Errorf("DecodeProbeReqInto a list with room allocated %.0f times", n)
	}
}

// TestAppendMask: a mask taken from bitset words is the mask SetVec builds
// vector by vector from the same set — cut to ⌈m/8⌉ bytes, zero where the
// bitset is shorter, and without the vectors at and beyond m.
func TestAppendMask(t *testing.T) {
	words := []uint64{0xDEADBEEF_0BADF00D, 0xFFFFFFFF_FFFFFFFF, 0x8000000000000001}
	for _, m := range []int{0, 1, 2, 7, 8, 9, 63, 64, 65, 100, 128, 192, 200, 512} {
		for _, ws := range [][]uint64{nil, words[:1], words} {
			want := make([]byte, MaskBytes(m))
			for v := 0; v < m && v < 64*len(ws); v++ {
				if ws[v/64]>>(v%64)&1 != 0 {
					SetVec(want, v)
				}
			}
			got := AppendMask([]byte{0xAA}, ws, m)
			if got[0] != 0xAA || !bytes.Equal(got[1:], want) {
				t.Errorf("m=%d, %d words: mask % x, want % x", m, len(ws), got[1:], want)
			}
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name string
		f    func([]byte) error
	}{
		{"insert", func(b []byte) error { _, err := DecodeInsert(b); return err }},
		{"bulk", func(b []byte) error { _, err := DecodeBulkInsert(b); return err }},
		{"probeReq", func(b []byte) error { _, err := DecodeProbeReq(b); return err }},
		{"probeResp", func(b []byte) error { _, err := DecodeProbeResp(b); return err }},
	}
	for _, c := range cases {
		if c.f(nil) == nil {
			t.Errorf("%s: nil accepted", c.name)
		}
		if c.f([]byte{Version}) == nil {
			t.Errorf("%s: 1-byte accepted", c.name)
		}
		// Wrong version.
		bad := make([]byte, 32)
		bad[0] = 99
		if c.f(bad) == nil {
			t.Errorf("%s: bad version accepted", c.name)
		}
		// Wrong tag (valid version, zero tag).
		bad[0] = Version
		if c.f(bad) == nil {
			t.Errorf("%s: bad tag accepted", c.name)
		}
	}
	// Truncated declared payloads.
	req, err := EncodeProbeReq(ProbeReq{Bit: 1, Metrics: []uint64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeProbeReq(req[:len(req)-2]); err == nil {
		t.Error("truncated probe request accepted")
	}
	bulk := EncodeBulkInsert(BulkInsert{Metric: 1, Vectors: []uint16{1, 2}})
	if _, err := DecodeBulkInsert(bulk[:len(bulk)-1]); err == nil {
		t.Error("odd-length bulk accepted")
	}
}

func TestCrossTagRejected(t *testing.T) {
	ins := EncodeInsert(Insert{Metric: 1})
	if _, err := DecodeBulkInsert(ins); err == nil {
		t.Error("insert decoded as bulk")
	}
	req, err := EncodeProbeReq(ProbeReq{Metrics: []uint64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeProbeResp(req); err == nil {
		t.Error("request decoded as response")
	}
}

func TestSetHasVecProperty(t *testing.T) {
	f := func(raw uint16) bool {
		v := int(raw % 512)
		mask := make([]byte, MaskBytes(512))
		SetVec(mask, v)
		if !HasVec(mask, v) {
			return false
		}
		// No other bit may be set.
		count := 0
		for i := 0; i < 512; i++ {
			if HasVec(mask, i) {
				count++
			}
		}
		return count == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestProbeRespShortestForm: at every m the count field allows and at set
// fractions from none to all, a reply round-trips exactly, is never longer
// than its dense form, and carries no vector at or past m — the input's
// masks mark some there, and they come back clear. A reply whose masks no
// coding shortens is the dense frame; one of empty or full masks is coded.
func TestProbeRespShortestForm(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, m := range []int{1, 7, 64, 100, 512, 4096, 65535} {
		for _, frac := range []float64{0, 1 / float64(m), 0.05, 0.5, 0.95, 1} {
			for _, arc := range []bool{false, true} {
				masks := make([][]byte, 4) // a run of two positions, two metrics
				want := make([][]byte, len(masks))
				for i := range masks {
					masks[i] = make([]byte, MaskBytes(m))
					for v := 0; v < m; v++ {
						if rng.Float64() < frac || frac == 1 || frac == 1/float64(m) && v == i {
							SetVec(masks[i], v)
						}
					}
					want[i] = slices.Clone(masks[i])
					for v := m; v < 8*len(masks[i]); v++ {
						SetVec(masks[i], v) // vectors another geometry wrote past m
					}
				}
				resp := ProbeResp{Bit: 9, Span: 1, NumVecs: uint16(m), VecMasks: masks}
				if arc {
					resp.HasArc, resp.ArcLo = true, 77
				}
				enc, err := EncodeProbeResp(resp)
				if err != nil {
					t.Fatalf("m=%d frac=%g: %v", m, frac, err)
				}
				dense := 8 + len(masks)*MaskBytes(m)
				if arc {
					dense += arcSize
				}
				if len(enc) > dense {
					t.Errorf("m=%d frac=%g: %d bytes, longer than the dense %d", m, frac, len(enc), dense)
				}
				if (frac == 0 || frac == 1) && m >= 64 && enc[1] != TagProbeRespCoded {
					t.Errorf("m=%d frac=%g: empty or full masks sent under tag %d", m, frac, enc[1])
				}
				if frac == 0.5 && m >= 64 && (enc[1] != TagProbeResp || len(enc) != dense) {
					t.Errorf("m=%d frac=%g: incompressible masks sent in %d bytes under tag %d, want the dense %d", m, frac, len(enc), enc[1], dense)
				}
				dec, err := DecodeProbeResp(enc)
				resp.VecMasks = want
				if err != nil || !reflect.DeepEqual(dec, resp) {
					t.Errorf("m=%d frac=%g: decoded as %+v, %v", m, frac, dec.VecMasks, err)
				}
				resp.VecMasks = masks
			}
		}
	}
}

// TestShortMaskForms pins what one mask costs in a coded reply at m = 512:
// its form and count in one uvarint, then one uvarint per listed vector —
// the distance from the one before.
func TestShortMaskForms(t *testing.T) {
	const m = 512
	full := make([]byte, MaskBytes(m))
	for v := 0; v < m; v++ {
		SetVec(full, v)
	}
	fullBut := slices.Clone(full)
	fullBut[0] &^= 1 << 3 // vector 3 clear
	one := make([]byte, MaskBytes(m))
	SetVec(one, 300)
	three := make([]byte, MaskBytes(m))
	for _, v := range []int{0, 1, 200} {
		SetVec(three, v)
	}
	for name, tc := range map[string]struct {
		mask []byte
		want []byte
	}{
		"empty":       {make([]byte, MaskBytes(m)), []byte{formSparse}},
		"full":        {full, []byte{formComplement}},
		"one set":     {one, []byte{1<<formBits | formSparse, 0xAD, 0x02}}, // 301 from -1
		"three set":   {three, []byte{3<<formBits | formSparse, 1, 1, 199, 1}},
		"one clear":   {fullBut, []byte{1<<formBits | formComplement, 4}},
		"half, dense": {halfMask(m), append([]byte{formDense}, halfMask(m)...)},
	} {
		if got := appendShortMask(nil, tc.mask, m); !bytes.Equal(got, tc.want) {
			t.Errorf("%s: coded % x, want % x", name, got, tc.want)
		}
	}
}

// TestDecodeCodedProbeRespRefused: a coded reply is checked whole before
// anything is allocated for it. An index at or past m, indices that do not
// ascend, a count the buffer cannot hold, an unknown form, bytes behind the
// reply, and masks whose dense form would not fit a frame — 65535 one-byte
// empty masks at m = 65535 would expand to 512 MiB — are refused, and
// refusing them allocates nothing.
func TestDecodeCodedProbeRespRefused(t *testing.T) {
	coded := func(numVecs, count uint16, body ...byte) []byte {
		buf := []byte{Version, TagProbeRespCoded, 0, byte(numVecs >> 8), byte(numVecs), byte(count >> 8), byte(count), 0}
		return append(buf, body...)
	}
	valid := coded(64, 1, 2<<formBits|formSparse, 4, 9) // vectors 3 and 12
	if dec, err := DecodeProbeResp(valid); err != nil || !HasVec(dec.VecMasks[0], 3) || !HasVec(dec.VecMasks[0], 12) {
		t.Fatalf("valid coded reply decoded as %+v, %v", dec, err)
	}
	bomb := coded(65535, 65535, bytes.Repeat([]byte{formSparse}, 65535)...)
	for name, tc := range map[string]struct {
		buf  []byte
		want error
	}{
		"index at m":                  {coded(64, 1, 1<<formBits|formSparse, 65), ErrBadMessage},
		"index past m":                {coded(64, 1, 2<<formBits|formComplement, 60, 10), ErrBadMessage},
		"index wraps 64 bits":         {coded(64, 1, 2<<formBits|formSparse, 4, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01), ErrBadMessage},
		"repeated index":              {coded(64, 1, 2<<formBits|formSparse, 4, 0), ErrBadMessage},
		"count past the buffer":       {coded(64, 1, 5<<formBits|formSparse, 1, 1), ErrShort},
		"count past m":                {coded(8, 1, 9<<formBits|formSparse, 1, 1, 1, 1, 1, 1, 1, 1, 1), ErrBadMessage},
		"index cut short":             {coded(512, 1, 1<<formBits|formSparse, 0x80), ErrShort},
		"overlong uvarint":            {coded(64, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01), ErrBadMessage},
		"unknown form":                {coded(64, 1, 3), ErrBadMessage},
		"dense form with a count":     {coded(8, 1, 1<<formBits|formDense, 0xFF), ErrBadMessage},
		"dense form cut short":        {coded(64, 1, formDense, 1, 2, 3), ErrShort},
		"dense form past m":           {coded(4, 1, formDense, 0x10), ErrBadMessage},
		"mask missing":                {coded(64, 2, formSparse), ErrShort},
		"a byte behind":               {append(slices.Clone(valid), 0), ErrBadMessage},
		"run past position 255":       {append([]byte{Version, TagProbeRespCoded, 255, 0, 64, 0, 2, 1}, formSparse, formSparse), ErrBadMessage},
		"masks outgrow a frame":       {coded(65535, 200, bytes.Repeat([]byte{formSparse}, 200)...), ErrBadMessage},
		"64 KiB of empty masks at m":  {bomb, ErrBadMessage},
		"dense reply marks past m":    {[]byte{Version, TagProbeResp, 0, 0, 4, 0, 1, 0, 0x10}, ErrBadMessage},
		"dense reply cut inside mask": {[]byte{Version, TagProbeResp, 0, 0, 64, 0, 1, 0, 1}, ErrShort},
	} {
		if err := decodeResp(tc.buf); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", name, err, tc.want)
		}
		if n := testing.AllocsPerRun(5, func() { DecodeProbeResp(tc.buf) }); n != 0 {
			t.Errorf("%s: refusing allocated %.0f times", name, n)
		}
	}
}

// TestProbeMemoryKeptFormsRefused: each kept form of a probe exchange has
// exactly one reading. A kept request is refused by the stateless decoder, by
// a memory that holds no request, and when it names a field equal to the
// remembered one, names a field there is not, has a byte behind it, or is
// longer than the request sent whole; one as long as that is its kept form,
// and is accepted. A reply without its header is refused statelessly and
// with no memory; an all-kept reply is refused when the memory lacks one of
// its masks, and with a byte behind it.
func TestProbeMemoryKeptFormsRefused(t *testing.T) {
	// The changed byte's bits, in probeLayout's order.
	const (
		reqBit = 1 << iota
		reqSpan
		reqNumVecs
		reqMetrics
		reqFields = iota
	)
	first := ProbeReq{Bit: 3, NumVecs: 64, Metrics: []uint64{7}}
	whole, err := EncodeProbeReq(first)
	if err != nil {
		t.Fatal(err)
	}
	primed := func() *Memory {
		kept := new(Memory)
		if _, err := DecodeProbeReqOn(nil, whole, kept); err != nil {
			t.Fatal(err)
		}
		return kept
	}
	if q, err := DecodeProbeReqOn(nil, []byte{Version, TagProbeReqKept, reqBit, 4}, primed()); err != nil || q.Bit != 4 || q.NumVecs != 64 || !slices.Equal(q.Metrics, []uint64{7}) {
		t.Fatalf("a kept request changing the position: %+v, %v", q, err)
	}
	// NumVecs and the metric list changed: 9 bytes kept, 9 whole.
	tie := []byte{Version, TagProbeReqKept, reqNumVecs | reqMetrics, 0, 128, 0, 1, 0, 8}
	if q, err := DecodeProbeReqOn(nil, tie, primed()); err != nil || q.Bit != 3 || q.NumVecs != 128 || !slices.Equal(q.Metrics, []uint64{8}) {
		t.Fatalf("a kept request as long as the whole one: %+v, %v", q, err)
	}
	wide := ProbeReq{Bit: 3, NumVecs: 128, Metrics: []uint64{8}}
	if again := AppendProbeReqOn(nil, wide, primed()); !bytes.Equal(again, tie) {
		t.Fatalf("a request whose kept form is as long as the whole one went as % x, want % x", again, tie)
	}
	for name, c := range map[string]struct {
		frame []byte
		kept  *Memory
	}{
		"no memory":                   {[]byte{Version, TagProbeReqKept, 0}, nil},
		"an empty memory":             {[]byte{Version, TagProbeReqKept, 0}, new(Memory)},
		"the position remembered":     {[]byte{Version, TagProbeReqKept, reqBit, 3}, primed()},
		"the metrics remembered":      {[]byte{Version, TagProbeReqKept, reqMetrics, 0, 1, 0, 7}, primed()},
		"a field there is not":        {[]byte{Version, TagProbeReqKept, 1 << reqFields}, primed()},
		"a byte behind":               {[]byte{Version, TagProbeReqKept, reqBit, 4, 0}, primed()},
		"cut short":                   {[]byte{Version, TagProbeReqKept, reqNumVecs, 0}, primed()},
		"a run past position 255":     {[]byte{Version, TagProbeReqKept, reqBit | reqSpan, 250, 9}, primed()},
		"longer than the whole frame": {[]byte{Version, TagProbeReqKept, reqBit | reqSpan | reqNumVecs | reqMetrics, 4, 1, 0, 8, 0, 1, 0, 9}, primed()},
	} {
		if _, err := DecodeProbeReqOn(nil, c.frame, c.kept); err == nil {
			t.Errorf("%s: kept request % x accepted", name, c.frame)
		}
		if _, err := DecodeProbeReq(c.frame); err == nil {
			t.Errorf("%s: kept request % x decoded statelessly", name, c.frame)
		}
	}

	// A reply on a connection that carried one: the same masks go as the tag
	// alone, and the decoder reads them from the memory.
	mask := make([]byte, 8)
	SetVec(mask, 5)
	resp := ProbeResp{Bit: 3, NumVecs: 64, VecMasks: [][]byte{mask}}
	reply := func(kept *Memory) []byte {
		buf, err := AppendProbeRespHeader(nil, 3, 0, 64, 1)
		if err != nil {
			t.Fatal(err)
		}
		return ShortenProbeRespOn(append(buf, mask...), 0, first.Metrics, kept)
	}
	var owner, client Memory
	if frame := reply(&owner); frame[1] != TagProbeRespCoded {
		t.Fatalf("the first reply on a connection: % x, want the coded reply with its header", frame)
	} else if _, err := DecodeProbeRespTo(nil, first, frame, &client, nil); err != nil {
		t.Fatal(err)
	}
	same := reply(&owner)
	if !bytes.Equal(same, []byte{Version, TagProbeRespSame}) {
		t.Fatalf("the same reply again: % x, want the tag alone", same)
	}
	other := first
	other.Metrics = []uint64{8}
	for name, c := range map[string]struct {
		frame []byte
		req   ProbeReq
		kept  *Memory
	}{
		"all kept, no memory":                               {same, first, nil},
		"all kept, an empty memory":                         {same, first, new(Memory)},
		"all kept, a mask not held":                         {same, other, &client},
		"all kept, a byte behind":                           {append(slices.Clone(same), 0), first, &client},
		"without its header, no memory":                     {[]byte{Version, TagProbeRespKept, formSparse}, first, nil},
		"without its header, an empty memory, nothing kept": {[]byte{Version, TagProbeRespKept, 1<<formBits | formSparse, 6}, first, new(Memory)},
		"with its header, a mask kept":                      {[]byte{Version, TagProbeRespCoded, 3, 0, 64, 0, 1, 0, formKept}, first, &client},
	} {
		if _, err := DecodeProbeRespTo(nil, c.req, c.frame, c.kept, nil); err == nil {
			t.Errorf("%s: reply % x accepted", name, c.frame)
		}
		if _, err := DecodeProbeResp(c.frame); err == nil {
			t.Errorf("%s: reply % x decoded statelessly", name, c.frame)
		}
	}
	if got, err := DecodeProbeRespTo(nil, first, same, &client, nil); err != nil || !reflect.DeepEqual(got, resp) {
		t.Errorf("the all-kept reply decoded as %+v, %v; want %+v", got, err, resp)
	}
}
