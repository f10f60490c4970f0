// Native Go fuzz targets auditing every Decode* function for
// declared-length vs. actual-buffer mismatches: a decoder must never
// panic or over-read on arbitrary input, and anything it accepts must
// survive a decode → re-encode → decode round trip unchanged (the
// fixpoint property a networked peer relies on when it relays a
// message it just parsed). A probe reply may re-encode shorter than it
// came — its owner need not have found the shortest form — never longer. Seed corpora live under testdata/fuzz; run
// the targets open-ended with e.g.
//
//	go test -fuzz=FuzzDecodeProbeResp -fuzztime=30s ./internal/wire
package wire

import (
	"bytes"
	"testing"
)

// seedBuf adds the canonical encodings plus truncations and bit flips
// of them — the inputs most likely to sit on a declared-length edge.
func seedBuf(f *testing.F, enc []byte) {
	f.Add(enc)
	for _, cut := range []int{1, 2, len(enc) / 2} {
		if cut < len(enc) {
			f.Add(enc[:len(enc)-cut])
		}
	}
	flip := append([]byte(nil), enc...)
	if len(flip) > 2 {
		flip[2] ^= 0xFF
		f.Add(flip)
	}
}

func FuzzDecodeInsert(f *testing.F) {
	seedBuf(f, EncodeInsert(Insert{Metric: 0xDEADBEEF, Vector: 511, Bit: 23, TTL: 600}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, buf []byte) {
		m, err := DecodeInsert(buf)
		if err != nil {
			return
		}
		re := EncodeInsert(m)
		m2, err := DecodeInsert(re)
		if err != nil {
			t.Fatalf("re-encoded insert rejected: %v", err)
		}
		// Metric is already folded after the first decode, and folding a
		// 16-bit value is the identity, so the fixpoint is exact.
		if m2 != m {
			t.Fatalf("insert not a fixpoint: %+v != %+v", m2, m)
		}
	})
}

func FuzzDecodeBulkInsert(f *testing.F) {
	seedBuf(f, EncodeBulkInsert(BulkInsert{Metric: 7, Bit: 3, TTL: 12, Vectors: []uint16{0, 1, 1023}}))
	f.Add([]byte{Version, TagBulkInsert})
	f.Fuzz(func(t *testing.T, buf []byte) {
		m, err := DecodeBulkInsert(buf)
		if err != nil {
			return
		}
		re := EncodeBulkInsert(m)
		m2, err := DecodeBulkInsert(re)
		if err != nil {
			t.Fatalf("re-encoded bulk insert rejected: %v", err)
		}
		if m2.Metric != m.Metric || m2.Bit != m.Bit || m2.TTL != m.TTL || len(m2.Vectors) != len(m.Vectors) {
			t.Fatalf("bulk insert not a fixpoint: %+v != %+v", m2, m)
		}
		for i := range m.Vectors {
			if m2.Vectors[i] != m.Vectors[i] {
				t.Fatalf("vector %d changed across round trip", i)
			}
		}
	})
}

func FuzzDecodeProbeReq(f *testing.F) {
	enc, err := EncodeProbeReq(ProbeReq{Bit: 9, NumVecs: 512, Metrics: []uint64{1, 2, 3}})
	if err != nil {
		f.Fatal(err)
	}
	seedBuf(f, enc)
	ranged, err := EncodeProbeReq(ProbeReq{Bit: 3, Span: 7, NumVecs: 64, Metrics: []uint64{1}})
	if err != nil {
		f.Fatal(err)
	}
	seedBuf(f, ranged)
	f.Fuzz(func(t *testing.T, buf []byte) {
		m, err := DecodeProbeReq(buf)
		if err != nil {
			return
		}
		re, err := EncodeProbeReq(m)
		if err != nil {
			t.Fatalf("decoded probe request not re-encodable: %v", err)
		}
		m2, err := DecodeProbeReq(re)
		if err != nil {
			t.Fatalf("re-encoded probe request rejected: %v", err)
		}
		if m2.Bit != m.Bit || m2.Span != m.Span || m2.NumVecs != m.NumVecs || len(m2.Metrics) != len(m.Metrics) {
			t.Fatalf("probe request not a fixpoint: %+v != %+v", m2, m)
		}
		for i := range m.Metrics {
			if m2.Metrics[i] != m.Metrics[i] {
				t.Fatalf("metric %d changed across round trip", i)
			}
		}
	})
}

func FuzzDecodeProbeResp(f *testing.F) {
	mask := make([]byte, MaskBytes(512))
	for v := 0; v < 512; v += 2 {
		SetVec(mask, v) // half the vectors: no index list is shorter, so dense
	}
	enc, err := EncodeProbeResp(ProbeResp{Bit: 7, NumVecs: 512, VecMasks: [][]byte{mask, mask}})
	if err != nil {
		f.Fatal(err)
	}
	seedBuf(f, enc)
	// A declared mask count far beyond the actual buffer, dense and coded.
	f.Add([]byte{Version, TagProbeResp, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0})
	f.Add([]byte{Version, TagProbeRespCoded, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0})
	// A run of two positions, two metrics each.
	ranged, err := EncodeProbeResp(ProbeResp{Bit: 7, Span: 1, NumVecs: 512, VecMasks: [][]byte{mask, mask, mask, mask}})
	if err != nil {
		f.Fatal(err)
	}
	seedBuf(f, ranged)
	// The same with its sender's arc behind the masks — seedBuf's cuts leave
	// an arc short of a byte, of two, and of the identifier's better half —
	// then the flag with no identifier, and a byte behind a whole arc.
	arced, err := EncodeProbeResp(ProbeResp{Bit: 7, Span: 1, NumVecs: 512, VecMasks: [][]byte{mask, mask, mask, mask}, HasArc: true, ArcLo: 1 << 63})
	if err != nil {
		f.Fatal(err)
	}
	seedBuf(f, arced)
	f.Add(arced[:len(ranged)+1])
	f.Add(append(append([]byte(nil), arced...), 0))
	// Coded replies: a form each — sparse (a few vectors set), complement (a
	// few clear), dense inside a coded reply — and a run that mixes all three
	// with an empty and a full mask, each with and without the arc.
	sparse, full, few := make([]byte, MaskBytes(512)), make([]byte, MaskBytes(512)), make([]byte, MaskBytes(512))
	for v := 0; v < 512; v++ {
		SetVec(full, v)
		if v%97 == 3 {
			SetVec(sparse, v)
		} else {
			SetVec(few, v)
		}
	}
	for _, masks := range [][][]byte{
		{sparse, sparse},
		{few, few},
		{sparse, mask},
		{sparse, few, mask, make([]byte, MaskBytes(512)), full, few},
	} {
		for _, arc := range []bool{false, true} {
			coded, err := EncodeProbeResp(ProbeResp{Bit: 3, Span: uint8(len(masks)/2 - 1), NumVecs: 512, VecMasks: masks, HasArc: arc, ArcLo: 42})
			if err != nil || coded[1] != TagProbeRespCoded {
				f.Fatalf("coded seed % x, %v", coded, err)
			}
			seedBuf(f, coded)
		}
	}
	// Hostile coded replies — an index past m, a repeated index, a count past
	// the buffer, empty masks whose dense form outgrows a frame — are the
	// corpus's coded-* files, beside a reply in each form.
	f.Fuzz(func(t *testing.T, buf []byte) {
		m, err := DecodeProbeResp(buf)
		if err != nil {
			return
		}
		// Nothing is skipped: an accepted frame is its header, its masks and
		// a whole arc or none, so with a byte of junk behind it is refused.
		if _, err := DecodeProbeResp(append(append([]byte(nil), buf...), 0)); err == nil {
			t.Fatalf("accepted with a byte of junk behind it")
		}
		if len(m.VecMasks)%(int(m.Span)+1) != 0 || int(m.Bit)+int(m.Span) > 255 {
			t.Fatalf("accepted %d masks for the run %d+%d", len(m.VecMasks), m.Bit, m.Span)
		}
		for _, vm := range m.VecMasks {
			if len(vm) != MaskBytes(int(m.NumVecs)) || pastVecs(vm, int(m.NumVecs)) {
				t.Fatalf("accepted mask % x for m=%d", vm, m.NumVecs)
			}
		}
		// The owner's encoder finds no form longer than the one it was sent.
		re, err := EncodeProbeResp(m)
		if err != nil {
			t.Fatalf("decoded probe reply not re-encodable: %v", err)
		}
		if len(re) > len(buf) {
			t.Fatalf("re-encoded in %d bytes, sent in %d", len(re), len(buf))
		}
		if m2, err := DecodeProbeResp(re); err != nil || !sameResp(m2, m) {
			t.Fatalf("probe reply not a fixpoint: %+v, %v != %+v", m2, err, m)
		}
	})
}

// sameResp reports whether two decoded replies say the same: every field,
// and mask for mask the same bytes.
func sameResp(a, b ProbeResp) bool {
	if a.Bit != b.Bit || a.Span != b.Span || a.NumVecs != b.NumVecs || a.HasArc != b.HasArc || a.ArcLo != b.ArcLo ||
		len(a.VecMasks) != len(b.VecMasks) {
		return false
	}
	for i := range a.VecMasks {
		if !bytes.Equal(a.VecMasks[i], b.VecMasks[i]) {
			return false
		}
	}
	return true
}
