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
	"reflect"
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
		// The same bytes as the reply to the request its header answers, on a
		// connection whose memory holds a mask for every one of its masks and
		// an arc: refused or not, nothing panics, and a reply the stateless
		// decoder accepts, which names nothing kept, decodes the same.
		if primed, req, ok := primedFor(buf); ok {
			if mk, kerr := DecodeProbeRespTo(nil, req, buf, primed, nil); err == nil && (kerr != nil || !sameResp(mk, m)) {
				t.Fatalf("with a memory: %+v, %v; without: %+v", mk, kerr, m)
			}
		}
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

// primedFor reads the request a probe reply's header answers — its
// position, run and NumVecs, and one metric per mask of a position — and
// returns a memory that has recorded a reply to it of empty masks with an
// arc; ok is false for a header no request produces.
func primedFor(buf []byte) (kept *Memory, req ProbeReq, ok bool) {
	if len(buf) < 8 {
		return nil, req, false
	}
	req = ProbeReq{Bit: buf[2], Span: buf[7], NumVecs: uint16(buf[3])<<8 | uint16(buf[4])}
	count, runs := int(buf[5])<<8|int(buf[6]), int(req.Span)+1
	mask := MaskBytes(int(req.NumVecs))
	if !runFits(req.Bit, req.Span) || count%runs != 0 || ProbeRespOverhead+count*mask > MaxFrame {
		return nil, req, false
	}
	for i := 0; i < count/runs; i++ {
		req.Metrics = append(req.Metrics, uint64(i))
	}
	dense, err := AppendProbeRespHeader(nil, req.Bit, req.Span, req.NumVecs, count)
	if err != nil {
		return nil, req, false
	}
	dense = AppendArc(append(dense, make([]byte, count*mask)...), 7)
	kept = new(Memory)
	ShortenProbeRespOn(dense, 0, req.Metrics, kept)
	return kept, req, true
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

// memStep is one reply of a FuzzProbeRespMemory sequence: the request it
// answers and the reply an owner would send, read from the front of data.
// A step is h, bit, span, n, n metric bytes, p and p pattern bytes: h picks
// NumVecs (its low two bits) and the arc (the next two: none, or one of two
// identifiers); the metrics come from an alphabet of eight folded metrics,
// each spelt two ways, so that keys repeat across and inside replies; mask i
// follows pattern i mod p — empty, full, one vector, or every even one. The
// run is cut to what one frame carries, as an owner refuses any longer, and
// to twice what a memory holds, which is as far as evictions go.
func memStep(data []byte) (req ProbeReq, resp ProbeResp, rest []byte, ok bool) {
	if len(data) < 4 {
		return req, resp, nil, false
	}
	h, bit, span, n := data[0], data[1], data[2], 1+int(data[3])%6
	data = data[4:]
	if len(data) < n+1 {
		return req, resp, nil, false
	}
	req = ProbeReq{Bit: bit, NumVecs: [...]uint16{64, 512, 13, 65535}[h&3]}
	for _, b := range data[:n] {
		metric := uint64(b & 7)
		if b&8 != 0 {
			metric = metric ^ 5 | 5<<16 // folds to b & 7 too
		}
		req.Metrics = append(req.Metrics, metric)
	}
	data = data[n:]
	p := 1 + int(data[0])%8
	if len(data) < 1+p {
		return req, resp, nil, false
	}
	pats, rest := data[1:1+p], data[1+p:]
	mask := MaskBytes(int(req.NumVecs))
	runs := min(int(span)%(256-int(bit))+1, (MaxFrame-ProbeRespOverhead)/(n*mask), 2*memoryBytes/(n*mask))
	req.Span = uint8(runs - 1)
	resp = ProbeResp{Bit: bit, Span: req.Span, NumVecs: req.NumVecs}
	switch (h >> 2) & 3 {
	case 1, 3:
		resp.HasArc, resp.ArcLo = true, 1<<63
	case 2:
		resp.HasArc, resp.ArcLo = true, 42
	}
	m := int(req.NumVecs)
	for i := 0; i < runs*n; i++ {
		v := make([]byte, mask)
		switch pat := pats[i%p]; pat % 4 {
		case 1:
			fill(v, 0xFF, m)
		case 2:
			SetVec(v, int(pat>>2)%m)
		case 3:
			fill(v, 0x55, m) // vectors 0, 2, 4, …
		}
		resp.VecMasks = append(resp.VecMasks, v)
	}
	return req, resp, rest, true
}

// fill sets every byte of a mask over m vectors to b, and clears the bits
// past m.
func fill(mask []byte, b byte, m int) {
	for i := range mask {
		mask[i] = b
	}
	clearPast(mask, m)
}

// FuzzProbeRespMemory runs a sequence of probe exchanges through the two
// ends of one connection — the client's memory encoding each request and
// decoding its reply, the owner's decoding the request and encoding the
// reply, as ShortenProbeRespOn — and holds every frame to the memory's
// contract: it decodes to what was encoded; the two memories are equal after
// it; it is never longer than its stateless form; a kept form is refused by
// the stateless decoders, a reply without its header by an empty memory, and
// the same reply with a header in front, which names a mask or an arc as kept
// where only a headless reply may, by the memory that accepted it; and
// neither memory grows past its bounds. What is left of the
// input once no whole step does is decoded as a request against a copy of
// the owner's memory, where a kept request accepted re-encodes to the bytes
// it came in, and as the reply to the last request against the client's.
// Its corpus holds an arc that changes mid-stream, a NumVecs, a metric list
// and a run that change, replies all kept with an arc and without, and
// evictions inside one reply and across replies.
func FuzzProbeRespMemory(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var cli, srv Memory
		var last ProbeReq
		for step := 0; ; step++ {
			req, resp, rest, ok := memStep(data)
			if !ok {
				break
			}
			data, last = rest, req

			whole, err := EncodeProbeReq(req)
			if err != nil {
				t.Fatalf("step %d: EncodeProbeReq: %v", step, err)
			}
			ask := AppendProbeReqOn(nil, req, &cli)
			if len(ask) > len(whole) {
				t.Fatalf("step %d: a request of %d bytes with a memory, %d without", step, len(ask), len(whole))
			}
			if ask[1] == TagProbeReqKept {
				_, serr := DecodeProbeReq(ask)
				_, eerr := DecodeProbeReqOn(nil, ask, &Memory{})
				if serr == nil || eerr == nil {
					t.Fatalf("step %d: a kept request decoded statelessly (%v) or by an empty memory (%v)", step, serr, eerr)
				}
			}
			asked, err := DecodeProbeReqOn(nil, ask, &srv)
			if err != nil || asked.Bit != req.Bit || asked.Span != req.Span || asked.NumVecs != req.NumVecs || len(asked.Metrics) != len(req.Metrics) {
				t.Fatalf("step %d: request %+v decoded as %+v, %v", step, req, asked, err)
			}
			for i, metric := range req.Metrics {
				if asked.Metrics[i] != uint64(FoldMetric(metric)) {
					t.Fatalf("step %d: metric %d decoded as %d", step, metric, asked.Metrics[i])
				}
			}
			if !reflect.DeepEqual(cli.probe, srv.probe) { // a request records nothing else
				t.Fatalf("step %d: after the request the two ends' memories differ", step)
			}

			stateless, err := EncodeProbeResp(resp)
			if err != nil {
				t.Fatalf("step %d: EncodeProbeResp: %v", step, err)
			}
			buf, err := AppendProbeRespHeader(nil, resp.Bit, resp.Span, resp.NumVecs, len(resp.VecMasks))
			if err != nil {
				t.Fatalf("step %d: header: %v", step, err)
			}
			for _, v := range resp.VecMasks {
				buf = append(buf, v...)
			}
			if resp.HasArc {
				buf = AppendArc(buf, resp.ArcLo)
			}
			frame := ShortenProbeRespOn(buf, 0, asked.Metrics, &srv)
			if len(frame) > len(stateless) {
				t.Fatalf("step %d: %d bytes with a memory, %d without", step, len(frame), len(stateless))
			}
			if frame[1] == TagProbeRespKept || frame[1] == TagProbeRespSame {
				if _, err := DecodeProbeResp(frame); err == nil {
					t.Fatalf("step %d: a reply without its header decoded statelessly", step)
				}
			}
			var forms MaskForms
			got, err := DecodeProbeRespTo(nil, req, frame, &cli, &forms)
			if err != nil || !sameResp(got, resp) {
				t.Fatalf("step %d: decoded %+v, %v; want %+v", step, got, err, resp)
			}
			headless := frame[1] == TagProbeRespKept || frame[1] == TagProbeRespSame
			if alone, err := DecodeProbeRespTo(nil, req, frame, &Memory{}, nil); headless != (err != nil) || err == nil && !sameResp(alone, resp) {
				t.Fatalf("step %d: a reply without its header (%v) decoded by an empty memory: %+v, %v", step, headless, alone, err)
			}
			if !reflect.DeepEqual(cli, srv) {
				t.Fatalf("step %d: after the reply the two ends' memories differ", step)
			}
			names := forms[formKept] > 0 || resp.HasArc && !bytes.HasSuffix(frame, AppendArc(nil, resp.ArcLo))
			if frame[1] == TagProbeRespKept && names {
				headed, _ := AppendProbeRespHeader(nil, resp.Bit, resp.Span, resp.NumVecs, len(resp.VecMasks))
				headed[1] = TagProbeRespCoded
				if got, err := DecodeProbeRespTo(nil, req, append(headed, frame[2:]...), &cli, nil); err == nil {
					t.Fatalf("step %d: a headed reply naming a mask or the arc as kept accepted as %+v", step, got)
				}
			}
			if len(cli.keys) > memoryMasks || cap(cli.keys) > memoryMasks || cap(cli.masks) > memoryBytes ||
				cap(srv.keys) > memoryMasks || cap(srv.masks) > memoryBytes || len(srv.index) != 1<<indexBits ||
				cap(cli.probe.fields) > keptBytes || cap(srv.probe.fields) > keptBytes {
				t.Fatalf("step %d: a memory holds %d keys in %d, %d mask bytes, an index of %d, %d request bytes",
					step, len(srv.keys), cap(srv.keys), cap(srv.masks), len(srv.index), cap(srv.probe.fields))
			}
		}

		// Hostile bytes against the primed memories: a kept request is refused,
		// or is the one kept form of what it decodes to; and a reply decodes or
		// is refused, without a panic.
		before := srv
		before.probe.fields = bytes.Clone(srv.probe.fields)
		if q, err := DecodeProbeReqOn(nil, data, &srv); err == nil && data[1] == TagProbeReqKept {
			if _, err := EncodeProbeReq(q); err != nil {
				t.Fatalf("kept request % x accepted as %+v, which does not encode: %v", data, q, err)
			}
			if again := AppendProbeReqOn(nil, q, &before); !bytes.Equal(again, data) || !reflect.DeepEqual(before, srv) {
				t.Fatalf("kept request % x accepted, re-encodes as % x", data, again)
			}
		}
		DecodeProbeRespTo(nil, last, data, &cli, nil)
	})
}
