package netdht

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"

	"dhsketch/internal/chord"
	"dhsketch/internal/dht"
	"dhsketch/internal/wire"
)

// FuzzDecodeControl feeds arbitrary frames to the control-plane decoders
// — the parsers of everything a peer can send that internal/wire does
// not cover. Whatever the input, a decoder must not panic, and whatever
// it accepts must survive a re-encode: decode(encode(decode(buf))) is
// the value decode(buf) gave, the encoding is as long as buf was — no
// decoder skips bytes behind its message — and with a byte of junk behind
// it the encoding is refused.
func FuzzDecodeControl(f *testing.F) {
	a, b := chord.Ref{ID: 1, Addr: "10.0.0.1:4000"}, chord.Ref{ID: 1 << 63, Addr: "b:2"}
	longAck := encodeStoreAck(chord.Found{Hops: 3, Stale: 1, Owner: a, Near: &chord.Neighbors{Pred: b, Succ: []chord.Ref{b, a}}})
	hugeAck := append([]byte(nil), longAck...)
	hugeAck[routedHead+10+len(a.Addr)+1+10+len(b.Addr)] = 255 // the successor count
	for _, seed := range [][]byte{
		encodeFindSucc(findSuccMsg{flags: flagForwarded | flagDeliver, key: 42, hops: 3, stale: 1}),
		encodeFindSucc(findSuccMsg{flags: flagNeighbors, key: 42}),
		// The routed store: the same header, a tuple frame behind it; and its ack.
		encodeFindSucc(findSuccMsg{flags: flagForwarded, key: 42, hops: 1, tuple: tupleOf(wire.EncodeInsert(wire.Insert{Metric: 7, Vector: 3, Bit: 2, TTL: 9}))}),
		encodeFindSucc(findSuccMsg{key: 42, tuple: tupleOf(wire.EncodeBulkInsert(wire.BulkInsert{Metric: 7, Bit: 2, Vectors: []uint16{1, 2}}))}),
		storeFrame(findSuccMsg{key: 42}, encodePing()),
		encodeStoreAck(chord.Found{Hops: 3, Stale: 1}),
		// The kept forms, which only a memory decodes.
		{wire.Version, tagStoreKept, 1 << 5, 0, 0, 0, 0, 0, 0, 0, 42, 0, 9, 2, 0, 3}, // the TTL changed
		{wire.Version, tagStoreAckKept},
		// The long ack of a flagged store — the storing node and its
		// neighbourhood — and its cuts: inside the ref, a successor count the
		// frame cannot hold, a byte behind the neighbourhood.
		longAck,
		longAck[:routedHead+4],
		longAck[:routedHead+10+len(a.Addr)],
		hugeAck,
		append(append([]byte(nil), longAck...), 0),
		encodeStoreAck(chord.Found{Owner: a, Near: &chord.Neighbors{}}),
		encodeStoreAck(chord.Found{Owner: chord.Ref{ID: 7}, Near: &chord.Neighbors{Succ: []chord.Ref{{ID: 7}}}}),
		encodeFindSuccResp(chord.Found{Hops: 5, Stale: 2, Owner: a}),
		// The flagged reply: the owner's neighbourhood behind it.
		encodeFindSuccResp(chord.Found{Hops: 5, Stale: 2, Owner: a, Near: &chord.Neighbors{Pred: b, Succ: []chord.Ref{b, a}}}),
		encodeFindSuccResp(chord.Found{Owner: a, Near: &chord.Neighbors{}}),
		encodeNeighborsResp(a, chord.Neighbors{Pred: b, Succ: []chord.Ref{b, a}}),
		encodeNeighborsResp(a, chord.Neighbors{}),
		encodeNotify(b),
		encodeAck(true),
		encodeErr(dht.ClassNoRoute, 7, 7),
		// The empty-address refs the decoders used to accept.
		encodeNotify(chord.Ref{ID: 7}),
		encodeFindSuccResp(chord.Found{Owner: chord.Ref{ID: 7}}),
		encodeFindSuccResp(chord.Found{Owner: a, Near: &chord.Neighbors{Pred: chord.Ref{ID: 7, Addr: "x"}, Succ: []chord.Ref{{ID: 7}}}}),
		encodeNeighborsResp(a, chord.Neighbors{Succ: []chord.Ref{{ID: 7}}}),
		{},
	} {
		f.Add(seed)
		if len(seed) > 3 {
			f.Add(seed[:len(seed)-1])
		}
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		// Every decoder sees every input: each must reject the others'
		// tags, not misparse them.
		fixpoint(t, buf, func(b []byte) (findSuccMsg, error) { return decodeFindSucc(b, nil) }, encodeFindSucc)
		fixpoint(t, buf, func(b []byte) (chord.Found, error) { return decodeFindSuccResp(b, nil) }, encodeFindSuccResp)
		// A neighbors reply decodes to the neighbourhood alone; the sender's
		// ref ahead of it is read again here to re-encode it.
		fixpoint(t, buf,
			func(b []byte) (chord.Found, error) {
				nb, err := decodeNeighborsResp(b, nil, nil)
				if err != nil {
					return chord.Found{}, err
				}
				self, _, _ := decodeRef(b[2:], nil)
				return chord.Found{Owner: self, Near: &nb}, nil
			},
			func(f chord.Found) []byte { return encodeNeighborsResp(f.Owner, *f.Near) })
		fixpoint(t, buf, func(b []byte) (chord.Ref, error) { return decodeNotify(b, nil) }, encodeNotify)
		fixpoint(t, buf, decodeAck, encodeAck)
		fixpoint(t, buf, decodeStoreAck, encodeStoreAck)
		fixpoint(t, buf,
			func(b []byte) (e [3]uint16, err error) {
				code, hops, stale, err := decodeErr(b)
				return [3]uint16{uint16(code), hops, stale}, err
			},
			func(e [3]uint16) []byte { return encodeErr(dht.Class(e[0]), e[1], e[2]) })

		// A routed store carries one data-plane tuple frame.
		if m, err := decodeFindSucc(buf, nil); err == nil && m.isStore() {
			if tag := m.tuple.Tag; tag != wire.TagInsert && tag != wire.TagBulkInsert {
				t.Fatalf("store accepted a payload with tag %#x", tag)
			}
		}

		// No accepted frame carries a ref that names nobody.
		var refs []chord.Ref
		if r, err := decodeNotify(buf, nil); err == nil {
			refs = append(refs, r)
		}
		if m, err := decodeFindSuccResp(buf, nil); err == nil {
			refs = append(refs, m.Owner)
			if m.Near != nil {
				refs = append(refs, m.Near.Succ...)
			}
		}
		if nb, err := decodeNeighborsResp(buf, nil, nil); err == nil {
			self, _, _ := decodeRef(buf[2:], nil)
			refs = append(append(refs, self), nb.Succ...)
		}
		if m, err := decodeStoreAck(buf); err == nil && m.Near != nil {
			refs = append(append(refs, m.Owner), m.Near.Succ...)
		}
		for _, r := range refs {
			if !r.Valid() {
				t.Fatalf("decoded a ref with an empty address: %+v", r)
			}
		}
	})
}

// fixpoint checks one decoder/encoder pair against buf.
func fixpoint[M any](t *testing.T, buf []byte, dec func([]byte) (M, error), enc func(M) []byte) {
	t.Helper()
	m, err := dec(buf)
	if err != nil {
		return
	}
	raw := enc(m)
	m2, err := dec(raw)
	if err != nil {
		t.Fatalf("re-encoded %T rejected: %v", m, err)
	}
	if !reflect.DeepEqual(m, m2) {
		t.Fatalf("%T not a fixpoint: %+v != %+v", m, m2, m)
	}
	if len(raw) != len(buf) {
		t.Fatalf("%T accepted %d bytes but encodes %d", m, len(buf), len(raw))
	}
	if _, err := dec(append(raw, 0)); err == nil {
		t.Fatalf("%T accepted with a byte of junk behind it", m)
	}
}

// onWire is payload as writeFrame sends it: behind a prefix that says its
// length.
func onWire(payload []byte) []byte {
	var b bytes.Buffer
	if err := writeFrame(&b, framed(payload)); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// FuzzReadFrame feeds an arbitrary byte stream to readFrame, frame after
// frame into one reused buffer the way a connection reads: one exchange at a
// time, so each read finds what the stream holds up to the end of the frame
// its next prefix declares, and no further. Whatever the stream, readFrame
// must not panic; a frame it yields is exactly as long as its prefix
// declared — never 0, never more than maxFrame — and holds the stream's
// bytes behind that prefix; what it refuses, it refuses for the reason the
// prefix gives; a buffer that has carried other frames decides nothing: a
// fresh buffer for every frame reads the same frames and ends on the same
// error; and a frame that arrives with a byte of the next one behind it is
// refused, not read and the byte dropped.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(onWire(encodePing()))
	f.Add(append(onWire(encodeErr(dht.ClassOther, 1, 2)), onWire(encodePong())...))
	f.Add(append(onWire(make([]byte, 2*frameBufMin)), onWire(encodePing())...)) // grows the buffer, then reuses it
	f.Add([]byte{0, 0, 0, 0, 1})                                                // empty frame
	f.Add([]byte{0, 0x10, 0, 1, 1})                                             // maxFrame + 1
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0, 0, 0, 8, 1, 2}) // cut short
	f.Fuzz(func(t *testing.T, stream []byte) {
		var buf []byte
		for off := 0; ; {
			waiting := stream[off:]
			if len(waiting) >= 4 {
				if declared := binary.BigEndian.Uint32(waiting); declared <= maxFrame {
					waiting = waiting[:min(len(waiting), 4+int(declared))]
				}
			}
			var err error
			buf, err = readFrame(bytes.NewReader(waiting), buf)
			other, ferr := readFrame(bytes.NewReader(waiting), nil)
			if (err == nil) != (ferr == nil) || err != nil && err.Error() != ferr.Error() || !bytes.Equal(buf, other) {
				t.Fatalf("offset %d: reused buffer read %d bytes (%v), fresh buffer %d bytes (%v)", off, len(buf), err, len(other), ferr)
			}
			var declared uint32
			if len(stream)-off >= 4 {
				declared = binary.BigEndian.Uint32(stream[off:])
			}
			if err != nil {
				switch {
				case len(stream)-off < 4:
					if err != io.EOF && err != io.ErrUnexpectedEOF {
						t.Fatalf("offset %d: a cut prefix gave %v", off, err)
					}
				case declared == 0:
					if err != errEmptyFrame {
						t.Fatalf("offset %d: an empty frame gave %v", off, err)
					}
				case declared > maxFrame:
					if err != errFrameTooBig {
						t.Fatalf("offset %d: a prefix of %d gave %v", off, declared, err)
					}
				default:
					if err != io.EOF && err != io.ErrUnexpectedEOF || len(stream)-off-4 >= int(declared) {
						t.Fatalf("offset %d: a whole frame of %d bytes gave %v", off, declared, err)
					}
				}
				if len(buf) != 0 {
					t.Fatalf("offset %d: %d bytes came back with the error %v", off, len(buf), err)
				}
				return
			}
			if len(buf) != int(declared) || declared == 0 || declared > maxFrame {
				t.Fatalf("offset %d: prefix declares %d, frame has %d bytes", off, declared, len(buf))
			}
			if !bytes.Equal(buf, stream[off+4:off+4+len(buf)]) {
				t.Fatalf("offset %d: frame is not the stream's bytes", off)
			}
			off += 4 + len(buf)
			// A fresh buffer's first Read takes frameBufMin bytes: a short
			// frame with one more byte behind it arrives whole, and is refused.
			if off < len(stream) && len(waiting) < frameBufMin {
				if got, err := readFrame(bytes.NewReader(stream[off-len(waiting):off+1]), nil); err != errFrameSurplus || len(got) != 0 {
					t.Fatalf("offset %d: a frame with a byte behind it gave %d bytes, %v", off, len(got), err)
				}
			}
			buf = trimFrame(buf)
		}
	})
}

// storeStep reads one store and its ack off the front of data, and returns
// what is left; ok is false when data holds no whole step. A step is: flags,
// hops, stale, a shape byte (bit 0 a bulk frame, bits 1–3 its vector count,
// bit 4 its reserved byte set, bit 5 an ack that names the storing node and
// its neighbourhood), the folded metric (2), the TTL (2), the bit, the key
// (8), the ack's hops and stale, then the vectors, 2 bytes each: one for an
// insert, the count for a bulk frame.
func storeStep(data []byte) (m findSuccMsg, ack chord.Found, rest []byte, ok bool) {
	const head = 19
	if len(data) < head {
		return m, ack, nil, false
	}
	shape := data[3]
	vectors := 1
	if shape&1 != 0 {
		vectors = int(shape>>1) & 7
	}
	if len(data) < head+2*vectors {
		return m, ack, nil, false
	}
	m = findSuccMsg{flags: data[0], hops: uint16(data[1]), stale: uint16(data[2]), key: binary.BigEndian.Uint64(data[9:])}
	metric, ttl := uint64(binary.BigEndian.Uint16(data[4:])), binary.BigEndian.Uint16(data[6:])
	vs := make([]uint16, vectors)
	for i := range vs {
		vs[i] = binary.BigEndian.Uint16(data[head+2*i:])
	}
	var frame []byte
	if shape&1 == 0 {
		frame = wire.EncodeInsert(wire.Insert{Metric: metric, Vector: vs[0], Bit: data[8], TTL: ttl})
	} else {
		frame = wire.EncodeBulkInsert(wire.BulkInsert{Metric: metric, Bit: data[8], TTL: ttl, Vectors: vs})
		if shape&16 != 0 {
			frame[7] = 1
		}
	}
	m.tuple = tupleOf(frame)
	ack = chord.Found{Hops: int(data[17]), Stale: int(data[18])}
	if shape&32 != 0 {
		ack.Owner = chord.Ref{ID: m.key, Addr: "a:1"}
		ack.Near = &chord.Neighbors{Succ: []chord.Ref{{ID: 1, Addr: "b:2"}}}
	}
	return m, ack, data[head+2*vectors:], true
}

// FuzzStoreMemory runs a sequence of stores and their acks through the two
// ends of one connection — the client's memory encoding each store and
// decoding its ack, the server's decoding the store and encoding the ack —
// and holds every frame to the memory's contract: it decodes to what was
// encoded; the two memories are equal after it; it is never longer than its
// stateless form; and a kept form is refused by the stateless decoder and by
// an empty memory. What is left of the input once no whole step does is
// decoded as a frame against the server's memory: whatever is accepted
// re-encodes, against the client's, to the bytes it came in. Its corpus holds a metric
// change, a TTL change, a forwarded store with hops and stale, bulk stores
// (one whose reserved byte no kept form carries), a flagged store through
// the entry with its long ack, and stores that change all six fields, an
// insert after a bulk store and a bulk store after an insert.
func FuzzStoreMemory(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var cli, srv wire.Memory
		var held bool // whether the memories hold a store
		for step := 0; ; step++ {
			m, ack, rest, ok := storeStep(data)
			if !ok {
				break
			}
			data = rest
			stateless := encodeFindSucc(m)
			fields := storeFields(nil, m)
			leans := held && fields != nil // a kept store is never longer than the whole one
			held = fields != nil
			frame := appendFindSucc(nil, m, &cli)
			if len(frame) > len(stateless) {
				t.Fatalf("step %d: a store of %d bytes with a memory, %d without", step, len(frame), len(stateless))
			}
			if kept := frame[1] == tagStoreKept; kept != leans || !kept && !bytes.Equal(frame, stateless) {
				t.Fatalf("step %d: store % x, stateless % x; want it kept: %v", step, frame, stateless, leans)
			}
			if frame[1] == tagStoreKept {
				_, serr := decodeFindSucc(frame, nil)
				_, eerr := decodeFindSucc(frame, &wire.Memory{})
				if serr == nil || eerr == nil {
					t.Fatalf("step %d: a kept store decoded statelessly (%v) or by an empty memory (%v)", step, serr, eerr)
				}
			}
			if got, err := decodeFindSucc(frame, &srv); err != nil || !reflect.DeepEqual(got, m) {
				t.Fatalf("step %d: store %+v decoded as %+v, %v", step, m, got, err)
			}
			if !reflect.DeepEqual(cli, srv) {
				t.Fatalf("step %d: after the store the client holds %+v, the server %+v", step, cli, srv)
			}

			full := encodeStoreAck(ack)
			reply := appendStoreAck(nil, ack, &srv)
			if len(reply) > len(full) {
				t.Fatalf("step %d: an ack of %d bytes with a memory, %d without", step, len(reply), len(full))
			}
			if reply[1] == tagStoreAckKept {
				_, serr := decodeStoreAck(reply)
				_, eerr := decodeStoreAckOn(reply, &wire.Memory{}, nil)
				if serr == nil || eerr == nil {
					t.Fatalf("step %d: a kept ack decoded statelessly (%v) or by an empty memory (%v)", step, serr, eerr)
				}
			}
			if got, err := decodeStoreAckOn(reply, &cli, nil); err != nil || !reflect.DeepEqual(got, ack) {
				t.Fatalf("step %d: ack %+v decoded as %+v, %v", step, ack, got, err)
			}
			if !reflect.DeepEqual(cli, srv) {
				t.Fatalf("step %d: after the ack the client holds %+v, the server %+v", step, cli, srv)
			}
		}

		// Hostile bytes against the primed memories, which are equal: a kept
		// store is refused by the server's, or is the one kept form of what it
		// decodes to, which the client's encodes.
		if m, err := decodeFindSucc(data, &srv); err == nil && data[1] == tagStoreKept {
			if again := appendFindSucc(nil, m, &cli); !bytes.Equal(again, data) || !reflect.DeepEqual(cli, srv) {
				t.Fatalf("kept store % x accepted, re-encodes as % x", data, again)
			}
		}
		if m, err := decodeStoreAckOn(data, &cli, nil); err == nil && data[1] == tagStoreAckKept {
			if again := appendStoreAck(nil, m, &srv); !bytes.Equal(again, data) {
				t.Fatalf("kept ack % x accepted, re-encodes as % x", data, again)
			}
		}
	})
}
