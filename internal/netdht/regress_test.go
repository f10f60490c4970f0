package netdht

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"dhsketch/internal/chord"
	"dhsketch/internal/core"
	"dhsketch/internal/dht"
	"dhsketch/internal/sketch"
	"dhsketch/internal/store"
	"dhsketch/internal/wire"
)

// Regression tests for the dhslint v2 findings fixed in this package:
// the probe-request allocation bound (wirebounds), the symmetric
// writeFrame size check, and the handleConn idle deadline
// (conndeadline) — and for client input that used to be accepted and
// then crash a later Count: unusable sketch geometry and probe replies
// of the wrong shape.

// TestNewClientRejectsUnusableGeometry: m = 1 with a LogLog-family
// estimator has no α constant (the first Count panicked in the
// estimator), and m = 65536 wraps the probe request's 16-bit vector
// count to zero (the empty reply mask was then indexed out of range).
// A negative Lim scans with no attempts and serves an empty estimate, and
// a negative TTL is no lifetime; core.Config refuses both. All must fail
// at construction.
func TestNewClientRejectsUnusableGeometry(t *testing.T) {
	for _, cfg := range []ClientConfig{
		{Entry: "127.0.0.1:1", K: 16, M: 1, Kind: sketch.KindSuperLogLog},
		{Entry: "127.0.0.1:1", K: 24, M: 65536, Kind: sketch.KindSuperLogLog},
		{Entry: "127.0.0.1:1", Lim: -1},
		{Entry: "127.0.0.1:1", TTL: -1},
	} {
		if c, err := NewClient(cfg); err == nil {
			c.Close()
			t.Errorf("NewClient accepted k=%d m=%d kind=%v lim=%d ttl=%d", cfg.K, cfg.M, cfg.Kind, cfg.Lim, cfg.TTL)
		}
	}
}

// TestGeometryFlagsDefaults: the daemons' geometry flags default to the
// geometry scripts/smoke.sh and bench/ pass (GEOM: -k 16 -m 64 -kind sll
// -lim 5), so either run reads the same with its flags or without.
func TestGeometryFlagsDefaults(t *testing.T) {
	parse := func(args ...string) ClientConfig {
		var c ClientConfig
		fs := flag.NewFlagSet("geometry", flag.ContinueOnError)
		c.GeometryFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatalf("parse %q: %v", args, err)
		}
		return c
	}
	want := ClientConfig{K: 16, M: 64, Kind: sketch.KindSuperLogLog, Lim: 5, Seed: 1}
	for _, args := range [][]string{nil, {"-k", "16", "-m", "64", "-kind", "sll", "-lim", "5"}} {
		if got := parse(args...); got != want {
			t.Errorf("flags %q parse to %+v, want %+v", args, got, want)
		}
	}
}

// TestCountFailsMisshapenProbeReply: a peer running a different -m (or
// a hostile one) answers probes with masks that do not match the
// request. Each such reply must count as a failed probe — a degraded
// estimate — instead of being indexed as if it had the client's m.
func TestCountFailsMisshapenProbeReply(t *testing.T) {
	replies := map[string]wire.ProbeResp{
		"short mask":      {NumVecs: 8, VecMasks: [][]byte{{0xFF}}},
		"long mask":       {NumVecs: 128, VecMasks: [][]byte{make([]byte, 16)}},
		"no mask":         {NumVecs: 64},
		"one mask extra":  {NumVecs: 64, VecMasks: [][]byte{make([]byte, 8), make([]byte, 8)}},
		"zero-vector ack": {NumVecs: 0, VecMasks: [][]byte{{}}},
	}
	for name, reply := range replies {
		t.Run(name, func(t *testing.T) {
			entry := fakePeer(t, func(self string, req []byte) []byte {
				if req[1] == tagFindSucc {
					return encodeFindSuccResp(chord.Found{Owner: chord.Ref{ID: 1, Addr: self}})
				}
				raw, err := wire.EncodeProbeResp(reply)
				if err != nil {
					t.Errorf("EncodeProbeResp: %v", err)
				}
				return raw
			})
			// K=8, M=64: the scan covers bits 2..0. Every target routes
			// to the one fake owner, so each interval probes it once and
			// spends its second attempt on the duplicate.
			c, err := NewClient(ClientConfig{Entry: entry, K: 8, M: 64, Kind: sketch.KindSuperLogLog, Lim: 2})
			if err != nil {
				t.Fatalf("NewClient: %v", err)
			}
			defer c.Close()
			res, err := c.Count(42)
			if err != nil {
				t.Fatalf("Count: %v", err)
			}
			// The estimate of the all-empty sketch is the estimator's
			// affair; the accounting is what is under test.
			want := CountResult{Estimate: res.Estimate, Quality: core.Quality{
				ProbesAttempted: 6, ProbesFailed: 3, IntervalsSkipped: 3, VectorsUnresolved: 64, Degraded: true}}
			if res != want {
				t.Errorf("Count = %+v, want %+v", res, want)
			}
		})
	}
}

// TestProbeReqOversizeRejected: a 400-odd-byte probe request claiming
// 65535 vectors across 200 metrics would demand ~1.6 MiB of mask
// allocations — more than one frame can carry back. The server must
// refuse it with dht.ClassOther before allocating, and keep answering
// well-formed requests on the same dispatch path.
func TestProbeReqOversizeRejected(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(s.Close)

	req, err := wire.EncodeProbeReq(wire.ProbeReq{
		Bit:     0,
		NumVecs: 65535,
		Metrics: make([]uint64, 200),
	})
	if err != nil {
		t.Fatalf("EncodeProbeReq: %v", err)
	}
	if overflow := 8 + 200*wire.MaskBytes(65535); overflow <= maxFrame {
		t.Fatalf("test premise broken: %d-byte reply fits a frame", overflow)
	}
	raw := s.dispatch(req)
	if len(raw) < 2 || raw[1] != tagErr {
		t.Fatalf("oversize probe-req got %v, want a tagErr reply", raw)
	}
	code, _, _, derr := decodeErr(raw)
	if derr != nil || code != dht.ClassOther {
		t.Fatalf("oversize probe-req class = %d (%v), want dht.ClassOther", code, derr)
	}

	small, err := wire.EncodeProbeReq(wire.ProbeReq{Bit: 3, NumVecs: 64, Metrics: []uint64{7}})
	if err != nil {
		t.Fatalf("EncodeProbeReq small: %v", err)
	}
	resp, err := wire.DecodeProbeResp(s.dispatch(small))
	if err != nil {
		t.Fatalf("well-formed probe-req after rejection: %v", err)
	}
	if len(resp.VecMasks) != 1 || len(resp.VecMasks[0]) != wire.MaskBytes(64) {
		t.Fatalf("probe reply shape: %d masks of %d bytes", len(resp.VecMasks), len(resp.VecMasks[0]))
	}
}

// TestProbeRunServed: a request for the run Bit … Bit+Span is answered
// with what the single-bit requests for those positions are answered
// with, bit-major, and counts as one probe; a run whose reply would not
// fit a frame, or whose masks its count field, is refused with dht.ClassOther —
// the oversize bound covers the span too.
func TestProbeRunServed(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(s.Close)
	st := s.ensureStore()
	for bit := uint8(2); bit < 7; bit++ {
		st.Set(store.Key{Metric: 7, Vector: int32(bit), Bit: bit}, 0)
		st.Set(store.Key{Metric: 9, Vector: int32(40 + bit), Bit: bit}, 0)
	}
	encode := func(q wire.ProbeReq) []byte {
		t.Helper()
		req, err := wire.EncodeProbeReq(q)
		if err != nil {
			t.Fatalf("EncodeProbeReq: %v", err)
		}
		return req
	}
	probe := func(q wire.ProbeReq) wire.ProbeResp {
		t.Helper()
		resp, err := wire.DecodeProbeResp(s.dispatch(encode(q)))
		if err != nil {
			t.Fatalf("probe %+v: %v", q, err)
		}
		return resp
	}

	before := s.Counters().Snapshot().Probed
	run := probe(wire.ProbeReq{Bit: 1, Span: 6, NumVecs: 64, Metrics: []uint64{7, 9}})
	if n := s.Counters().Snapshot().Probed - before; n != 1 {
		t.Errorf("a run of 7 positions counted %d probes, want 1", n)
	}
	if run.Bit != 1 || run.Span != 6 || len(run.VecMasks) != 14 {
		t.Fatalf("run reply: bit %d span %d, %d masks", run.Bit, run.Span, len(run.VecMasks))
	}
	for b := 0; b < 7; b++ {
		one := probe(wire.ProbeReq{Bit: uint8(1 + b), NumVecs: 64, Metrics: []uint64{7, 9}})
		if one.Span != 0 || !reflect.DeepEqual(one.VecMasks, run.VecMasks[2*b:2*b+2]) {
			t.Errorf("position %d: run says %x, single-bit probe %x", 1+b, run.VecMasks[2*b:2*b+2], one.VecMasks)
		}
		if has := wire.HasVec(run.VecMasks[2*b], 1+b); has != (b >= 1 && b < 6) {
			t.Errorf("position %d, metric 7: vector %d set = %v", 1+b, 1+b, has)
		}
	}

	offField := encode(wire.ProbeReq{Bit: 200, Span: 55, NumVecs: 64, Metrics: []uint64{7}})
	offField[len(offField)-1]++ // 200+56: what only a hostile encoder sends
	for name, req := range map[string][]byte{
		// 100 metrics × 8 KiB masks fit a frame for one position, not for two.
		"reply beyond the frame":   encode(wire.ProbeReq{Span: 1, NumVecs: 65535, Metrics: make([]uint64, 100)}),
		"masks beyond the count":   encode(wire.ProbeReq{Span: 255, NumVecs: 8, Metrics: make([]uint64, 257)}),
		"masks of no width at all": encode(wire.ProbeReq{Span: 255, NumVecs: 0, Metrics: make([]uint64, 65535)}),
		"run off the bit field":    offField,
	} {
		if code, _, _, err := decodeErr(s.dispatch(req)); err != nil || code != dht.ClassOther {
			t.Errorf("%s: class = %d (%v), want dht.ClassOther", name, code, err)
		}
	}
	if 8+100*wire.MaskBytes(65535) > maxFrame || 8+2*100*wire.MaskBytes(65535) <= maxFrame {
		t.Error("test premise broken: the two-position reply must be the one that overflows")
	}
}

// TestWriteFrameOversize: the writer enforces the same maxFrame bound
// the reader does, so an over-large payload fails at the source instead
// of poisoning the peer's stream.
func TestWriteFrameOversize(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, framed(make([]byte, maxFrame+1))); !errors.Is(err, errFrameTooBig) {
		t.Fatalf("writeFrame(maxFrame+1) = %v, want errFrameTooBig", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("oversize write left %d bytes on the stream", buf.Len())
	}
	if err := writeFrame(&buf, framed(make([]byte, maxFrame))); err != nil {
		t.Fatalf("writeFrame(maxFrame) = %v, want success", err)
	}
}

// TestServerReapsIdleConn: handleConn arms a read deadline before every
// frame, so a connected-but-silent peer is reaped instead of pinning a
// handler goroutine forever. The timeout is a package variable so this
// test can shrink it; tests in this package run sequentially, so the
// save/restore cannot race another server.
func TestServerReapsIdleConn(t *testing.T) {
	shrinkBound(t, &serverIdleTimeout, 100*time.Millisecond)

	s, err := NewServer("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer s.Close()

	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err = c.Read(make([]byte, 1))
	if err == nil {
		t.Fatal("read on an idle conn unexpectedly returned data")
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("client deadline fired first (%v): server never reaped the idle conn", err)
	}
	if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
		// A RST surfaces as ECONNRESET rather than EOF; both prove the
		// server-side close happened.
		t.Logf("idle conn closed with %v (accepted: any server-side close)", err)
	}
}

// TestEmptyAddressRefRejected: a ref with a zero-length address names
// nobody, but the decoders used to pass it on. One such notify sent to
// a fresh ring of one installed a successor nobody can dial and latched
// linked; the next stabilize round emptied the list and /healthz
// reported a partition for a node that never had a peer. The frame must
// bounce with dht.ClassOther and leave the node exactly as it was, and a
// caller handed such a ref in a reply must see a failed exchange.
func TestEmptyAddressRefRejected(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(s.Close)
	before := s.Status()

	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if err := writeFrame(c, framed(encodeNotify(chord.Ref{ID: 7}))); err != nil {
		t.Fatalf("write notify: %v", err)
	}
	raw, err := readFrame(c, nil)
	if err != nil {
		t.Fatalf("read reply: %v", err)
	}
	if code, _, _, derr := decodeErr(raw); derr != nil || code != dht.ClassOther {
		t.Fatalf("empty-address notify got % x (class %d, %v), want dht.ClassOther", raw, code, derr)
	}
	if after := s.Status(); !reflect.DeepEqual(before, after) {
		t.Fatalf("rejected notify changed the node:\nbefore %+v\nafter  %+v", before, after)
	}
	s.round(chord.RoundStabilize)
	if ok, msg := s.Healthy(); !ok {
		t.Fatalf("ring of one unhealthy after a rejected notify: %s", msg)
	}

	valid := chord.Ref{ID: 1, Addr: "a:1"}
	for name, frame := range map[string][]byte{
		"find_succ owner": encodeFindSuccResp(chord.Found{Owner: chord.Ref{ID: 2}}),
		"neighbors self":  encodeNeighborsResp(chord.Ref{ID: 2}, chord.Neighbors{}),
		"neighbors succ":  encodeNeighborsResp(valid, chord.Neighbors{Succ: []chord.Ref{valid, {ID: 3}}}),
	} {
		var err error
		if frame[1] == tagFindSuccResp {
			_, err = decodeFindSuccResp(frame, nil)
		} else {
			_, err = decodeNeighborsResp(frame, nil, nil)
		}
		if !errors.Is(err, wire.ErrBadMessage) {
			t.Errorf("%s with an empty address decoded: err = %v, want ErrBadMessage", name, err)
		}
	}
}
