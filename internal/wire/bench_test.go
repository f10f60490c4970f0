package wire

import (
	"testing"
)

// The wire codec's rung: one probe exchange's encoders and decoders at the
// daemons' geometry — m = 64, a run of seven positions, 16 metrics — on a
// connection that has carried the exchange before, and, for the reply, on
// one that has not. Each reports allocs/op: a warm connection's codec
// allocates nothing.

// benchReq is the request the rows below send; benchResp is its reply, each
// metric's mask at each position one of a few vectors set or clear.
var benchReq = ProbeReq{Bit: 2, Span: 6, NumVecs: 64, Metrics: benchMetrics(16)}

func benchMetrics(n int) []uint64 {
	metrics := make([]uint64, n)
	for i := range metrics {
		metrics[i] = uint64(1000 + i)
	}
	return metrics
}

// benchResp is benchReq's dense reply, with an arc, as a server builds it
// before it shortens it.
func benchResp(b *testing.B) []byte {
	masks := (int(benchReq.Span) + 1) * len(benchReq.Metrics)
	resp, err := AppendProbeRespHeader(nil, benchReq.Bit, benchReq.Span, benchReq.NumVecs, masks)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < masks; i++ {
		word := uint64(1)<<(i%64) | uint64(1)<<((7*i)%64)
		if i%3 == 0 {
			word = ^word
		}
		resp = AppendMask(resp, []uint64{word}, int(benchReq.NumVecs))
	}
	return AppendArc(resp, 0xDEADBEEF)
}

// BenchmarkProbeReqKept encodes and decodes the request on a connection
// whose memory holds it: three bytes, and a read of the remembered fields.
func BenchmarkProbeReqKept(b *testing.B) {
	var cli, srv Memory
	whole := AppendProbeReqOn(nil, benchReq, &cli)
	if _, err := DecodeProbeReqOn(nil, whole, &srv); err != nil {
		b.Fatal(err)
	}
	kept := AppendProbeReqOn(nil, benchReq, &cli)
	if kept[1] != TagProbeReqKept {
		b.Fatalf("request % x is not kept", kept)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, len(whole))
		for i := 0; i < b.N; i++ {
			buf = AppendProbeReqOn(buf[:0], benchReq, &cli)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		metrics := make([]uint64, 0, len(benchReq.Metrics))
		for i := 0; i < b.N; i++ {
			q, err := DecodeProbeReqOn(metrics, kept, &srv)
			if err != nil {
				b.Fatal(err)
			}
			metrics = q.Metrics
		}
	})
}

// BenchmarkProbeResp shortens the dense reply as the server sends it
// (ShortenProbeRespOn, each iteration from a fresh copy of the dense reply)
// and decodes what it sent into the scan's arena (DecodeProbeRespTo):
// stateless — every mask coded, the header and the arc whole — and on a
// warm connection, where the same reply is its tag alone.
func BenchmarkProbeResp(b *testing.B) {
	dense := benchResp(b)
	for _, row := range []struct {
		name string
		warm bool
	}{{"stateless", false}, {"kept", true}} {
		var cli, srv *Memory
		if row.warm {
			cli, srv = new(Memory), new(Memory)
		}
		shorten := func(buf []byte) []byte {
			return ShortenProbeRespOn(append(buf[:0], dense...), 0, benchReq.Metrics, srv)
		}
		frame := shorten(nil)
		if _, err := DecodeProbeRespTo(nil, benchReq, frame, cli, nil); err != nil {
			b.Fatal(err)
		}
		if row.warm {
			frame = shorten(nil)
		}
		b.Run(row.name+"/shorten", func(b *testing.B) {
			b.ReportAllocs()
			buf := make([]byte, 0, len(dense))
			for i := 0; i < b.N; i++ {
				buf = shorten(buf)
			}
		})
		b.Run(row.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			var arena MaskArena
			for i := 0; i < b.N; i++ {
				arena.Reset()
				if _, err := DecodeProbeRespTo(&arena, benchReq, frame, cli, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
