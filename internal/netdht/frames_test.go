package netdht

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"

	"dhsketch/internal/chord"
	"dhsketch/internal/dht"
	"dhsketch/internal/wire"
)

// shortenAfter encodes reply as the owner's end of a connection does, for a
// request of metrics, once the connection has carried each of before.
func shortenAfter(t *testing.T, metrics []uint64, before []wire.ProbeResp, reply wire.ProbeResp) []byte {
	t.Helper()
	var kept wire.Memory
	var frame []byte
	for _, r := range append(before, reply) {
		buf, err := wire.AppendProbeRespHeader(nil, r.Bit, r.Span, r.NumVecs, len(r.VecMasks))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range r.VecMasks {
			buf = append(buf, m...)
		}
		if r.HasArc {
			buf = wire.AppendArc(buf, r.ArcLo)
		}
		frame = wire.ShortenProbeRespOn(buf, 0, metrics, &kept)
	}
	return frame
}

// askAfter encodes the last of reqs as a client's end of a connection does
// once the connection has carried the ones before it.
func askAfter(t *testing.T, reqs ...wire.ProbeReq) []byte {
	t.Helper()
	var kept wire.Memory
	var frame []byte
	for _, q := range reqs {
		whole, err := wire.EncodeProbeReq(q)
		if err != nil {
			t.Fatal(err)
		}
		frame = wire.AppendProbeReqOn(nil, whole, &kept)
	}
	return frame
}

// onSocket encodes the last of stores as a client's end of a connection
// does once the connection has carried the ones before it, and the last of
// acks as the server's end does after the ones before it.
func onSocket(stores []findSuccMsg, acks []chord.Found) (store, ack []byte) {
	var out, in wire.Memory
	for _, m := range stores {
		store = appendFindSucc(nil, m, &out)
	}
	for _, f := range acks {
		ack = appendStoreAck(nil, f, &in)
	}
	return store, ack
}

// TestControlFrameBytes pins the bytes of both planes: one of each frame a
// client, relay or owner sends, encoded and compared with the hex it has
// always had. FuzzDecodeControl holds every decoder to its encoder; this
// holds the encoders to the wire, so a refactor of either side cannot move a
// byte unnoticed. The data plane's rows are a probe of one position and of a
// run, a reply dense, coded, and with its arc, and the same reply on a
// connection that carried it before, as an owner sends it: without its header
// (TagProbeRespKept), a mask as formKept (03) and the arc as the kept-arc flag
// (02), a reply that is all kept as its tag alone (TagProbeRespSame), and a
// reply whose masks all changed to ones no coding shortens, which goes dense
// with its whole arc even when the arc is the kept one. A probe on a
// connection that carried one before goes as TagProbeReqKept: its changed
// byte, then the fields that changed. A store and its ack on a
// connection that carried one before are pinned too: the store as
// tagStoreKept, its changed byte and the key, then the fields that changed,
// the bit and the vector or vectors — up to a store that changes all six
// fields, whose kept form is as long as the whole one; the ack as
// tagStoreAckKept.
func TestControlFrameBytes(t *testing.T) {
	a := chord.Ref{ID: 0x0102030405060708, Addr: "10.0.0.1:4000"}
	b := chord.Ref{ID: 1 << 63, Addr: "b:2"}
	near := &chord.Neighbors{Pred: b, Succ: []chord.Ref{b, a}}
	const key = 0xDEADBEEFCAFE0042
	insert := wire.EncodeInsert(wire.Insert{Metric: 7, Vector: 3, Bit: 2, TTL: 9})
	bulk := wire.EncodeBulkInsert(wire.BulkInsert{Metric: 7, Bit: 2, TTL: 9, Vectors: []uint16{1, 300}})
	must := func(frame []byte, err error) []byte {
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	half := []byte{0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55}
	empty, full, one := make([]byte, 8), bytes.Repeat([]byte{0xFF}, 8), make([]byte, 8)
	wire.SetVec(one, 9)
	runMetrics := []uint64{7, 9}
	run := wire.ProbeReq{Bit: 3, Span: 1, NumVecs: 64, Metrics: runMetrics}
	nextRun, oneMetric := run, run
	nextRun.Bit = 5
	oneMetric.Metrics = []uint64{7}
	arced := wire.ProbeResp{Bit: 3, Span: 1, NumVecs: 64, VecMasks: [][]byte{empty, full, one, half}, HasArc: true, ArcLo: key}
	moved := arced
	moved.VecMasks = [][]byte{empty, one, one, half} // metric 9's mask at bit 3 moved
	// Six masks that all change to one no coding shortens, under the same arc:
	// the coded reply would cost more than its header saves, so it goes dense
	// with its whole arc.
	sixMetrics := []uint64{1, 2, 3, 4, 5, 6}
	other := bytes.Repeat([]byte{0xAA}, 8)
	wasSix := wire.ProbeResp{Bit: 5, NumVecs: 64, VecMasks: [][]byte{half, half, half, half, half, half}, HasArc: true, ArcLo: key}
	allMoved := wasSix
	allMoved.VecMasks = [][]byte{other, other, other, other, other, other}
	// Stores on one socket: the first through the entry, flagged, then two by
	// the view — the same tuple fields under another key, and another metric
	// and vector.
	entryStore := findSuccMsg{flags: flagNeighbors, key: key, store: insert}
	viewStore := findSuccMsg{key: key + 1, store: insert}
	otherMetric := findSuccMsg{key: key + 2, store: wire.EncodeInsert(wire.Insert{Metric: 8, Vector: 5, Bit: 2, TTL: 9})}
	keptStore, keptAck := onSocket([]findSuccMsg{entryStore, viewStore, viewStore}, []chord.Found{{}, {}})
	changedStore, changedAck := onSocket([]findSuccMsg{entryStore, otherMetric}, []chord.Found{{Hops: 1}, {}})
	bulkStore := findSuccMsg{key: key + 3, store: bulk}
	keptBulk, _ := onSocket([]findSuccMsg{bulkStore, {key: key + 4, store: bulk}}, nil)
	// A bulk store with another TTL after the flagged insert: the tuple tag and
	// the TTL change.
	tagAndTTL, _ := onSocket([]findSuccMsg{entryStore, {flags: flagNeighbors, key: key + 5,
		store: wire.EncodeBulkInsert(wire.BulkInsert{Metric: 7, Bit: 2, TTL: 600, Vectors: []uint16{1, 300}})}}, nil)
	// An insert after a bulk store that shares none of its six fields: the
	// kept form is as long as the whole one.
	allChanged, _ := onSocket([]findSuccMsg{bulkStore, {flags: flagForwarded, key: key + 6, hops: 2, stale: 1,
		store: wire.EncodeInsert(wire.Insert{Metric: 8, Vector: 5, Bit: 2, TTL: 600})}}, nil)
	wideRun := run
	wideRun.Span, wideRun.NumVecs = 4, 512
	for _, tc := range []struct {
		name  string
		frame []byte
		hex   string
	}{
		{"find_succ", encodeFindSucc(findSuccMsg{key: key}),
			"011000deadbeefcafe004200000000"},
		{"find_succ flagged", encodeFindSucc(findSuccMsg{flags: flagNeighbors, key: key}),
			"011004deadbeefcafe004200000000"},
		{"find_succ forwarded, deliver", encodeFindSucc(findSuccMsg{flags: flagForwarded | flagDeliver, key: key, hops: 3, stale: 1}),
			"011003deadbeefcafe004200030001"},
		{"store insert", encodeFindSucc(findSuccMsg{flags: flagNeighbors, key: key, store: insert}),
			"011804deadbeefcafe004200000000010100070003020009"},
		{"store bulk, forwarded", encodeFindSucc(findSuccMsg{flags: flagForwarded, key: key, hops: 2, store: bulk}),
			"011801deadbeefcafe00420002000001020007020009000001012c"},
		{"store ack short", encodeStoreAck(chord.Found{Hops: 513, Stale: 2}),
			"011902010002"},
		{"store insert, kept", keptStore,
			"011a00deadbeefcafe0043020003"},
		{"store insert, kept, flags and metric changed", changedStore,
			"011a11deadbeefcafe0044000008020005"},
		{"store bulk, kept", keptBulk,
			"011a00deadbeefcafe0046020001012c"},
		{"store, kept, tuple tag and TTL changed", tagAndTTL,
			"011a28deadbeefcafe0047020258020001012c"},
		{"store, kept, all six fields changed", allChanged,
			"011a3fdeadbeefcafe004801000200010100080258020005"},
		{"store ack, kept", keptAck,
			"011b"},
		{"store ack after another", changedAck,
			"011900000000"},
		{"store ack long", encodeStoreAck(chord.Found{Owner: a, Hops: 3, Stale: 1, Near: near}),
			"0119000300010102030405060708000d31302e302e302e313a343030300180000000000000000003623a320280000000000000000003623a320102030405060708000d31302e302e302e313a34303030"},
		{"find_succ reply", encodeFindSuccResp(chord.Found{Owner: a, Hops: 5, Stale: 2}),
			"0111000500020102030405060708000d31302e302e302e313a34303030"},
		{"find_succ reply flagged", encodeFindSuccResp(chord.Found{Owner: a, Hops: 5, Stale: 2, Near: near}),
			"0111000500020102030405060708000d31302e302e302e313a343030300180000000000000000003623a320280000000000000000003623a320102030405060708000d31302e302e302e313a34303030"},
		{"find_succ reply flagged, no pred", encodeFindSuccResp(chord.Found{Owner: a, Near: &chord.Neighbors{Succ: []chord.Ref{b}}}),
			"0111000000000102030405060708000d31302e302e302e313a34303030000180000000000000000003623a32"},
		{"neighbors", append([]byte(nil), neighborsReqFrame...),
			"0112"},
		{"neighbors reply", encodeNeighborsResp(a, *near),
			"01130102030405060708000d31302e302e302e313a343030300180000000000000000003623a320280000000000000000003623a320102030405060708000d31302e302e302e313a34303030"},
		{"neighbors reply, no pred", encodeNeighborsResp(a, chord.Neighbors{}),
			"01130102030405060708000d31302e302e302e313a343030300000"},
		{"notify", encodeNotify(b),
			"011480000000000000000003623a32"},
		{"ack changed", encodeAck(true),
			"011501"},
		{"ack", encodeAck(false),
			"011500"},
		{"err", encodeErr(dht.ClassDown, 2, 1),
			"011f0200020001"},
		{"ping", encodePing(),
			"0116"},
		{"pong", encodePong(),
			"0117"},
		{"probe", must(wire.EncodeProbeReq(wire.ProbeReq{Bit: 5, NumVecs: 64, Metrics: []uint64{7}})),
			"010305004000010007"},
		{"probe run", must(wire.EncodeProbeReq(wire.ProbeReq{Bit: 3, Span: 1, NumVecs: 64, Metrics: runMetrics})),
			"010303004000020007000901"},
		{"probe reply dense", must(wire.EncodeProbeResp(wire.ProbeResp{Bit: 5, NumVecs: 64, VecMasks: [][]byte{half}})),
			"01040500400001005555555555555555"},
		{"probe reply coded", must(wire.EncodeProbeResp(wire.ProbeResp{Bit: 3, Span: 1, NumVecs: 64, VecMasks: [][]byte{empty, full, one, half}})),
			"01050300400004010102050a005555555555555555"},
		{"probe reply with its arc", must(wire.EncodeProbeResp(arced)),
			"01050300400004010102050a00555555555555555501deadbeefcafe0042"},
		{"probe run, kept, bit changed", askAfter(t, run, nextRun),
			"01060105"},
		{"probe run, kept, metrics changed", askAfter(t, run, oneMetric),
			"01060800010007"},
		{"probe run, kept, the same", askAfter(t, run, run),
			"010600"},
		{"probe run, kept, run and NumVecs changed", askAfter(t, run, wideRun),
			"010606040200"},
		{"probe reply without its header, kept masks and arc", shortenAfter(t, runMetrics, []wire.ProbeResp{arced}, moved),
			"010703050a030302"},
		{"probe reply, all kept", shortenAfter(t, runMetrics, []wire.ProbeResp{arced}, arced),
			"0108"},
		{"probe reply, every mask changed and none shortened, the same arc", shortenAfter(t, sixMetrics, []wire.ProbeResp{wasSix}, allMoved),
			"0104050040000600" + strings.Repeat("aa", 48) + "01deadbeefcafe0042"},
	} {
		if got := hex.EncodeToString(tc.frame); got != tc.hex {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.hex)
		}
	}
}
