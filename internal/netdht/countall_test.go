package netdht

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"dhsketch/internal/chord"
	"dhsketch/internal/core"
	"dhsketch/internal/metrics"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
	"dhsketch/internal/wire"
)

// Tests for the multi-metric scan (§4.2: one probe answers for every
// metric) and for the scan's early stop.

// probedTotal sums the Probed counters of a cluster's servers: the probe
// requests they answered.
func probedTotal(servers []*Server) (n uint64) {
	for _, s := range servers {
		n += uint64(s.Counters().Snapshot().Probed)
	}
	return n
}

// TestCountAllOneScan: sixteen metrics of different sizes cost the probe
// exchanges of the deepest of them counted alone, not sixteen times that,
// and every estimate is the one its own scan returns.
func TestCountAllOneScan(t *testing.T) {
	env := sim.NewEnv(21)
	cl := newTestCluster(t, env, 8)
	settleCluster(t, cl, env)
	servers := cl.Servers()
	entry := servers[0].Addr()

	metrics := make([]uint64, 16)
	loader, _ := storeClient(t, entry, 10)
	for i := range metrics {
		metrics[i] = uint64(100 + i)
		for j := 0; j < 40*(i+1); j++ {
			if err := loader.Insert(metrics[i], core.ItemID("all-"+string(rune('a'+i))+"-"+string(rune(j)))); err != nil {
				t.Fatalf("insert: %v", err)
			}
		}
	}

	// Lim 16 on a ring of 8: an interval's owners are all met, so what a
	// scan learns does not depend on the targets it happened to draw.
	client := func() (*Client, func() uint64) {
		c, reg := storeClient(t, entry, 9)
		c.cfg.Lim = 16
		return c, func() uint64 { return outRPCs(reg, "probe") }
	}
	var deepest uint64
	alone := make([]CountResult, len(metrics))
	for i, m := range metrics {
		c, probes := client()
		res, err := c.Count(m)
		if err != nil || res.Degraded || res.Estimate == 0 {
			t.Fatalf("Count(%d) = %+v, %v", m, res, err)
		}
		alone[i] = res
		deepest = max(deepest, probes())
	}

	c, probes := client()
	served := probedTotal(servers)
	all, err := c.CountAll(nil, metrics)
	if err != nil || len(all) != len(metrics) {
		t.Fatalf("CountAll = %d results, %v", len(all), err)
	}
	for i := range all {
		if all[i].Estimate != alone[i].Estimate || all[i].Degraded {
			t.Errorf("metric %d: %+v in the batch, %+v alone", metrics[i], all[i], alone[i])
		}
	}
	if got := probes(); got == 0 || got > deepest+1 {
		t.Errorf("one scan of %d metrics cost %d probe exchanges; the deepest single scan cost %d", len(metrics), got, deepest)
	}
	if got := probedTotal(servers) - served; got != probes() {
		t.Errorf("servers answered %d probes, the client sent %d", got, probes())
	}
}

// TestCountAllSplitsOversizeList: a list with more metrics than one probe
// reply has room for is scanned in consecutive parts of the sorted list;
// results come back in the order asked, a metric named twice is scanned once,
// and an empty list costs nothing.
func TestCountAllSplitsOversizeList(t *testing.T) {
	// The bound is the frame's: ⌊(1 MiB − header)/⌈m/8⌉⌋ masks, and no more
	// than the reply's 16-bit count.
	for m, want := range map[int]int{64: math.MaxUint16, 512: (maxFrame - wire.ProbeRespOverhead) / 64, 4096: (maxFrame - wire.ProbeRespOverhead) / 512} {
		c, err := NewClient(ClientConfig{Entry: "nobody:1", K: 24, M: m, Kind: sketch.KindSuperLogLog})
		if err != nil || c.maxMasks != want {
			t.Errorf("m=%d: maxMasks = %d, %v; want %d", m, c.maxMasks, err, want)
		}
	}

	srv, err := NewServer("127.0.0.1:0", Options{Name: "split"})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()
	c, _ := storeClient(t, srv.Addr(), 3)
	c.maxMasks = 4 // as if a frame held four masks
	distinct := []uint64{11, 12, 13, 14, 15, 16, 17, 18, 19}
	for i, m := range distinct {
		for j := 0; j < 30*(i+1); j++ {
			if err := c.Insert(m, core.ItemID(string(rune('a'+i))+string(rune(j)))); err != nil {
				t.Fatalf("insert: %v", err)
			}
		}
	}
	// A ring of one: every scan meets the same owner, so a metric's
	// estimate is the same whichever scan it is part of.
	list := []uint64{15, 11, 12, 13, 14, 15, 16, 17, 11, 18, 19}
	got, err := c.CountAll(nil, list)
	if err != nil || len(got) != len(list) {
		t.Fatalf("CountAll = %d results, %v", len(got), err)
	}
	for i, m := range list {
		want, _ := c.Count(m)
		if got[i].Estimate != want.Estimate || want.Estimate == 0 {
			t.Errorf("result %d (metric %d) = %+v, want the estimate of %+v", i, m, got[i], want)
		}
	}

	// What was sent: an empty store leaves every metric open to the end, so
	// each scan's probes all name that scan's whole part.
	var mu sync.Mutex
	var asked [][]uint64
	fake := fakePeer(t, func(self string, req []byte) []byte {
		if req[1] == tagFindSucc {
			return encodeFindSuccResp(chord.Found{Owner: chord.Ref{ID: 1, Addr: self}, Near: &chord.Neighbors{}})
		}
		q, err := wire.DecodeProbeReq(req)
		if err != nil {
			t.Errorf("DecodeProbeReq: %v", err)
		}
		mu.Lock()
		if n := len(asked); n == 0 || !reflect.DeepEqual(asked[n-1], q.Metrics) {
			asked = append(asked, q.Metrics)
		}
		mu.Unlock()
		return zeroMasks(t, req)
	})
	fc, _ := storeClient(t, fake, 3)
	fc.maxMasks = 4
	if res, err := fc.CountAll(nil, list); err != nil || len(res) != len(list) {
		t.Fatalf("CountAll over the fake = %d results, %v", len(res), err)
	}
	if want := [][]uint64{{11, 12, 13, 14}, {15, 16, 17, 18}, {19}}; !reflect.DeepEqual(asked, want) {
		t.Errorf("probes named %v, want the parts %v", asked, want)
	}
	n := len(asked)
	if res, err := fc.CountAll(nil, nil); err != nil || len(res) != 0 || len(asked) != n {
		t.Errorf("CountAll(nil) = %v, %v after %d more probes", res, err, len(asked)-n)
	}
}

// TestCountAllOrderFree: a warm CountAll sends the same request bytes
// whatever order it is given its metrics in. Two clients of one seed learn
// the ring and warm their sockets alike; then one counts the metrics in the
// order it warmed with and the other in another order. Sent in the order
// given, the reordered list would go whole in every kept probe request.
func TestCountAllOrderFree(t *testing.T) {
	env := sim.NewEnv(23)
	cl := newTestCluster(t, env, 8)
	settleCluster(t, cl, env)
	entry := cl.Servers()[0].Addr()
	metrics := []uint64{31, 32, 33, 34, 35, 36, 37, 38}
	loader, _ := storeClient(t, entry, 10)
	for i, m := range metrics {
		for j := 0; j < 40*(i+1); j++ {
			if err := loader.Insert(m, core.ItemID(fmt.Sprintf("order-%d-%d", i, j))); err != nil {
				t.Fatalf("insert: %v", err)
			}
		}
	}
	sent := func(order []uint64) uint64 {
		c, reg := storeClient(t, entry, 9)
		count := func(list []uint64) {
			if _, err := c.CountAll(nil, list); err != nil {
				t.Fatalf("CountAll(%v): %v", list, err)
			}
		}
		count(metrics)
		count(metrics)
		before := outBytes(reg, "out")
		count(order)
		return outBytes(reg, "out") - before
	}
	same, reordered := sent(metrics), sent([]uint64{35, 31, 38, 32, 37, 33, 36, 34})
	if same == 0 || reordered != same {
		t.Errorf("a warm count sent %d request bytes in the order it warmed with, %d in another", same, reordered)
	}
}

// TestCountAllReplyShape: Client.probe's shape checks with two metrics in
// the request. An owner asked for a run of two positions owes four masks,
// bit-major; any other count fails the probe, for both metrics alike.
func TestCountAllReplyShape(t *testing.T) {
	masks := func(n int) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			out[i] = make([]byte, 8)
		}
		return out
	}
	clean := CountResult{Quality: core.Quality{ProbesAttempted: 6, VectorsUnresolved: 64}}
	failed := CountResult{Quality: core.Quality{ProbesAttempted: 6, ProbesFailed: 1, IntervalsSkipped: 1, VectorsUnresolved: 64, Degraded: true}}
	for name, tc := range map[string]struct {
		span  func(q wire.ProbeReq) uint8
		masks int
		want  CountResult
	}{
		"two positions, two metrics": {func(q wire.ProbeReq) uint8 { return q.Span }, 4, clean},
		"masks for one metric":       {func(q wire.ProbeReq) uint8 { return q.Span }, 2, failed},
		"masks for three metrics":    {func(q wire.ProbeReq) uint8 { return q.Span }, 6, failed},
		"one position, two metrics":  {func(wire.ProbeReq) uint8 { return 0 }, 2, failed},
	} {
		t.Run(name, func(t *testing.T) {
			var ranged atomic.Int32
			// One node at 2⁶² whose arc starts at the top of the circle, as
			// in TestScanRangedReplyShape: the first probe asks for bits 2
			// and 1.
			entry := fakePeer(t, func(self string, req []byte) []byte {
				if req[1] == tagFindSucc {
					return encodeFindSuccResp(chord.Found{Owner: chord.Ref{ID: 1 << 62, Addr: self},
						Near: &chord.Neighbors{Pred: chord.Ref{ID: math.MaxUint64, Addr: "nobody:1"}}})
				}
				q, err := wire.DecodeProbeReq(req)
				if err != nil || len(q.Metrics) != 2 {
					t.Errorf("DecodeProbeReq = %+v, %v; want two metrics", q, err)
				}
				if q.Span == 0 {
					return zeroMasks(t, req)
				}
				ranged.Add(1)
				raw, err := wire.EncodeProbeResp(wire.ProbeResp{Bit: q.Bit, Span: tc.span(q), NumVecs: 64, VecMasks: masks(tc.masks)})
				if err != nil {
					t.Errorf("EncodeProbeResp: %v", err)
				}
				return raw
			})
			c, err := NewClient(ClientConfig{Entry: entry, K: 8, M: 64, Kind: sketch.KindSuperLogLog, Lim: 2})
			if err != nil {
				t.Fatalf("NewClient: %v", err)
			}
			defer c.Close()
			res, err := c.CountAll(nil, []uint64{42, 43})
			if err != nil || len(res) != 2 {
				t.Fatalf("CountAll = %v, %v", res, err)
			}
			tc.want.Estimate = res[0].Estimate
			if res[0] != tc.want || res[1] != tc.want || ranged.Load() != 1 {
				t.Errorf("CountAll = %+v after %d ranged probes, want %+v twice after 1", res, ranged.Load(), tc.want)
			}
		})
	}
}

// TestScanStopsAskingWhenResolved: once a visit has told the scan all an
// interval can, the attempts left send nothing. Against the loop that asks
// on, from the same seed: the identical CountResult scan for scan, never
// more probe exchanges, and over 200 scans strictly fewer.
func TestScanStopsAskingWhenResolved(t *testing.T) {
	// Hashed items, not twinClients' multiplicative ones, which stratify the
	// low bits. Few enough that the descending scan reaches the wide
	// intervals, where there is a second owner to stop asking; enough that
	// one owner of such an interval can show the ascending scan every vector
	// set.
	for kind, items := range map[sketch.Kind]int{sketch.KindSuperLogLog: 500, sketch.KindPCSA: 2000} {
		t.Run(kind.String(), func(t *testing.T) {
			env := sim.NewEnv(21)
			cl := newTestCluster(t, env, 8)
			settleCluster(t, cl, env)
			client := func(seed uint64) (*Client, *metrics.Registry) {
				reg := metrics.New()
				c, err := NewClient(ClientConfig{Entry: cl.Servers()[0].Addr(), K: 16, M: 64, Kind: kind, Lim: 5, Seed: seed, Metrics: reg})
				if err != nil {
					t.Fatalf("NewClient: %v", err)
				}
				t.Cleanup(c.Close)
				return c, reg
			}
			loader, _ := client(10)
			for i := 0; i < items; i++ {
				if err := loader.Insert(5, core.ItemID(fmt.Sprint("item-", i))); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			}
			var clients [2]*Client
			var regs [2]*metrics.Registry
			for i := range clients {
				clients[i], regs[i] = client(9)
			}

			var total [2]uint64
			for scan := 0; scan < 200; scan++ {
				var res [2]CountResult
				var paid [2]uint64
				for i, c := range clients {
					p0 := outRPCs(regs[i], "probe")
					res[i] = c.count(&rpcProber{c: c, askOn: i == 1}, 5, nil)
					paid[i] = outRPCs(regs[i], "probe") - p0
					total[i] += paid[i]
				}
				if res[0] != res[1] || res[0].Degraded || res[0].Estimate == 0 {
					t.Fatalf("scan %d: %+v stopping early, %+v asking on", scan, res[0], res[1])
				}
				if paid[0] > paid[1] {
					t.Errorf("scan %d: %d probe exchanges stopping early, %d asking on", scan, paid[0], paid[1])
				}
			}
			if total[0] >= total[1] {
				t.Errorf("200 scans cost %d probe exchanges stopping early, %d asking on", total[0], total[1])
			}
			t.Logf("%d probe exchanges stopping early, %d asking on", total[0], total[1])
		})
	}
}
