package netdht

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"dhsketch/internal/chord"
	"dhsketch/internal/metrics"
	"dhsketch/internal/obs"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
)

// obsOptions builds server options instrumented against a fresh
// registry, with the tight loopback transport timings tests use.
func obsOptions(reg *metrics.Registry, logf func(string, ...any)) Options {
	return Options{
		DialTimeout: 500 * time.Millisecond,
		RPCTimeout:  2 * time.Second,
		Metrics:     reg,
		Logf:        logf,
	}
}

// TestServerMetricsAndAdmin drives a two-node ring with both sides
// instrumented and checks the whole observability surface end to end:
// per-tag RPC counters on server and pool side, dial accounting, the
// admin endpoints (/metrics exposition, /healthz verdict, /statusz
// snapshot), and the structured log stream.
func TestServerMetricsAndAdmin(t *testing.T) {
	if testing.Short() {
		t.Skip("network-heavy")
	}
	var logMu sync.Mutex
	regBoot := metrics.New()
	regJoin := metrics.New()
	var bootLog []string
	boot, err := NewServer("127.0.0.1:0", obsOptions(regBoot, func(format string, args ...any) {
		logMu.Lock()
		defer logMu.Unlock()
		bootLog = append(bootLog, sprintfFirst(format, args))
	}))
	if err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	defer boot.Close()

	var joinLog []string
	joiner, err := NewServer("127.0.0.1:0", obsOptions(regJoin, func(format string, args ...any) {
		logMu.Lock()
		defer logMu.Unlock()
		joinLog = append(joinLog, sprintfFirst(format, args))
	}))
	if err != nil {
		t.Fatalf("joiner: %v", err)
	}
	defer joiner.Close()

	adminAddr, err := boot.StartAdmin("127.0.0.1:0", regBoot)
	if err != nil {
		t.Fatalf("StartAdmin: %v", err)
	}

	if err := joiner.Join(boot.Addr()); err != nil {
		t.Fatalf("join: %v", err)
	}
	// One stabilize round from each side settles the two-ring and adds
	// neighbors/notify traffic in both directions.
	joiner.round(chord.RoundStabilize)
	boot.round(chord.RoundStabilize)

	// Server-side per-tag accounting on the bootstrap: the join issued
	// find_succ, neighbors, and notify against it.
	for _, tag := range []string{"find_succ", "neighbors", "notify"} {
		c := regBoot.Counter("netdht_rpc_requests_total", "", metrics.L("tag", tag))
		if c.Value() == 0 {
			t.Errorf("bootstrap served no %s requests", tag)
		}
	}
	// Pool-side accounting on the joiner: outbound exchanges and at
	// least one dial.
	if c := regJoin.Counter("netdht_out_rpc_total", "", metrics.L("tag", "find_succ")); c.Value() == 0 {
		t.Error("joiner pool metered no outbound find_succ")
	}
	if c := regJoin.Counter("netdht_dials_total", ""); c.Value() == 0 {
		t.Error("joiner pool metered no dials")
	}
	// Latency histograms observed every exchange they counted.
	h := regBoot.Histogram("netdht_rpc_seconds", "", metrics.DefLatencyBuckets, metrics.L("tag", "find_succ"))
	if h.Count() == 0 {
		t.Error("server latency histogram empty")
	}

	// /healthz: a linked node with successors is healthy.
	hc := &http.Client{Timeout: 2 * time.Second}
	resp, err := hc.Get("http://" + adminAddr + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Errorf("/healthz = %d %q, want 200 ok", resp.StatusCode, body)
	}

	// /metrics: Prometheus exposition with the live per-tag series.
	resp, err = hc.Get("http://" + adminAddr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	expo, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content type %q lacks exposition version", ct)
	}
	for _, want := range []string{
		"# TYPE netdht_rpc_requests_total counter",
		`netdht_rpc_requests_total{tag="find_succ"}`,
		"# TYPE netdht_rpc_seconds histogram",
		`netdht_rpc_seconds_bucket{tag="find_succ",le="+Inf"}`,
		"netdht_successors ",
		"netdht_ring_linked 1",
	} {
		if !strings.Contains(string(expo), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// /statusz: the JSON snapshot reflects the ring.
	resp, err = hc.Get("http://" + adminAddr + "/statusz")
	if err != nil {
		t.Fatalf("GET /statusz: %v", err)
	}
	var st Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode /statusz: %v", err)
	}
	if st.Addr != boot.Addr() || !st.Alive || !st.Linked {
		t.Errorf("statusz = %+v, want alive linked node at %s", st, boot.Addr())
	}
	if len(st.Successors) == 0 || st.Successors[0] != joiner.Addr() {
		t.Errorf("statusz successors = %v, want head %s", st.Successors, joiner.Addr())
	}

	// Structured logs: the joiner logged its join as one key=value line.
	logMu.Lock()
	joined := ""
	for _, l := range joinLog {
		if strings.HasPrefix(l, "event=joined ") {
			joined = l
		}
	}
	logMu.Unlock()
	if joined == "" {
		t.Fatalf("no event=joined log line in %q", joinLog)
	}
	if !strings.Contains(joined, "bootstrap="+boot.Addr()) || !strings.Contains(joined, "successor=") {
		t.Errorf("joined line %q missing bootstrap/successor fields", joined)
	}

	// Shutdown tears the admin listener down with the server.
	boot.Close()
	if _, err := hc.Get("http://" + adminAddr + "/healthz"); err == nil {
		t.Error("admin listener still serving after Close")
	}
	logMu.Lock()
	closed := false
	for _, l := range bootLog {
		if strings.HasPrefix(l, "event=server-closed ") {
			closed = true
		}
	}
	logMu.Unlock()
	if !closed {
		t.Errorf("no event=server-closed log line in %q", bootLog)
	}
}

// TestRoundMetricSlots runs each maintenance round once and reads the
// exposition: a round meters one duration under its own round label and
// nothing under the others' (netdht_round_seconds is the series the
// benchmark reads off dhsnode).
func TestRoundMetricSlots(t *testing.T) {
	reg := metrics.New()
	s, err := NewServer("127.0.0.1:0", obsOptions(reg, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rounds := []struct {
		round chord.RoundSet
		label string
	}{{chord.RoundStabilize, "stabilize"}, {chord.RoundFixFingers, "fix_fingers"}, {chord.RoundCheckPred, "check_pred"}}
	for i, r := range rounds {
		s.round(r.round)
		var expo strings.Builder
		if err := reg.WritePrometheus(&expo); err != nil {
			t.Fatal(err)
		}
		for j, other := range rounds {
			want := "0"
			if j <= i {
				want = "1"
			}
			line := `netdht_round_seconds_count{round="` + other.label + `"} ` + want + "\n"
			if !strings.Contains(expo.String(), line) {
				t.Errorf("after the %s round: want %q in the exposition", r.label, line)
			}
		}
	}
}

// sprintfFirst renders a Logf invocation the way log.Printf would.
func sprintfFirst(format string, args []any) string {
	if len(args) == 0 {
		return format
	}
	if format == "%s" {
		if s, ok := args[0].(string); ok {
			return s
		}
	}
	return format
}

// TestHealthzPartitioned pins the ring-membership-aware health rule: a
// node that was linked into a ring and then lost every successor
// reports unhealthy, while a never-linked bootstrap stays healthy.
func TestHealthzPartitioned(t *testing.T) {
	if testing.Short() {
		t.Skip("network-heavy")
	}
	boot, err := NewServer("127.0.0.1:0", obsOptions(nil, nil))
	if err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	defer boot.Close()
	if ok, msg := boot.Healthy(); !ok {
		t.Fatalf("fresh bootstrap unhealthy: %s", msg)
	}

	joiner, err := NewServer("127.0.0.1:0", obsOptions(nil, nil))
	if err != nil {
		t.Fatalf("joiner: %v", err)
	}
	defer joiner.Close()
	if err := joiner.Join(boot.Addr()); err != nil {
		t.Fatalf("join: %v", err)
	}
	if ok, msg := joiner.Healthy(); !ok {
		t.Fatalf("joined node unhealthy: %s", msg)
	}

	// Kill the only peer. check-pred clears the dead predecessor, then
	// stabilize exhausts the successor list with nothing to fall back
	// on: the joiner is partitioned.
	boot.Close()
	joiner.round(chord.RoundCheckPred)
	joiner.round(chord.RoundStabilize)
	joiner.round(chord.RoundStabilize)
	if ok, msg := joiner.Healthy(); ok {
		t.Fatal("partitioned node reports healthy")
	} else if !strings.Contains(msg, "partitioned") {
		t.Errorf("verdict %q, want partitioned", msg)
	}
}

// TestReseedIsPredecessor kills every successor of a server and runs its
// rounds. A daemon has no oracle, so its list is reseeded from its
// predecessor (tcpPeers.Reseed); with no predecessor either, the node is
// partitioned — /healthz answers 503 — until a notify arrives, and healthy
// after it.
func TestReseedIsPredecessor(t *testing.T) {
	if testing.Short() {
		t.Skip("network-heavy")
	}
	for _, tc := range []struct {
		name       string
		killPred   bool
		wantHealth int
	}{
		{"known predecessor", false, 200},
		{"no predecessor", true, 503},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(t, sim.NewEnv(5), 8)
			servers := c.Servers()
			s, pred, before := servers[0], servers[len(servers)-1], servers[len(servers)-2]
			admin, err := s.StartAdmin("127.0.0.1:0", nil)
			if err != nil {
				t.Fatalf("StartAdmin: %v", err)
			}
			health := func() (int, string) {
				t.Helper()
				code, body, err := AdminGet(admin, "/healthz", 2*time.Second)
				if err != nil {
					t.Fatalf("GET /healthz: %v", err)
				}
				return code, string(body)
			}
			nb := s.Protocol().Neighbors()
			if nb.Pred.ID != pred.ID() || len(nb.Succ) < 2 {
				t.Fatalf("seeded neighbours %+v, want predecessor %s and a list", nb, pred.Addr())
			}
			for _, sc := range nb.Succ {
				for _, o := range servers {
					if o.ID() == sc.ID {
						c.Crash(o)
					}
				}
			}
			if tc.killPred {
				c.Crash(pred)
				s.round(chord.RoundCheckPred)
			}
			s.round(chord.RoundStabilize)
			succ, ok := s.Protocol().Successor()
			if code, body := health(); code != tc.wantHealth {
				t.Fatalf("/healthz = %d %q after the successors died, want %d", code, body, tc.wantHealth)
			}
			if !tc.killPred {
				if !ok || succ.ID != pred.ID() {
					t.Errorf("reseeded successor %+v, %v; want the predecessor %s", succ, ok, pred.Addr())
				}
				return
			}
			if ok {
				t.Fatalf("successor %+v with no predecessor to reseed from", succ)
			}
			s.round(chord.RoundStabilize)
			s.round(chord.RoundCheckPred)
			if code, body := health(); code != 503 || !strings.Contains(body, "partitioned") {
				t.Fatalf("/healthz = %d %q before any notify, want 503 partitioned", code, body)
			}
			// The live node before the dead predecessor skips it, stabilizes
			// on s and notifies it.
			before.round(chord.RoundStabilize)
			if code, body := health(); code != 200 {
				t.Errorf("/healthz = %d %q after a notify, want 200", code, body)
			}
			if succ, ok := s.Protocol().Successor(); !ok || succ.ID != before.ID() {
				t.Errorf("successor %+v, %v after the notify; want the notifier %s", succ, ok, before.Addr())
			}
		})
	}
}

// TestLogKV pins the structured log line format: event first, fields
// in call order, values quoted only when they would break key=value
// tokenization.
func TestLogKV(t *testing.T) {
	var lines []string
	s := &Server{logf: func(format string, args ...any) {
		lines = append(lines, sprintfFirst(format, args))
	}}
	s.logKV("joined", "bootstrap", "127.0.0.1:4001", "successor", "127.0.0.1:4002")
	s.logKV("failed", "err", "dial tcp: connection refused")
	s.logKV("odd", "empty", "")

	want := []string{
		"event=joined bootstrap=127.0.0.1:4001 successor=127.0.0.1:4002",
		`event=failed err="dial tcp: connection refused"`,
		`event=odd empty=""`,
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines %q, want %d", len(lines), lines, len(want))
	}
	for i, w := range want {
		if lines[i] != w {
			t.Errorf("line %d = %q, want %q", i, lines[i], w)
		}
	}

	// Field order is the call's, not sorted: the same call site always
	// renders identically.
	var s2 Server
	s2.logf = func(format string, args ...any) { lines = append(lines, sprintfFirst(format, args)) }
	s2.logKV("order", "b", 1, "a", 2)
	if got := lines[len(lines)-1]; got != "event=order b=1 a=2" {
		t.Errorf("field order not stable: %q", got)
	}

	// Nil logf is silent and does not panic.
	(&Server{}).logKV("noop", "k", "v")
}

// TestScanLookupsMetered: netdht_scan_targets_total{resolved="lookup"}
// counts every lookup a scan makes — the one that re-routes a target the
// view resolved to a dead node as much as the one for a target no arc
// covers — so it moves with netdht_out_rpc_total{tag="find_succ"} on a
// client that only counts. With a warm view re-routes are the only lookups
// left: a series that missed them would read zero while the ring churns.
func TestScanLookupsMetered(t *testing.T) {
	env := sim.NewEnv(21)
	cl := newTestCluster(t, env, 8)
	settleCluster(t, cl, env)
	servers := cl.Servers()
	c, reg := storeClient(t, servers[len(servers)-1].Addr(), 9)
	byLookup := reg.Counter("netdht_scan_targets_total", "", metrics.L("resolved", "lookup"))
	byMap := reg.Counter("netdht_scan_targets_total", "", metrics.L("resolved", "map"))

	attempted := 0
	count := func() {
		res, err := c.Count(5)
		if err != nil {
			t.Fatalf("Count: %v", err)
		}
		attempted += res.ProbesAttempted
	}
	count()
	count()
	cold := outRPCs(reg, "find_succ")
	if cold == 0 || byLookup.Value() != cold {
		t.Errorf("two scans of a quiet ring: %d find_succ exchanges, %d targets metered as looked up", cold, byLookup.Value())
	}
	// The first server holds the top of the scan's range: the next scan
	// resolves to it from the view, fails to reach it and asks the ring.
	cl.Crash(servers[0])
	settleCluster(t, cl, env)
	count()
	if got := outRPCs(reg, "find_succ"); got == cold || byLookup.Value() != got {
		t.Errorf("scan over a dead owner: %d find_succ exchanges (%d before), %d targets metered as looked up", got, cold, byLookup.Value())
	}
	if got := byLookup.Value() + byMap.Value(); got != uint64(attempted) {
		t.Errorf("scan_targets_total sums to %d, want the %d attempts the scans spent", got, attempted)
	}
}

// TestWireScanTraceFromRing is internal/core's TestWalkReconstructionFromRing
// on the wire: a traced scan over an 8-node loopback cluster opens with
// count-start and closes with count-done, whose Arg is the metric's
// unresolved vectors. Between them it notes one lookup per find_succ
// exchange — the re-route past a crashed owner included — and one probe
// event per visit: Arg 1 for each answered probe exchange, Arg 0 where the
// scan's memory of an earlier reply served. Run it with -v to read the
// events of both scans.
func TestWireScanTraceFromRing(t *testing.T) {
	env := sim.NewEnv(21)
	cl := newTestCluster(t, env, 8)
	settleCluster(t, cl, env)
	servers := cl.Servers()
	loadRing(t, servers[0].Addr(), sketch.KindSuperLogLog, 0, 2000)
	c, reg := storeClient(t, servers[len(servers)-1].Addr(), 9)
	answered := func() uint64 {
		return outRPCs(reg, "probe") - reg.Counter("netdht_out_rpc_errors_total", "", metrics.L("tag", "probe")).Value()
	}
	visits := func() uint64 {
		return reg.Counter("netdht_scan_visits_total", "", metrics.L("served", "wire")).Value() +
			reg.Counter("netdht_scan_visits_total", "", metrics.L("served", "memo")).Value()
	}

	scan := func(when string) CountResult {
		ring := obs.NewRing(1 << 12)
		l0, p0, v0 := outRPCs(reg, "find_succ"), answered(), visits()
		res := c.count(&rpcProber{c: c}, 5, ring)
		events := ring.Events()
		for _, e := range events {
			t.Logf("%s: %-11s bit=%-3d node=%016x arg=%d err=%s", when, e.Kind, e.Bit, e.Node, e.Arg, e.Err)
		}
		if len(events) < 2 {
			t.Fatalf("%s: %d events traced", when, len(events))
		}
		if first := events[0]; first.Kind != obs.KindCountStart || first.Arg != 1 {
			t.Errorf("%s: first event %+v, want count-start of one metric", when, first)
		}
		last := events[len(events)-1]
		if last.Kind != obs.KindCountDone || last.Metric != 5 || last.Arg != int64(res.VectorsUnresolved) {
			t.Errorf("%s: last event %+v, want count-done of metric 5 with Arg %d", when, last, res.VectorsUnresolved)
		}
		var lookups, fromWire, probes uint64
		for _, e := range events[1 : len(events)-1] {
			switch e.Kind {
			case obs.KindLookup:
				lookups++
				if e.Err != obs.ClassNone || e.Node == 0 {
					t.Errorf("%s: lookup on a ring whose entry lives: %+v", when, e)
				}
			case obs.KindProbe:
				probes++
				if e.Arg == 1 {
					fromWire++
				} else if e.Arg != 0 {
					t.Errorf("%s: probe event with Arg %d: %+v", when, e.Arg, e)
				}
			default:
				t.Errorf("%s: %v event inside a wire scan: %+v", when, e.Kind, e)
			}
		}
		if got := outRPCs(reg, "find_succ") - l0; lookups != got {
			t.Errorf("%s: %d lookup events for %d find_succ exchanges", when, lookups, got)
		}
		if got := answered() - p0; fromWire != got || got == 0 {
			t.Errorf("%s: %d probe events with Arg 1 for %d answered probe exchanges", when, fromWire, got)
		}
		if got := visits() - v0; probes != got {
			t.Errorf("%s: %d probe events for %d visits", when, probes, got)
		}
		return res
	}

	if res := scan("cold"); res.Degraded || res.Estimate == 0 {
		t.Fatalf("cold scan of a loaded, settled ring: %+v", res)
	}
	// The first server holds the top of the scan's range: the next scan
	// resolves to it from the view, fails to reach it and asks the ring.
	cl.Crash(servers[0])
	settleCluster(t, cl, env)
	if res := scan("over a crashed owner"); res.StaleRetries == 0 {
		t.Errorf("scan over a crashed owner re-routed nothing: %+v", res)
	}
}
