package serve_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"dhsketch/internal/chord"
	"dhsketch/internal/core"
	"dhsketch/internal/metrics"
	"dhsketch/internal/netdht"
	"dhsketch/internal/respond"
	"dhsketch/internal/serve"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
)

// startResponder serves h on respond's keep-alive loop at a loopback
// address, closed when the test ends.
func startResponder(t *testing.T, h respond.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := respond.NewServer(h)
	done := make(chan struct{})
	go func() {
		srv.Serve(ln)
		close(done)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return ln.Addr().String()
}

// reply is what a client reads of a response: its status, the headers an
// answer sets — the ones net/http's server adds to any reply (Date, and the
// framing of the body) left out — and its body.
type reply struct {
	status int
	header http.Header
	body   string
}

func get(hc *http.Client, method, url string) (reply, error) {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return reply{}, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	h := resp.Header.Clone()
	for _, k := range []string{"Date", "Content-Length", "Transfer-Encoding", "Connection"} {
		h.Del(k)
	}
	return reply{resp.StatusCode, h, string(body)}, err
}

// parityEnv is one case's frontend and hooks, shared by both servers.
type parityEnv struct {
	fc  *fakeCounter
	reg *metrics.Registry
	f   *serve.Frontend
}

// lead starts a fan-out for metric on its own and waits until it holds the
// counter's gate; the returned function opens the gate and waits for it.
func (e *parityEnv) lead(metric uint64) func() {
	e.fc.gate = make(chan struct{})
	calls := e.fc.calls.Load()
	done := make(chan struct{})
	go func() {
		e.f.Count(metric)
		close(done)
	}()
	for i := 0; i < 5000 && e.fc.calls.Load() == calls; i++ {
		time.Sleep(time.Millisecond)
	}
	return func() {
		close(e.fc.gate)
		<-done
	}
}

// countBody is the body a /count of name answers with from fakeCounter.
func countBody(t *testing.T, name string) string {
	t.Helper()
	body, err := json.Marshal(netdht.CountResult{Estimate: 100 + float64(core.MetricID(name)), Quality: core.Quality{ProbesAttempted: 7}})
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestAnswerParity sends each request to dhsd's keep-alive responder
// (serve.Answer on respond.Server) and to the net/http reference
// (serve.NewHandler on httptest), both over one Frontend with a fixed
// clock, and requires the same status, body and headers. A /count that
// succeeds must also have served the metric URL.Query().Get decodes.
func TestAnswerParity(t *testing.T) {
	at := time.Unix(1000, 0)
	view := []netdht.Arc{{From: "00000000000000ff", ID: "0000000000000fff", Addr: "127.0.0.1:1"}}
	errRing := errors.New("netdht: probe 127.0.0.1:1: connection refused")
	// send is the request the case makes, through one server or the other.
	type send func() (reply, error)
	for _, tc := range []struct {
		name, method, target string
		cfg                  serve.Config
		shed                 bool // one fan-out slot, one queued query, no queue deadline
		ringErr, pingErr     error
		// run makes the request around whatever load the case needs; nil
		// is send alone.
		run    func(e *parityEnv, send send) (reply, error)
		status int
		metric string // the name a 200 /count must have served
	}{
		{name: "hit", target: "/count?metric=hot", cfg: serve.Config{CacheTTL: time.Second},
			run: func(e *parityEnv, send send) (reply, error) {
				e.f.Count(core.MetricID("hot"))
				return send()
			}, status: 200, metric: "hot"},
		{name: "miss", target: "/count?metric=cold", status: 200, metric: "cold"},
		{name: "coalesced", target: "/count?metric=shared", cfg: serve.Config{Coalesce: true},
			run: func(e *parityEnv, send send) (reply, error) {
				release := e.lead(core.MetricID("shared"))
				type res struct {
					r   reply
					err error
				}
				got := make(chan res, 1)
				waiting := e.reg.Counter("dhsd_coalesced_waiters_total", "").Value()
				go func() {
					r, err := send()
					got <- res{r, err}
				}()
				for i := 0; i < 5000 && e.reg.Counter("dhsd_coalesced_waiters_total", "").Value() == waiting; i++ {
					time.Sleep(time.Millisecond)
				}
				release()
				r := <-got
				return r.r, r.err
			}, status: 200, metric: "shared"},
		{name: "missing metric", target: "/count?name=x", status: 400},
		{name: "empty metric", target: "/count?metric=", status: 400},
		{name: "escaped slash", target: "/count?metric=a%2Fb", status: 200, metric: "a/b"},
		{name: "plus is a space", target: "/count?metric=a+b", status: 200, metric: "a b"},
		{name: "repeated key", target: "/count?metric=first&metric=second", status: 200, metric: "first"},
		{name: "undecodable pair skipped", target: "/count?metric=%zz&metric=second", status: 200, metric: "second"},
		{name: "shed", target: "/count?metric=late", shed: true,
			run: func(e *parityEnv, send send) (reply, error) {
				release := e.lead(1) // holds the one slot
				queued := make(chan struct{})
				go func() {
					e.f.Count(2)
					close(queued)
				}()
				for i := 0; i < 5000 && e.f.Stats().Queued == 0; i++ {
					time.Sleep(time.Millisecond)
				}
				r, err := send()
				release()
				<-queued
				return r, err
			}, status: 429},
		{name: "ring failure", target: "/count?metric=x", ringErr: errRing, status: 502},
		{name: "healthz", target: "/healthz", status: 200},
		{name: "healthz failing", target: "/healthz", pingErr: errRing, status: 503},
		{name: "statusz", target: "/statusz", status: 200},
		{name: "metrics", target: "/metrics", status: 200},
		{name: "unknown path", target: "/nope", status: 404},
		{name: "post", method: "POST", target: "/count?metric=x", status: 405},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := &parityEnv{fc: &fakeCounter{err: tc.ringErr}, reg: metrics.New()}
			if tc.shed {
				serve.ShrinkAdmission(t, 1, 1, time.Hour)
			}
			cfg := tc.cfg
			cfg.Now = func() time.Time { return at }
			cfg.Metrics = e.reg
			e.f = serve.New(e.fc, cfg)
			opt := serve.HandlerOptions{
				Metrics: e.reg,
				Ping:    func() error { return tc.pingErr },
				View:    func() []netdht.Arc { return view },
			}
			loop := "http://" + startResponder(t, serve.Answer(e.f, opt))
			ref := httptest.NewServer(serve.NewHandler(e.f, opt))
			defer ref.Close()
			hc := &http.Client{Transport: &http.Transport{}}
			defer hc.CloseIdleConnections()

			method := tc.method
			if method == "" {
				method = "GET"
			}
			run := tc.run
			if run == nil {
				run = func(_ *parityEnv, send send) (reply, error) { return send() }
			}
			var got [2]reply
			for i, base := range []string{ref.URL, loop} {
				r, err := run(e, func() (reply, error) { return get(hc, method, base+tc.target) })
				if err != nil {
					t.Fatalf("%s: %v", base, err)
				}
				got[i] = r
			}
			want, have := got[0], got[1]
			if want.status != tc.status {
				t.Fatalf("reference answered %d %q, want %d", want.status, want.body, tc.status)
			}
			if have.status != want.status || have.body != want.body || !reflect.DeepEqual(have.header, want.header) {
				t.Errorf("responder answered\n%d %v %q\nwant\n%d %v %q", have.status, have.header, have.body, want.status, want.header, want.body)
			}
			if tc.metric != "" && want.body != countBody(t, tc.metric) {
				t.Errorf("served %q, want the estimate of %q", want.body, tc.metric)
			}
		})
	}
}

// TestKeepAliveHitZeroAlloc pins a cache hit end to end on the server side,
// as TestServeStepZeroAlloc pins the wire's serve step: over a warm
// keep-alive connection, reading the head, answering /count from the cache
// with metrics on, and writing the reply allocate nothing. The client is a
// raw socket that writes a prebuilt request and reads the reply into a
// buffer of its own, so it allocates nothing either, and whatever the run
// allocates is the server's.
func TestKeepAliveHitZeroAlloc(t *testing.T) {
	reg := metrics.New()
	at := time.Unix(1000, 0)
	f := serve.New(&fakeCounter{}, serve.Config{CacheTTL: time.Hour, Coalesce: true, Metrics: reg, Now: func() time.Time { return at }})
	addr := startResponder(t, serve.Answer(f, serve.HandlerOptions{Metrics: reg}))
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	req := []byte("GET /count?metric=hot HTTP/1.1\r\nHost: dhsd\r\nUser-Agent: Go-http-client/1.1\r\nAccept-Encoding: gzip\r\n\r\n")
	buf := make([]byte, 4096)
	// The first request misses and fills the cache; the second is a hit,
	// and its reply, byte for byte, is every later one's.
	end := []byte("\r\n\r\n" + countBody(t, "hot"))
	var n int
	for i := 0; i < 2; i++ {
		if _, err := c.Write(req); err != nil {
			t.Fatal(err)
		}
		for n = 0; !bytes.HasSuffix(buf[:n], end); {
			m, err := c.Read(buf[n:])
			if err != nil {
				t.Fatalf("read %q: %v", buf[:n], err)
			}
			n += m
		}
	}
	hit := string(buf[:n])
	if !strings.HasPrefix(hit, "HTTP/1.1 200 OK\r\n") || !strings.Contains(hit, "X-Dhs-Source: cache\r\n") ||
		strings.Contains(hit, "Connection: close") {
		t.Fatalf("hit reply %q", hit)
	}
	var failed error
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := c.Write(req); err != nil {
			failed = err
		} else if _, err := io.ReadFull(c, buf[:n]); err != nil {
			failed = err
		}
	})
	if failed != nil {
		t.Fatal(failed)
	}
	if !bytes.Equal(buf[:n], []byte(hit)) {
		t.Fatalf("a later hit replied %q, want %q", buf[:n], hit)
	}
	if allocs != 0 {
		t.Errorf("a keep-alive cache hit allocated %.2f/op on the server, want 0", allocs)
	}
	if hits := reg.Counter("dhsd_cache_requests_total", "", metrics.L("result", "hit")).Value(); hits < 500 {
		t.Errorf("%d cache hits, want every request after the first", hits)
	}
}

// TestKeepAliveMissZeroAlloc is TestKeepAliveHitZeroAlloc for a /count that
// misses: with the cache and coalescing off every request is a fan-out over
// a real netdht.Client, and over a warm keep-alive connection reading the
// head, the ring scan — the client's exchanges and the ring's answers to
// them, on a converged loopback ring of four — encoding the body and
// writing the reply allocate nothing, with metrics on.
func TestKeepAliveMissZeroAlloc(t *testing.T) {
	env := sim.NewEnv(21)
	cl, err := netdht.NewCluster(env, 4, chord.ProtocolConfig{})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer cl.Close()
	for i := 0; i < 400 && !cl.Converged(); i++ {
		env.Clock.Advance(8)
		cl.Step()
	}
	reg := metrics.New()
	client, err := netdht.NewClient(netdht.ClientConfig{
		Entry: cl.Servers()[0].Addr(), K: 16, M: 64, Kind: sketch.KindSuperLogLog, Lim: 5, Seed: 3, Metrics: reg,
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer client.Close()
	metric := core.MetricID("cold")
	for i := 0; i < 600; i++ {
		if err := client.Insert(metric, uint64(i)*0x9e3779b97f4a7c15+1); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}

	f := serve.New(client, serve.Config{CacheTTL: 0, Coalesce: false, Metrics: reg})
	addr := startResponder(t, serve.Answer(f, serve.HandlerOptions{Metrics: reg}))
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	req := []byte("GET /count?metric=cold HTTP/1.1\r\nHost: dhsd\r\n\r\n")
	buf := make([]byte, 4096)
	var n int
	var failed error
	// ask sends req and reads the reply into buf[:n]: the body is a JSON
	// object, and its one closing brace is the reply's last byte.
	ask := func() {
		if _, failed = c.Write(req); failed != nil {
			return
		}
		for n = 0; n == 0 || buf[n-1] != '}'; {
			m, err := c.Read(buf[n:])
			if err != nil {
				failed = err
				return
			}
			n += m
		}
	}
	// The first requests grow the connection's buffers and the client's
	// pass state.
	for i := 0; i < 3; i++ {
		ask()
	}
	if failed != nil {
		t.Fatal(failed)
	}
	miss := string(buf[:n])
	if !strings.HasPrefix(miss, "HTTP/1.1 200 OK\r\n") || !strings.Contains(miss, "X-Dhs-Source: direct\r\n") ||
		!strings.Contains(miss, `"degraded":false}`) {
		t.Fatalf("miss reply %q", miss)
	}
	fanouts := func() uint64 { return reg.Histogram("dhsd_fanout_seconds", "", metrics.DefLatencyBuckets).Count() }
	before := fanouts()
	allocs := testing.AllocsPerRun(100, ask)
	if failed != nil {
		t.Fatal(failed)
	}
	if allocs != 0 {
		t.Errorf("a keep-alive uncached /count allocated %.2f/op, want 0", allocs)
	}
	if got := fanouts() - before; got != 101 {
		t.Errorf("%d fan-outs over 101 requests, want one each", got)
	}
}
