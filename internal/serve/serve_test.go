package serve_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dhsketch/internal/core"
	"dhsketch/internal/metrics"
	"dhsketch/internal/netdht"
	"dhsketch/internal/serve"
	"dhsketch/internal/sketch"
)

// fakeCounter is a Counter with a call count and an optional gate that
// blocks every fan-out until released.
type fakeCounter struct {
	calls atomic.Int64
	gate  chan struct{}
	err   error
}

func (f *fakeCounter) Count(metric uint64) (netdht.CountResult, error) {
	f.calls.Add(1)
	if f.gate != nil {
		<-f.gate
	}
	if f.err != nil {
		return netdht.CountResult{}, f.err
	}
	return netdht.CountResult{Estimate: 100 + float64(metric), Quality: core.Quality{ProbesAttempted: 7}}, nil
}

// manualClock is a mutex-guarded fake time source for TTL arithmetic.
type manualClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *manualClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *manualClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func counterValue(t *testing.T, reg *metrics.Registry, name string, labels ...metrics.Label) uint64 {
	t.Helper()
	return reg.Counter(name, "", labels...).Value()
}

// TestCacheTTLContract walks the cache through hit, bounded-staleness,
// and stale-refetch: a cached answer is served only while its age is
// strictly under the TTL, and the instant it reaches the TTL the next
// query pays a fresh fan-out.
func TestCacheTTLContract(t *testing.T) {
	clk := &manualClock{t: time.Unix(1000, 0)}
	fc := &fakeCounter{}
	reg := metrics.New()
	f := serve.New(fc, serve.Config{
		CacheTTL: 250 * time.Millisecond,
		Metrics:  reg,
		Now:      clk.now,
	})

	r1, err := f.Count(9)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Source != serve.SourceDirect || fc.calls.Load() != 1 {
		t.Fatalf("first query: source=%s calls=%d, want direct/1", r1.Source, fc.calls.Load())
	}

	clk.advance(249 * time.Millisecond) // age 249ms < TTL: still servable
	r2, err := f.Count(9)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Source != serve.SourceCache || fc.calls.Load() != 1 {
		t.Fatalf("within TTL: source=%s calls=%d, want cache/1", r2.Source, fc.calls.Load())
	}
	if r2.Age >= 250*time.Millisecond {
		t.Fatalf("served age %v breaches the TTL staleness bound", r2.Age)
	}
	if !bytes.Equal(r2.Body, r1.Body) {
		t.Fatalf("cache served a different body: %s vs %s", r2.Body, r1.Body)
	}

	clk.advance(time.Millisecond) // age exactly TTL: must NOT be served
	r3, err := f.Count(9)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Source != serve.SourceDirect || fc.calls.Load() != 2 {
		t.Fatalf("at TTL: source=%s calls=%d, want direct/2 (stale refetch)", r3.Source, fc.calls.Load())
	}

	if got := counterValue(t, reg, "dhsd_cache_requests_total", metrics.L("result", "hit")); got != 1 {
		t.Errorf("hit counter = %d, want 1", got)
	}
	if got := counterValue(t, reg, "dhsd_cache_requests_total", metrics.L("result", "stale")); got != 1 {
		t.Errorf("stale counter = %d, want 1", got)
	}
	if got := counterValue(t, reg, "dhsd_cache_requests_total", metrics.L("result", "miss")); got != 1 {
		t.Errorf("miss counter = %d, want 1", got)
	}
}

// TestCacheHitZeroAlloc pins the cost contract: with metrics off, a
// cache hit allocates nothing.
func TestCacheHitZeroAlloc(t *testing.T) {
	fc := &fakeCounter{}
	f := serve.New(fc, serve.Config{CacheTTL: time.Hour})
	if _, err := f.Count(3); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := f.Count(3); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("cache-hit path allocates %.1f objects/op, want 0", allocs)
	}
}

// TestCoalescing: N concurrent queries for one metric share a single
// ring fan-out; every caller gets the identical body.
func TestCoalescing(t *testing.T) {
	fc := &fakeCounter{gate: make(chan struct{})}
	reg := metrics.New()
	f := serve.New(fc, serve.Config{Coalesce: true, Metrics: reg})

	const waiters = 4
	results := make([]serve.Result, waiters+1)
	errs := make([]error, waiters+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], errs[0] = f.Count(5)
	}()
	// Wait for the leader to own the flight, then pile on waiters.
	for i := 0; i < 1000 && fc.calls.Load() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if fc.calls.Load() != 1 {
		t.Fatalf("leader never started a fan-out")
	}
	for i := 1; i <= waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = f.Count(5)
		}(i)
	}
	for i := 0; i < 1000 && counterValue(t, reg, "dhsd_coalesced_waiters_total") < waiters; i++ {
		time.Sleep(time.Millisecond)
	}
	close(fc.gate)
	wg.Wait()

	if fc.calls.Load() != 1 {
		t.Fatalf("%d fan-outs for %d concurrent queries, want 1", fc.calls.Load(), waiters+1)
	}
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !bytes.Equal(results[i].Body, results[0].Body) {
			t.Errorf("caller %d body diverged", i)
		}
	}
	if results[0].Source != serve.SourceDirect {
		t.Errorf("leader source = %s, want direct", results[0].Source)
	}
	coalesced := 0
	for _, r := range results[1:] {
		if r.Source == serve.SourceCoalesced {
			coalesced++
		}
	}
	if coalesced != waiters {
		t.Errorf("%d of %d waiters coalesced", coalesced, waiters)
	}
}

// TestAdmissionControl: with one fan-out slot and a one-deep queue, a
// third concurrent query sheds instantly (queue full) and the queued
// one sheds when its deadline passes.
func TestAdmissionControl(t *testing.T) {
	fc := &fakeCounter{gate: make(chan struct{})}
	reg := metrics.New()
	serve.ShrinkAdmission(t, 1, 1, 50*time.Millisecond)
	f := serve.New(fc, serve.Config{Metrics: reg})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // occupies the only slot
		defer wg.Done()
		if _, err := f.Count(1); err != nil {
			t.Errorf("slot holder: %v", err)
		}
	}()
	for i := 0; i < 1000 && fc.calls.Load() == 0; i++ {
		time.Sleep(time.Millisecond)
	}

	var queuedErr error
	wg.Add(1)
	go func() { // queues, then sheds on deadline (the gate stays shut)
		defer wg.Done()
		_, queuedErr = f.Count(2)
	}()
	for i := 0; i < 1000 && f.Stats().Queued == 0; i++ {
		time.Sleep(time.Millisecond)
	}

	if _, err := f.Count(3); !errors.Is(err, serve.ErrShed) {
		t.Fatalf("third query: err = %v, want ErrShed (queue full)", err)
	}
	if got := counterValue(t, reg, "dhsd_shed_total", metrics.L("reason", "queue_full")); got != 1 {
		t.Errorf("queue_full shed counter = %d, want 1", got)
	}

	// The queued query must shed once its 50ms deadline passes.
	deadline := time.Now().Add(5 * time.Second)
	for counterValue(t, reg, "dhsd_shed_total", metrics.L("reason", "deadline")) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("queued query never shed on deadline")
		}
		time.Sleep(time.Millisecond)
	}
	close(fc.gate)
	wg.Wait()
	if !errors.Is(queuedErr, serve.ErrShed) {
		t.Errorf("queued query: err = %v, want ErrShed (deadline)", queuedErr)
	}
}

// TestConcurrentMixedLoad hammers cache + coalescing + admission from
// many goroutines (race-detector coverage for the whole engine).
func TestConcurrentMixedLoad(t *testing.T) {
	fc := &fakeCounter{}
	serve.ShrinkAdmission(t, 4, 16, 100*time.Millisecond)
	f := serve.New(fc, serve.Config{
		CacheTTL: time.Millisecond,
		Coalesce: true,
	})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := f.Count(uint64(i % 4)); err != nil && !errors.Is(err, serve.ErrShed) {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestByteIdenticalToDirectCount is the serving layer's core contract
// against a real ring: with the cache disabled, the Frontend's body —
// and the dhsd HTTP response — is byte-identical to marshaling a
// direct netdht.Client.Count result. A ring of one makes the scan
// deterministic (every probe lands on the same owner), so two
// independent passes agree exactly.
func TestByteIdenticalToDirectCount(t *testing.T) {
	srv, err := netdht.NewServer("127.0.0.1:0", netdht.Options{Name: "byteident"})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()

	client, err := netdht.NewClient(netdht.ClientConfig{
		Entry: srv.Addr(), K: 16, M: 64, Kind: sketch.KindSuperLogLog, Lim: 3, Seed: 17,
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer client.Close()

	const metricName = "byteident"
	metric := core.MetricID(metricName)
	for i := 0; i < 150; i++ {
		if err := client.Insert(metric, uint64(i)*0x9e3779b97f4a7c15+11); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}

	direct, err := client.Count(metric)
	if err != nil {
		t.Fatalf("direct Count: %v", err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}

	// Cache off, coalescing on: coalescing must not perturb payloads.
	f := serve.New(client, serve.Config{Coalesce: true})
	got, err := f.Count(metric)
	if err != nil {
		t.Fatalf("frontend Count: %v", err)
	}
	if !bytes.Equal(got.Body, want) {
		t.Errorf("frontend body %s\n  not byte-identical to direct %s", got.Body, want)
	}
	if got.CountResult != direct {
		t.Errorf("frontend result %+v != direct %+v", got.CountResult, direct)
	}

	// And over HTTP, end to end.
	// A ring of one has no arc to remember: the view hook shows a fixed one.
	view := []netdht.Arc{{From: "00000000000000ff", ID: "0000000000000fff", Addr: srv.Addr()}}
	ts := httptest.NewServer(serve.NewHandler(f, serve.HandlerOptions{Ping: client.Ping, View: func() []netdht.Arc { return view }}))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/count?metric=" + metricName)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /count = %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("HTTP body %s\n  not byte-identical to direct %s", body, want)
	}
	if src := resp.Header.Get("X-Dhs-Source"); src != serve.SourceDirect {
		t.Errorf("X-Dhs-Source = %q, want direct", src)
	}

	// Health endpoint against the live ring.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d, want 200", hr.StatusCode)
	}

	// /statusz: the engine's snapshot, and beside it the ring arcs the
	// view hook reports.
	sr, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		MaxInFlight int          `json:"max_in_flight"`
		RingView    []netdht.Arc `json:"ring_view"`
	}
	err = json.NewDecoder(sr.Body).Decode(&status)
	sr.Body.Close()
	if err != nil || status.MaxInFlight == 0 || !reflect.DeepEqual(status.RingView, view) {
		t.Errorf("/statusz = %+v, %v; want the stats and the arc %+v", status, err, view)
	}
}

// TestAppendBodyIsMarshal holds the one /count body encoder to json.Marshal:
// for CountResults with every field set at random, found by reflection so
// that a field added to core.Quality is covered the day it is, and for the
// estimates where json.Marshal's float form changes — the exponent bounds,
// zeros, the extremes — the bytes are json.Marshal's, appended behind what
// dst held; and where json.Marshal fails, so does it.
func TestAppendBodyIsMarshal(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	estimates := []float64{0, math.Copysign(0, -1), 1, 12.5, 1e-6, 9.99e-7, 1e-7, 1e21, 9.99e20, 1e20,
		-1e-9, 5e-324, math.MaxFloat64, 123456789.125, math.Inf(1), math.Inf(-1), math.NaN()}
	for i := 0; i < 2000; i++ {
		estimates = append(estimates, math.Float64frombits(rng.Uint64()), rng.Float64()*math.Pow(10, float64(rng.IntN(60)-30)))
	}
	for i, est := range estimates {
		var r netdht.CountResult
		fill(reflect.ValueOf(&r).Elem(), rng)
		r.Estimate = est
		want, werr := json.Marshal(r)
		got, gerr := serve.AppendBody([]byte("head"), &r)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("%d: %+v: json.Marshal error %v, AppendBody error %v", i, r, werr, gerr)
		}
		if werr == nil && string(got) != "head"+string(want) {
			t.Fatalf("%d: AppendBody = %s, json.Marshal = %s", i, got, want)
		}
	}
}

// fill sets every exported field under v to a random value.
func fill(v reflect.Value, rng *rand.Rand) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i), rng)
			}
		}
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(rng.Uint64()) >> rng.IntN(64))
	case reflect.Bool:
		v.SetBool(rng.IntN(2) == 1)
	case reflect.Float64:
		v.SetFloat(rng.NormFloat64())
	default:
		panic("fill: no random " + v.Kind().String())
	}
}

// TestHTTPShedIs429: an admission-rejected query surfaces as HTTP 429
// with a Retry-After hint.
func TestHTTPShedIs429(t *testing.T) {
	fc := &fakeCounter{gate: make(chan struct{})}
	serve.ShrinkAdmission(t, 1, 1, 20*time.Millisecond)
	f := serve.New(fc, serve.Config{})
	ts := httptest.NewServer(serve.NewHandler(f, serve.HandlerOptions{}))
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(2)
	for i := 0; i < 2; i++ { // fill the slot and the queue
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/count?metric=a")
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	for i := 0; i < 1000 && (fc.calls.Load() == 0 || f.Stats().Queued == 0); i++ {
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Get(ts.URL + "/count?metric=a")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("shed status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After hint")
	}
	close(fc.gate)
	wg.Wait()
}
