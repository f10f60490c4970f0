package netdht

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"runtime/trace"
	"strings"
	"testing"
	"time"

	"dhsketch/internal/chord"
	"dhsketch/internal/metrics"
	"dhsketch/internal/respond"
)

// startAdmin runs a ring of one with its admin listener up, closed when the
// test ends.
func startAdmin(t *testing.T) (*Server, string) {
	t.Helper()
	reg := metrics.New()
	s, err := NewServer("127.0.0.1:0", obsOptions(reg, nil))
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(s.Close)
	addr, err := s.StartAdmin("127.0.0.1:0", reg)
	if err != nil {
		t.Fatalf("StartAdmin: %v", err)
	}
	return s, addr
}

// rawExchange sends raw to the admin listener and reads until the server
// closes the connection; a read that times out fails the test.
func rawExchange(t *testing.T, addr, raw string) string {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(c, raw); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := io.ReadAll(c)
	if err != nil {
		t.Fatalf("read %q: %v (the server did not close)", got, err)
	}
	return string(got)
}

// TestAdminResponder sends the admin listener raw requests and checks each
// reply's status line, a header or body it must carry, and that the server
// closes the connection after it.
func TestAdminResponder(t *testing.T) {
	_, addr := startAdmin(t)
	over := "GET /metrics HTTP/1.1\r\nX-Pad: " + strings.Repeat("a", adminMaxHead) + "\r\n\r\n"
	for _, tc := range []struct {
		name, req, status string
		want              []string
	}{
		{"http/1.0 get", "GET /healthz HTTP/1.0\r\n\r\n", "200 OK", []string{"Content-Length: 3\r\n", "\r\n\r\nok\n"}},
		{"keep-alive get is answered and closed", "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: keep-alive\r\n\r\n", "200 OK", []string{"Connection: close\r\n"}},
		{"post", "POST /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\nhi", "405 Method Not Allowed", []string{"Allow: GET\r\n"}},
		{"unknown path", "GET /nope HTTP/1.1\r\n\r\n", "404 Not Found", nil},
		{"metrics with a query", "GET /metrics?x=1 HTTP/1.1\r\n\r\n", "200 OK", []string{"version=0.0.4", "# TYPE netdht_rpc_requests_total counter"}},
		{"statusz", "GET /statusz HTTP/1.1\r\n\r\n", "200 OK", []string{"application/json", `"alive": true`}},
		{"over-cap head", over, "431 Request Header Fields Too Large", nil},
		{"not http", "hello\r\n\r\n", "400 Bad Request", nil},
		{"header without a name", "GET /healthz HTTP/1.1\r\n: x\r\n\r\n", "400 Bad Request", nil},
		{"pprof index", "GET /debug/pprof/ HTTP/1.1\r\n\r\n", "200 OK", []string{"/debug/pprof/heap\n", "/debug/pprof/profile?seconds=30"}},
		{"pprof text profile", "GET /debug/pprof/goroutine?debug=1 HTTP/1.1\r\n\r\n", "200 OK", []string{"text/plain", "goroutine profile: total"}},
		{"pprof binary profile", "GET /debug/pprof/heap HTTP/1.1\r\n\r\n", "200 OK", []string{"application/octet-stream", "\r\n\r\n\x1f\x8b"}},
		{"pprof cmdline", "GET /debug/pprof/cmdline HTTP/1.1\r\n\r\n", "200 OK", []string{"netdht.test"}},
		{"pprof cpu", "GET /debug/pprof/profile?seconds=0.05 HTTP/1.1\r\n\r\n", "200 OK", []string{"\r\n\r\n\x1f\x8b"}},
		{"pprof trace", "GET /debug/pprof/trace?seconds=0.05 HTTP/1.1\r\n\r\n", "200 OK", []string{"go 1."}},
		{"pprof overlong", "GET /debug/pprof/trace?seconds=1e9 HTTP/1.1\r\n\r\n", "400 Bad Request", nil},
		{"pprof unknown", "GET /debug/pprof/nosuch HTTP/1.1\r\n\r\n", "404 Not Found", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := rawExchange(t, addr, tc.req)
			if !strings.HasPrefix(got, "HTTP/1.1 "+tc.status+"\r\n") {
				t.Fatalf("reply %.80q, want status %s", got, tc.status)
			}
			for _, w := range tc.want {
				if !strings.Contains(got, w) {
					t.Errorf("reply %.200q lacks %q", got, w)
				}
			}
		})
	}

	code, body, err := AdminGet(addr, "/healthz", 2*time.Second)
	if err != nil || code != 200 || string(body) != "ok\n" {
		t.Errorf("AdminGet /healthz = %d %q %v, want 200 \"ok\\n\"", code, body, err)
	}
	if code, _, err := AdminGet(addr, "/nope", 2*time.Second); err != nil || code != 404 {
		t.Errorf("AdminGet /nope = %d %v, want 404", code, err)
	}
}

// TestAdminDropsSilentClient: a client that sends nothing is hung up on at
// the read deadline, unanswered.
func TestAdminDropsSilentClient(t *testing.T) {
	saved := adminReadTimeout
	adminReadTimeout = 100 * time.Millisecond
	// Cleanups run last first: this one after startAdmin's Close, when no
	// admin goroutine is left to read the timeout.
	t.Cleanup(func() { adminReadTimeout = saved })
	_, addr := startAdmin(t)
	if got := rawExchange(t, addr, ""); got != "" {
		t.Errorf("silent client was sent %q", got)
	}
}

// TestAdminCloseSevers: Close returns promptly while one admin connection
// sits idle and another waits out a 30-second trace, and both are closed.
func TestAdminCloseSevers(t *testing.T) {
	s, addr := startAdmin(t)
	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	busy, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	if _, err := io.WriteString(busy, "GET /debug/pprof/trace?seconds=30 HTTP/1.1\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); !trace.IsEnabled(); time.Sleep(time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			t.Fatal("the trace request never started")
		}
	}

	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return with a trace in flight and a connection idle")
	}
	if trace.IsEnabled() {
		t.Error("the trace is still running after Close")
	}
	for name, c := range map[string]net.Conn{"idle": idle, "busy": busy} {
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		var ne net.Error
		if _, err := io.ReadAll(c); errors.As(err, &ne) && ne.Timeout() {
			t.Errorf("%s connection not closed by Close: %v", name, err)
		}
	}
}

// FuzzAdminRequest feeds arbitrary bytes to the admin request parser,
// respond.ReadRequest, as the admin connection reads it. It
// must not panic; it reads no further than adminMaxHead bytes; it refuses a
// head as too large only when the input holds that many; and what it
// accepts is a GET-shaped request whose line, sent again, parses the same.
func FuzzAdminRequest(f *testing.F) {
	for _, seed := range []string{
		"GET /metrics HTTP/1.1\r\nHost: localhost:9001\r\nUser-Agent: curl/8\r\nAccept: */*\r\n\r\n",
		"GET /healthz HTTP/1.0\r\n\r\n",
		"GET /debug/pprof/profile?seconds=30 HTTP/1.1\r\nAccept-Encoding: gzip\r\n\r\n",
		"POST /metrics HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi",
		"GET /statusz HTTP/1.1\nHost: x\n\n",
		"GET http://x/ HTTP/1.1\r\n\r\n",
		"GET / HTTP/2.0\r\n\r\n",
		"GET /  HTTP/1.1\r\n\r\n",
		"GET /metrics HTTP/1.1\r\nX: " + strings.Repeat("a", adminMaxHead) + "\r\n\r\n",
		"GET /metrics HTTP/1.1\r\n" + strings.Repeat("X: y\r\n", adminMaxHead/6) + "\r\n",
		"GET /metrics HTTP/1.1\r\nno colon\r\n\r\n",
		"GET /metrics HTTP/1.1\r\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		br := bufio.NewReaderSize(src, adminMaxHead)
		req, err := respond.ReadRequest(br)
		switch {
		case errors.Is(err, respond.ErrHeadTooLarge):
			if len(data) < adminMaxHead {
				t.Fatalf("%d bytes refused as a head over %d", len(data), adminMaxHead)
			}
			return
		case errors.Is(err, respond.ErrBadRequest):
			return
		case err != nil:
			if err != io.EOF {
				t.Fatalf("error %v from a byte slice", err)
			}
			return
		}
		if read := len(data) - src.Len() - br.Buffered(); read > adminMaxHead {
			t.Fatalf("accepted a head of %d bytes", read)
		}
		if req.Method == "" || strings.Contains(req.Method, " ") || !strings.HasPrefix(req.Path, "/") ||
			strings.ContainsAny(req.Path+req.Query, " \n") || strings.Contains(req.Path, "?") {
			t.Fatalf("accepted %+v", req)
		}
		target := req.Path
		if req.Query != "" {
			target += "?" + req.Query
		}
		again, err := respond.ReadRequest(bufio.NewReader(strings.NewReader(req.Method + " " + target + " HTTP/1.1\r\n\r\n")))
		if again.Close = req.Close; err != nil || again != req {
			t.Fatalf("%+v sent again parses as %+v, %v", req, again, err)
		}
	})
}

// TestAdminScrapeZeroAlloc pins what an admin connection costs past its
// accept: answering /metrics — the node's registry, runtime samples
// included — and /statusz on a linked node with a store, and writing the
// reply, allocate nothing once the pooled buffers have served one of each.
// The statusz document is the one Status would encode.
func TestAdminScrapeZeroAlloc(t *testing.T) {
	reg := metrics.New()
	reg.RegisterRuntime()
	s, err := NewServer("127.0.0.1:0", Options{Metrics: reg})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(s.Close)
	s.Protocol().HandleNotify(chord.Ref{ID: s.ID() - 1000, Addr: "127.0.0.1:1"})
	halfFill(s, 8, 64, 2, 8)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		if peer, err := ln.Accept(); err == nil {
			io.Copy(io.Discard, peer)
			peer.Close()
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	b := adminBufPool.Get().(*adminBufs)
	b.w.Reset(c)
	for _, path := range []string{"/metrics", "/statusz"} {
		answer := func() {
			if err := writeAdminReply(c, b.w, s.adminAnswer(adminRequest{method: "GET", path: path}, reg, b)); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
		}
		answer()
		// encoding/json takes its encoder state from a sync.Pool.
		if n := testing.AllocsPerRun(20, answer); n != 0 && !(raceDetector && path == "/statusz") {
			t.Errorf("%s: an answer allocated %.1f/op, want 0", path, n)
		}
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	enc.Encode(s.Status())
	if got := b.json.String(); got != want.String() || !strings.Contains(got, `"successors": [
    "127.0.0.1:1"
  ]`) {
		t.Errorf("/statusz wrote\n%s\nwant\n%s", got, want.String())
	}
}

// TestPprofSecondsBound pins where a profile's or a trace's length is
// refused: 600 s is the longest asked for and served; past it, by half a
// second or by 1e9 s, the request is refused; and an absent, unparsable,
// zero or negative length takes the endpoint's default.
func TestPprofSecondsBound(t *testing.T) {
	for _, tc := range []struct {
		query string
		want  time.Duration
		ok    bool
	}{
		{"seconds=600", 600 * time.Second, true},
		{"debug=1&seconds=0.05", 50 * time.Millisecond, true},
		{"seconds=600.5", 0, false},
		{"seconds=1e9", 0, false},
		{"", 30 * time.Second, true},
		{"seconds=", 30 * time.Second, true},
		{"seconds=x", 30 * time.Second, true},
		{"seconds=0", 30 * time.Second, true},
		{"seconds=-5", 30 * time.Second, true},
	} {
		d, ok := pprofSeconds(tc.query, 30)
		if ok != tc.ok || ok && d != tc.want {
			t.Errorf("pprofSeconds(%q) = %v, %v; want %v, %v", tc.query, d, ok, tc.want, tc.ok)
		}
	}
}
