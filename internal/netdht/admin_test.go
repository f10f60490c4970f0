package netdht

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime/trace"
	"strconv"
	"strings"
	"syscall"
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
// reply's status line, then the headers and body it must carry, in order.
// Each exchange ends with the server closing the connection, so a request
// that would leave it open asks to close: the listener keeps a connection
// alive until its client does.
func TestAdminResponder(t *testing.T) {
	_, addr := startAdmin(t)
	over := "GET /metrics HTTP/1.1\r\nX-Pad: " + strings.Repeat("a", respond.MaxHead) + "\r\n\r\n"
	const closeIt = "Connection: close\r\n\r\n"
	for _, tc := range []struct {
		name, req, status string
		want              []string
	}{
		{"http/1.0 get", "GET /healthz HTTP/1.0\r\n\r\n", "200 OK", []string{"Content-Length: 3\r\n\r\nok\n"}},
		{"keep-alive get is answered and closed", "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: keep-alive\r\n\r\nGET /healthz HTTP/1.1\r\n" + closeIt,
			"200 OK", []string{"\r\nContent-Length: 3\r\n\r\nok\nHTTP/1.1 200 OK\r\n", "Connection: close\r\n", "\r\n\r\nok\n"}},
		{"pipelined metrics then statusz", "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\nGET /statusz HTTP/1.1\r\nHost: x\r\n" + closeIt,
			"200 OK", []string{"version=0.0.4", "# TYPE netdht_rpc_requests_total counter",
				"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nConnection: close\r\n", `"alive": true`}},
		{"post", "POST /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\nhi", "405 Method Not Allowed", []string{"Allow: GET\r\n"}},
		{"unknown path", "GET /nope HTTP/1.1\r\n" + closeIt, "404 Not Found", nil},
		{"metrics with a query", "GET /metrics?x=1 HTTP/1.1\r\n" + closeIt, "200 OK", []string{"version=0.0.4", "# TYPE netdht_rpc_requests_total counter"}},
		{"statusz", "GET /statusz HTTP/1.1\r\n" + closeIt, "200 OK", []string{"application/json", `"alive": true`}},
		{"over-cap head", over, "431 Request Header Fields Too Large", nil},
		{"not http", "hello\r\n\r\n", "400 Bad Request", nil},
		{"header without a name", "GET /healthz HTTP/1.1\r\n: x\r\n\r\n", "400 Bad Request", nil},
		{"pprof index", "GET /debug/pprof/ HTTP/1.1\r\n" + closeIt, "200 OK", []string{"/debug/pprof/heap\n", "/debug/pprof/profile?seconds=30"}},
		{"pprof text profile", "GET /debug/pprof/goroutine?debug=1 HTTP/1.1\r\n" + closeIt, "200 OK", []string{"text/plain", "goroutine profile: total"}},
		{"pprof binary profile", "GET /debug/pprof/heap HTTP/1.1\r\n" + closeIt, "200 OK", []string{"application/octet-stream", "\r\n\r\n\x1f\x8b"}},
		{"pprof cmdline", "GET /debug/pprof/cmdline HTTP/1.1\r\n" + closeIt, "200 OK", []string{"netdht.test"}},
		{"pprof cpu", "GET /debug/pprof/profile?seconds=0.05 HTTP/1.1\r\n" + closeIt, "200 OK", []string{"\r\n\r\n\x1f\x8b"}},
		{"pprof trace", "GET /debug/pprof/trace?seconds=0.05 HTTP/1.1\r\n\r\n", "200 OK", []string{"go 1."}},
		{"pprof overlong", "GET /debug/pprof/trace?seconds=1e9 HTTP/1.1\r\n" + closeIt, "400 Bad Request", nil},
		{"pprof unknown", "GET /debug/pprof/nosuch HTTP/1.1\r\n" + closeIt, "404 Not Found", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := rawExchange(t, addr, tc.req)
			if !strings.HasPrefix(got, "HTTP/1.1 "+tc.status+"\r\n") {
				t.Fatalf("reply %.80q, want status %s", got, tc.status)
			}
			rest := got
			for _, w := range tc.want {
				i := strings.Index(rest, w)
				if i < 0 {
					t.Fatalf("reply %.200q lacks %q after what came before", got, w)
				}
				rest = rest[i+len(w):]
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

// FuzzAdminRequest sends arbitrary bytes to the admin handler on respond's
// loop, as a client that then half-closes. The node is closed first, so a
// profile or a trace ends at once instead of waiting out its seconds, and
// the listener is a Unix socket, which leaves no TIME_WAIT behind each input
// as loopback TCP does. It must not panic; the connection ends; what comes
// back is a run of HTTP/1.1 replies; the first is 431 only when the input
// holds MaxHead bytes; and a first request the loop accepted is answered
// the same when its request line is sent again alone. FuzzReadRequest holds
// the head reader's own properties.
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
		"GET /metrics HTTP/1.1\r\nX: " + strings.Repeat("a", respond.MaxHead) + "\r\n\r\n",
		"GET /metrics HTTP/1.1\r\n" + strings.Repeat("X: y\r\n", respond.MaxHead/6) + "\r\n",
		"GET /metrics HTTP/1.1\r\nno colon\r\n\r\n",
		"GET /metrics HTTP/1.1\r\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	reg := metrics.New()
	s, err := NewServer("127.0.0.1:0", obsOptions(reg, nil))
	if err != nil {
		f.Fatalf("NewServer: %v", err)
	}
	s.Close()
	ln, err := net.Listen("unix", filepath.Join(f.TempDir(), "admin"))
	if err != nil {
		f.Fatal(err)
	}
	srv := respond.NewServer(s.adminHandler(reg))
	go srv.Serve(ln)
	f.Cleanup(srv.Close)

	// exchange sends raw, half-closes, and reads until the loop closes. A
	// loop that closes with bytes unread resets a Unix socket's peer after
	// the bytes it wrote, so a reset ends the replies as EOF does.
	exchange := func(t *testing.T, raw []byte) []byte {
		c, err := net.Dial("unix", ln.Addr().String())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer c.Close()
		if err := c.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
			t.Fatal(err)
		}
		sent := make(chan struct{})
		go func() {
			defer close(sent)
			if _, err := c.Write(raw); err == nil {
				c.(*net.UnixConn).CloseWrite()
			}
		}()
		got, err := io.ReadAll(c)
		c.Close()
		<-sent
		if err != nil && !errors.Is(err, syscall.ECONNRESET) {
			t.Fatalf("read %.80q: %v (the listener did not end the connection)", got, err)
		}
		return got
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got := exchange(t, data)
		first := 0
		for br := bufio.NewReader(bytes.NewReader(got)); ; {
			if _, err := br.Peek(1); err == io.EOF {
				break
			}
			rep, err := http.ReadResponse(br, nil)
			if err != nil {
				t.Fatalf("reply %.200q: %v", got, err)
			}
			_, err = io.Copy(io.Discard, rep.Body)
			if rep.Body.Close(); err != nil || rep.Proto != "HTTP/1.1" {
				t.Fatalf("reply %.200q: %s, %v", got, rep.Proto, err)
			}
			if first == 0 {
				first = rep.StatusCode
			}
		}
		switch first {
		case 0, 400:
			return
		case 431:
			if len(data) < respond.MaxHead {
				t.Fatalf("%d bytes refused as a head over %d", len(data), respond.MaxHead)
			}
			return
		}
		line, _, _ := bytes.Cut(data, []byte("\n"))
		again := exchange(t, append(bytes.TrimSuffix(line, []byte("\r")), "\r\nConnection: close\r\n\r\n"...))
		if want := "HTTP/1.1 " + strconv.Itoa(first) + " "; !bytes.HasPrefix(again, []byte(want)) {
			t.Fatalf("%q answered %d, and alone %.40q", line, first, again)
		}
	})
}

// TestAdminScrapeZeroAlloc pins what an admin scrape costs past its
// accept: over a warm keep-alive connection to the node's admin listener,
// reading the head, answering /metrics — the node's registry, runtime
// samples included — and /statusz on a linked node with a store, and
// writing the reply allocate nothing. The client writes a prebuilt request
// and reads the reply into a buffer of its own, so whatever the run
// allocates is the server's. The statusz document is the one Status would
// encode.
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
	addr, err := s.StartAdmin("127.0.0.1:0", reg)
	if err != nil {
		t.Fatalf("StartAdmin: %v", err)
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<20)
	var body []byte
	for _, path := range []string{"/metrics", "/statusz"} {
		req := []byte("GET " + path + " HTTP/1.1\r\nHost: x\r\nUser-Agent: curl/8\r\n\r\n")
		var failed error
		answer := func() {
			if _, failed = c.Write(req); failed == nil {
				body, failed = readReply(c, buf)
			}
		}
		answer()
		// encoding/json takes its encoder state from a sync.Pool.
		if n := testing.AllocsPerRun(20, answer); n != 0 && !(raceDetector && path == "/statusz") {
			t.Errorf("%s: an answer allocated %.1f/op, want 0", path, n)
		}
		if failed != nil {
			t.Fatalf("%s: %v", path, failed)
		}
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	enc.Encode(s.Status())
	if got := string(body); got != want.String() || !strings.Contains(got, `"successors": [
    "127.0.0.1:1"
  ]`) {
		t.Errorf("/statusz wrote\n%s\nwant\n%s", got, want.String())
	}
}

// readReply reads one 200 reply with a Content-Length from c into buf and
// returns its body, allocating nothing.
func readReply(c net.Conn, buf []byte) ([]byte, error) {
	for n := 0; ; {
		m, err := c.Read(buf[n:])
		if err != nil {
			return nil, err
		}
		n += m
		i := bytes.Index(buf[:n], []byte("\r\n\r\n"))
		if i < 0 {
			continue
		}
		head := buf[:i]
		_, length, ok := bytes.Cut(head, []byte("\r\nContent-Length: "))
		if !bytes.HasPrefix(head, []byte("HTTP/1.1 200 OK\r\n")) || !ok {
			return nil, errors.New("not a 200 reply with a length")
		}
		size := 0
		for _, d := range length {
			if d < '0' || d > '9' {
				break
			}
			size = size*10 + int(d-'0')
		}
		end := i + 4 + size
		for n < end {
			if m, err = c.Read(buf[n:end]); err != nil {
				return nil, err
			}
			n += m
		}
		return buf[i+4 : end], nil
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
