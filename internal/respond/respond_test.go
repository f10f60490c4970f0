package respond

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"testing/iotest"
	"time"
)

// FuzzReadRequest feeds arbitrary bytes to the head reader, seeded with the
// raw requests the admin listener's conformance test sends
// (TestAdminResponder), with what curl and `go tool pprof` send, and with
// pipelined pairs. It must not panic; it consumes no more than MaxHead
// bytes, whatever it returns; it refuses a head as too large only when the
// input holds more than MaxHead bytes; and a head it accepts parses the same
// again from a reader fed one byte at a time, which moves the unread bytes
// in its buffer as they arrive, consumes exactly that head, up to its empty
// line, and has a request line that, sent again alone, parses the same.
func FuzzReadRequest(f *testing.F) {
	for _, seed := range []string{
		"GET /healthz HTTP/1.0\r\n\r\n",
		"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: keep-alive\r\n\r\n",
		"POST /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\nhi",
		"GET /nope HTTP/1.1\r\n\r\n",
		"GET /metrics?x=1 HTTP/1.1\r\n\r\n",
		"GET /statusz HTTP/1.1\r\n\r\n",
		"GET /metrics HTTP/1.1\r\nX-Pad: " + strings.Repeat("a", MaxHead) + "\r\n\r\n",
		"hello\r\n\r\n",
		"GET /healthz HTTP/1.1\r\n: x\r\n\r\n",
		"GET /debug/pprof/ HTTP/1.1\r\n\r\n",
		"GET /debug/pprof/goroutine?debug=1 HTTP/1.1\r\n\r\n",
		"GET /debug/pprof/trace?seconds=1e9 HTTP/1.1\r\n\r\n",
		"GET /count?metric=a%2Fb HTTP/1.1\r\nHost: x\r\n\r\nGET /count?metric=a+b HTTP/1.1\r\nConnection: close\r\n\r\n",
		"GET /count?metric=x HTTP/1.1\nHost: x\n\nGET /statusz HTTP/1.0\n\n",
		"GET /metrics HTTP/1.1\r\n" + strings.Repeat("X: y\r\n", MaxHead/6) + "\r\n",
		"",
		"GET /metrics HTTP/1.1\r\nHost: localhost:9001\r\nUser-Agent: curl/8\r\nAccept: */*\r\n\r\n",
		"GET /debug/pprof/profile?seconds=30 HTTP/1.1\r\nAccept-Encoding: gzip\r\n\r\n",
		"POST /metrics HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi",
		"GET /statusz HTTP/1.1\nHost: x\n\n",
		"GET http://x/ HTTP/1.1\r\n\r\n",
		"GET / HTTP/2.0\r\n\r\n",
		"GET /  HTTP/1.1\r\n\r\n",
		"GET /metrics HTTP/1.1\r\nX: " + strings.Repeat("a", MaxHead) + "\r\n\r\n",
		"GET /metrics HTTP/1.1\r\nno colon\r\n\r\n",
		"GET /metrics HTTP/1.1\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		br := bufio.NewReaderSize(src, MaxHead)
		req, err := readRequest(br)
		read := len(data) - src.Len() - br.Buffered()
		if read > MaxHead {
			t.Fatalf("consumed %d bytes, over %d", read, MaxHead)
		}
		switch {
		case errors.Is(err, errHeadTooLarge):
			if len(data) < MaxHead {
				t.Fatalf("%d bytes refused as a head over %d", len(data), MaxHead)
			}
			return
		case errors.Is(err, errBadRequest):
			return
		case err != nil:
			if err != io.EOF {
				t.Fatalf("error %v from a byte slice", err)
			}
			return
		}
		if head := data[:read]; !bytes.HasSuffix(head, []byte("\n\n")) && !bytes.HasSuffix(head, []byte("\n\r\n")) {
			t.Fatalf("consumed %q, which does not end a head", head)
		}
		if req.Method == "" || strings.Contains(req.Method, " ") || !strings.HasPrefix(req.Path, "/") ||
			strings.ContainsAny(req.Path+req.Query, " \n") || strings.Contains(req.Path, "?") {
			t.Fatalf("accepted %+v", req)
		}
		slow := bufio.NewReaderSize(iotest.OneByteReader(bytes.NewReader(data)), MaxHead)
		again, err := readRequest(slow)
		if err != nil || again != req {
			t.Fatalf("%+v read a byte at a time is %+v, %v", req, again, err)
		}
		if rest, _ := io.ReadAll(slow); !bytes.Equal(rest, data[read:]) {
			t.Fatalf("a byte at a time left %q, want %q", rest, data[read:])
		}
		target := req.Path
		if req.Query != "" {
			target += "?" + req.Query
		}
		line, err := readRequest(bufio.NewReader(strings.NewReader(req.Method + " " + target + " HTTP/1.1\r\n\r\n")))
		if line.Close = req.Close; err != nil || line != req {
			t.Fatalf("%+v sent again parses as %+v, %v", req, line, err)
		}
	})
}

func TestReadRequestClose(t *testing.T) {
	for _, tc := range []struct {
		head  string
		close bool
	}{
		{"GET / HTTP/1.1\r\nHost: x\r\n\r\n", false},
		{"GET / HTTP/1.1\r\nConnection: keep-alive\r\n\r\n", false},
		{"GET / HTTP/1.1\r\nContent-Length: 0\r\n\r\n", false},
		{"GET / HTTP/1.0\r\n\r\n", true},
		{"GET / HTTP/1.1\r\nconnection: Keep-Alive, CLOSE\r\n\r\n", true},
		{"GET / HTTP/1.1\r\nContent-Length: 2\r\n\r\n", true},
		{"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", true},
	} {
		req, err := readRequest(bufio.NewReader(strings.NewReader(tc.head)))
		if err != nil || req.Close != tc.close {
			t.Errorf("%q: Close = %v, %v; want %v", tc.head, req.Close, err, tc.close)
		}
	}
}

// serveEcho runs a Server whose handler answers with the request's target
// and method, and returns its address and the server.
func serveEcho(t *testing.T) (string, *Server) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(echo)
	go s.Serve(ln)
	t.Cleanup(s.Close)
	return ln.Addr().String(), s
}

// echo answers a request with its method, path and query.
func echo(req Request, buf *bytes.Buffer) Reply {
	buf.WriteString(req.Method + " " + req.Path + "?" + req.Query)
	return Reply{Status: 200, CType: CTypeText, Body: buf.Bytes()}
}

// flakyListener fails its first fails Accepts with EMFILE, as a process
// out of descriptors sees, then accepts from the listener it wraps.
type flakyListener struct {
	net.Listener
	fails int
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.fails > 0 {
		l.fails--
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: os.NewSyscallError("accept4", syscall.EMFILE)}
	}
	return l.Listener.Accept()
}

// TestServeRetriesTemporaryAccept: accept errors from a descriptor limit do
// not close the port. Serve waits them out, answers the connection that
// follows, and returns nil once Close ends it.
func TestServeRetriesTemporaryAccept(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(echo)
	done := make(chan error, 1)
	go func() { done <- s.Serve(&flakyListener{Listener: ln, fails: 4}) }()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	io.WriteString(c, "GET /after HTTP/1.1\r\nConnection: close\r\n\r\n")
	got, err := io.ReadAll(c)
	if want := "HTTP/1.1 200 OK\r\n"; err != nil || !strings.HasPrefix(string(got), want) {
		t.Fatalf("reply %q, %v; want one beginning %q", got, err, want)
	}
	s.Close()
	if err := <-done; err != nil {
		t.Errorf("Serve = %v after Close, want nil", err)
	}
}

// TestServerKeepAlive: one connection carries pipelined requests, answered
// in order and left open, until one asks to close; a head that is too
// large or malformed is answered and closed.
func TestServerKeepAlive(t *testing.T) {
	addr, _ := serveEcho(t)
	for _, tc := range []struct {
		name, raw string
		want      []string // replies, in order, then the server closes
	}{
		{"pipelined then close", "GET /a?x=1 HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n",
			[]string{"HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: 10\r\n\r\nGET /a?x=1",
				"HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\nContent-Length: 7\r\n\r\nGET /b?"}},
		{"http/1.0", "GET /c HTTP/1.0\r\n\r\n", []string{"HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\nContent-Length: 7\r\n\r\nGET /c?"}},
		{"over-cap head", "GET / HTTP/1.1\r\nX: " + strings.Repeat("a", MaxHead) + "\r\n\r\n", []string{"HTTP/1.1 431 Request Header Fields Too Large\r\n"}},
		{"not http", "hello\r\n\r\nGET / HTTP/1.1\r\n\r\n", []string{"HTTP/1.1 400 Bad Request\r\n"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err := io.WriteString(c, tc.raw); err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(c)
			if err != nil {
				t.Fatalf("read %q: %v (the server did not close)", got, err)
			}
			rest := string(got)
			for _, w := range tc.want {
				i := strings.Index(rest, w)
				if i != 0 {
					t.Fatalf("reply %q, want it to begin %q", rest, w)
				}
				if strings.HasSuffix(w, "\r\n") { // a status line: the rest is one reply
					return
				}
				rest = rest[len(w):]
			}
			if rest != "" {
				t.Errorf("trailing %q", rest)
			}
		})
	}
}

// TestServerDropsSilentClient: a client that sends nothing is hung up on at
// the head deadline, unanswered.
func TestServerDropsSilentClient(t *testing.T) {
	saved := headTimeout
	headTimeout = 100 * time.Millisecond
	// Cleanups run last first: this one after serveEcho's Close, when no
	// connection goroutine is left to read the deadline.
	t.Cleanup(func() { headTimeout = saved })
	addr, _ := serveEcho(t)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	got, err := io.ReadAll(c)
	if err != nil || len(got) != 0 {
		t.Errorf("silent client read %q, %v; want a hang-up and nothing sent", got, err)
	}
}

// TestServerClosesIdleConn: a keep-alive connection that sends no next
// request is closed at the idle deadline, after its one reply.
func TestServerClosesIdleConn(t *testing.T) {
	saved := idleTimeout
	idleTimeout = 100 * time.Millisecond
	t.Cleanup(func() { idleTimeout = saved })
	addr, _ := serveEcho(t)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	io.WriteString(c, "GET /once HTTP/1.1\r\n\r\n")
	got, err := io.ReadAll(c)
	if want := "GET /once?"; err != nil || !strings.HasSuffix(string(got), want) {
		t.Errorf("idle client read %q, %v; want one reply ending %q, then a hang-up", got, err, want)
	}
}

// TestServerCapsConns: past maxConns open connections the loop answers a
// new one 503 and closes it, and it serves again once one has ended.
func TestServerCapsConns(t *testing.T) {
	saved := maxConns
	maxConns = 1
	t.Cleanup(func() { maxConns = saved })
	addr, s := serveEcho(t)
	dial := func() (net.Conn, *bufio.Reader) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		c.SetDeadline(time.Now().Add(5 * time.Second))
		return c, bufio.NewReader(c)
	}
	held, r := dial()
	io.WriteString(held, "GET /held HTTP/1.1\r\n\r\n")
	if line, err := r.ReadString('\n'); err != nil || line != "HTTP/1.1 200 OK\r\n" {
		t.Fatalf("status line %q, %v", line, err)
	}
	var want bytes.Buffer
	if writeReply(bufio.NewWriter(&want), Text(503, "too many connections"), true); busy != want.String() {
		t.Errorf("busy = %q, want the reply writeReply makes, %q", busy, want.String())
	}
	over, r := dial()
	if got, err := io.ReadAll(r); err != nil || string(got) != busy {
		t.Fatalf("a connection past the cap read %q, %v; want %q and a hang-up", got, err, busy)
	}
	over.Close()
	held.Close()
	for len(s.loop.Conns()) > 0 {
		time.Sleep(time.Millisecond)
	}
	next, r := dial()
	io.WriteString(next, "GET /next HTTP/1.1\r\n\r\n")
	if line, err := r.ReadString('\n'); err != nil || line != "HTTP/1.1 200 OK\r\n" {
		t.Errorf("after the held connection ended: status line %q, %v", line, err)
	}
}

// TestServerCloseSevers: Close returns while one keep-alive connection sits
// idle and others send request after request, and every client sees its
// connection closed.
func TestServerCloseSevers(t *testing.T) {
	addr, s := serveEcho(t)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	io.WriteString(c, "GET / HTTP/1.1\r\n\r\n")
	br := bufio.NewReader(c)
	if line, err := br.ReadString('\n'); err != nil || line != "HTTP/1.1 200 OK\r\n" {
		t.Fatalf("status line %q, %v", line, err)
	}

	const busy = 4
	var wg sync.WaitGroup
	started := make(chan struct{}, busy)
	for i := 0; i < busy; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				started <- struct{}{}
				return
			}
			defer bc.Close()
			bc.SetDeadline(time.Now().Add(5 * time.Second))
			r := bufio.NewReader(bc)
			for n := 0; ; n++ {
				if n == 1 {
					started <- struct{}{}
				}
				if _, err := io.WriteString(bc, "GET /busy HTTP/1.1\r\n\r\n"); err != nil {
					return
				}
				if _, err := r.ReadString('\n'); err != nil {
					var ne net.Error
					if errors.As(err, &ne) && ne.Timeout() {
						t.Error("a busy connection was not closed")
					}
					return
				}
				if _, err := r.Discard(r.Buffered()); err != nil {
					return
				}
			}
		}()
	}
	for i := 0; i < busy; i++ {
		<-started
	}

	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
	wg.Wait()
	rest, err := io.ReadAll(br)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("the idle connection was not closed (read %q)", rest)
	}
}
