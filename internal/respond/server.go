package respond

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"syscall"
	"time"
)

// The bounds every port holds, the ring port's as well as the HTTP ports'
// (conndeadline invariant, DESIGN.md §10).
const (
	// IdleTimeout bounds the wait for a connection's next request: an
	// idle connection is closed, and its client dials again. It is far
	// past every keep-alive gap of the repository's clients; the longest,
	// a benchmark scraper's across its warm-up and measuring window, is
	// about 12 s.
	IdleTimeout = 5 * time.Minute
	// WriteTimeout bounds writing a reply.
	WriteTimeout = 30 * time.Second
	// MaxConns caps the connections a port holds open; a connection
	// accepted past it is closed at once. The most any test holds open on
	// one port is 19, a ring port of the benchmark's 8-node ring 11, and
	// `make smoke` 6 (DESIGN.md §16).
	MaxConns = 1024
)

// headTimeout bounds a head from its first byte, as http.Server's
// ReadHeaderTimeout does; idleTimeout and maxConns are the HTTP ports'
// IdleTimeout and MaxConns. Variables, so a test can shrink them.
var (
	headTimeout = 5 * time.Second
	idleTimeout = IdleTimeout
	maxConns    = MaxConns
)

// busy is what an HTTP port answers a connection past its cap with.
const busy = "HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\nContent-Length: 21\r\n\r\ntoo many connections\n"

// A Handler answers one request. The reply may be built in buf, which the
// connection holds until it ends and which is reset before each request;
// the request's strings are valid until the reply is written.
type Handler func(req Request, buf *bytes.Buffer) Reply

// Server answers requests with one Handler on keep-alive connections of a
// Loop, until Close.
type Server struct {
	h    Handler
	loop Loop
}

// NewServer returns a Server that answers with h.
func NewServer(h Handler) *Server { return &Server{h: h} }

// Serve answers the connections accepted on ln until Close, as Loop.Serve,
// and a connection past maxConns with busy.
func (s *Server) Serve(ln net.Listener) error { return s.loop.Serve(ln, maxConns, busy, s.serveConn) }

// Close closes the listener and every connection, and waits for them.
func (s *Server) Close() { s.loop.Close() }

// Loop is the half of a port that knows no protocol: it accepts
// connections, runs one goroutine a connection, and Close severs them all
// and waits. The zero value is ready to use.
type Loop struct {
	wg     sync.WaitGroup
	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
}

// Serve accepts connections on ln and runs serve on each until Close closes
// ln, and returns nil then; a connection is closed once serve returns. A
// connection accepted while limit are open is refused: it is sent refusal,
// if that is not empty, and closed. A temporary accept error is retried
// behind an acceptBackoff; any other closes ln and is returned.
func (l *Loop) Serve(ln net.Listener, limit int, refusal string, serve func(net.Conn)) error {
	l.mu.Lock()
	closed := l.closed
	l.ln, l.conns = ln, make(map[net.Conn]struct{})
	l.mu.Unlock()
	if closed {
		ln.Close()
		return nil
	}
	var backoff acceptBackoff
	for {
		c, err := ln.Accept()
		if err != nil {
			l.mu.Lock()
			closed = l.closed
			l.mu.Unlock()
			if !closed && backoff.retry(err) {
				continue
			}
			ln.Close()
			if closed {
				return nil
			}
			return err
		}
		backoff.wait = 0
		l.mu.Lock()
		closed = l.closed
		open := len(l.conns) < limit && !closed
		if open {
			l.conns[c] = struct{}{}
			l.wg.Add(1)
		}
		l.mu.Unlock()
		switch {
		case open:
			go l.run(c, serve)
		case closed:
			c.Close()
			return nil
		default:
			refuse(c, refusal)
		}
	}
}

// refuse writes refusal to c, which a fresh socket's send buffer takes
// whole, and closes c.
func refuse(c net.Conn, refusal string) {
	if refusal != "" && c.SetWriteDeadline(time.Now().Add(WriteTimeout)) == nil {
		io.WriteString(c, refusal)
	}
	c.Close()
}

// run serves c, then forgets and closes it.
func (l *Loop) run(c net.Conn, serve func(net.Conn)) {
	defer l.wg.Done()
	serve(c)
	l.mu.Lock()
	delete(l.conns, c)
	l.mu.Unlock()
	c.Close()
}

// Conns returns the connections open now.
func (l *Loop) Conns() []net.Conn {
	l.mu.Lock()
	defer l.mu.Unlock()
	conns := make([]net.Conn, 0, len(l.conns))
	for c := range l.conns {
		conns = append(conns, c)
	}
	return conns
}

// Close closes the listener and every connection, and waits for the
// connections' goroutines to end.
func (l *Loop) Close() {
	l.mu.Lock()
	l.closed = true
	if l.ln != nil {
		l.ln.Close()
	}
	for c := range l.conns {
		c.Close()
	}
	l.mu.Unlock()
	l.wg.Wait()
}

// acceptBackoff paces an accept loop through temporary errors as net/http
// does: the process or the system is out of descriptors (EMFILE, ENFILE),
// or a connection was aborted before it was accepted (ECONNABORTED). The
// loop waits 5 ms, doubling to 1 s, and tries again; an accepted
// connection resets the wait.
type acceptBackoff struct{ wait time.Duration }

// retry reports whether err is temporary, after waiting out the backoff
// when it is.
func (b *acceptBackoff) retry(err error) bool {
	if !errors.Is(err, syscall.EMFILE) && !errors.Is(err, syscall.ENFILE) && !errors.Is(err, syscall.ECONNABORTED) {
		return false
	}
	b.wait = min(max(2*b.wait, 5*time.Millisecond), time.Second)
	time.Sleep(b.wait)
	return true
}

// serveConn answers c's requests in turn until the client hangs up, a
// request leaves no next one, or a head is late or malformed.
func (s *Server) serveConn(c net.Conn) {
	var b *connBufs
	select {
	case b = <-freeBufs:
	default:
		b = &connBufs{r: bufio.NewReaderSize(nil, MaxHead), w: bufio.NewWriter(nil)}
	}
	defer b.release()
	b.r.Reset(c)
	b.w.Reset(c)
	for first := true; ; first = false {
		if !first {
			// Idle between requests, for at most idleTimeout.
			if c.SetReadDeadline(time.Now().Add(idleTimeout)) != nil {
				return
			}
			if _, err := b.r.Peek(1); err != nil {
				return
			}
		}
		if c.SetReadDeadline(time.Now().Add(headTimeout)) != nil {
			return
		}
		req, err := readRequest(b.r)
		var rep Reply
		switch {
		case errors.Is(err, errHeadTooLarge):
			rep, req.Close = Text(431, "request header fields too large"), true
		case errors.Is(err, errBadRequest):
			rep, req.Close = Text(400, "bad request"), true
		case err != nil:
			return
		default:
			b.buf.Reset()
			rep = s.h(req, &b.buf)
		}
		end := req.Close || rep.Stream != nil
		if c.SetWriteDeadline(time.Now().Add(WriteTimeout+rep.Span)) != nil ||
			writeReply(b.w, rep, end) != nil {
			return
		}
		if end {
			drain(c, headTimeout)
			return
		}
	}
}

// connBufs are a connection's read and write buffers and the buffer its
// replies are built in.
type connBufs struct {
	r   *bufio.Reader
	w   *bufio.Writer
	buf bytes.Buffer
}

// freeBufs holds the buffers of ended connections for the next ones: a
// daemon below its first collection keeps all it allocates, and a scraper
// that opens a connection a scrape would pay each time for all three, the
// reply buffer grown to a /metrics body. A channel, not a sync.Pool, which
// keeps what a P put back for that P; eight is more connections than any
// client of the daemons holds open at once.
var freeBufs = make(chan *connBufs, 8)

// release hands b to the next connection, holding on to no connection.
func (b *connBufs) release() {
	b.r.Reset(nil)
	b.w.Reset(nil)
	select {
	case freeBufs <- b:
	default:
	}
}
