package respond

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"sync"
	"syscall"
	"time"
)

// headTimeout bounds a head from its first byte, as http.Server's
// ReadHeaderTimeout does. It is a variable so a test can shrink it.
var headTimeout = 5 * time.Second

// writeTimeout bounds writing a reply.
const writeTimeout = 30 * time.Second

// A Handler answers one request. The reply may be built in buf, which the
// connection holds until it ends and which is reset before each request;
// the request's strings are valid until the reply is written.
type Handler func(req Request, buf *bytes.Buffer) Reply

// Server answers requests with one Handler on keep-alive connections, one
// goroutine a connection, until Close.
type Server struct {
	h     Handler
	wg    sync.WaitGroup
	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{} // nil once closed
}

// NewServer returns a Server that answers with h.
func NewServer(h Handler) *Server {
	return &Server{h: h, conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections on ln until Close closes it, and returns nil
// then. A temporary accept error is retried behind an AcceptBackoff; any
// other closes ln and is returned.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	closed := s.conns == nil
	s.ln = ln
	s.mu.Unlock()
	if closed {
		ln.Close()
		return nil
	}
	var backoff AcceptBackoff
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed = s.conns == nil
			s.mu.Unlock()
			if !closed && backoff.Retry(err) {
				continue
			}
			ln.Close()
			if closed {
				return nil
			}
			return err
		}
		backoff.Reset()
		if !s.track(c) {
			return nil
		}
		go s.serveConn(c)
	}
}

// AcceptBackoff paces an accept loop through temporary errors as net/http
// does: the process or the system is out of descriptors (EMFILE, ENFILE),
// or a connection was aborted before it was accepted (ECONNABORTED). The
// loop waits 5 ms, doubling to 1 s, and tries again; an accepted
// connection resets the wait. The zero value is ready to use.
type AcceptBackoff struct{ wait time.Duration }

// Retry reports whether err is temporary, after waiting out the backoff
// when it is.
func (b *AcceptBackoff) Retry(err error) bool {
	if !errors.Is(err, syscall.EMFILE) && !errors.Is(err, syscall.ENFILE) && !errors.Is(err, syscall.ECONNABORTED) {
		return false
	}
	b.wait = min(max(2*b.wait, 5*time.Millisecond), time.Second)
	time.Sleep(b.wait)
	return true
}

// Reset starts the next run of errors at the shortest wait.
func (b *AcceptBackoff) Reset() { b.wait = 0 }

// track records c as open and counts its goroutine, or closes it when the
// server is closed.
func (s *Server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conns == nil {
		c.Close()
		return false
	}
	s.conns[c] = struct{}{}
	s.wg.Add(1)
	return true
}

// Close closes the listener and every connection, and waits for the
// connections' goroutines to end.
func (s *Server) Close() {
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.conns = nil
	s.mu.Unlock()
	s.wg.Wait()
}

// serveConn answers c's requests in turn until the client hangs up, a
// request leaves no next one, or a head is late or malformed.
func (s *Server) serveConn(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		if s.conns != nil {
			delete(s.conns, c)
		}
		s.mu.Unlock()
		c.Close()
	}()
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
			// Idle between requests: no deadline until the next one starts.
			if c.SetReadDeadline(time.Time{}) != nil {
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
		if c.SetWriteDeadline(time.Now().Add(writeTimeout+rep.Span)) != nil ||
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
