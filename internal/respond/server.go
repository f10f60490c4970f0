package respond

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"sync"
	"time"
)

const (
	// HeadTimeout bounds a head from its first byte, as http.Server's
	// ReadHeaderTimeout does.
	HeadTimeout = 5 * time.Second
	// WriteTimeout bounds writing a reply.
	WriteTimeout = 30 * time.Second
)

// A Handler answers one request. The reply may be built in buf, which is
// the connection's own and is reset before each request; the request's
// strings are valid until the reply is written.
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
// then; any other accept error closes ln and is returned.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	closed := s.conns == nil
	s.ln = ln
	s.mu.Unlock()
	if closed {
		ln.Close()
		return nil
	}
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed = s.conns == nil
			s.mu.Unlock()
			ln.Close()
			if closed {
				return nil
			}
			return err
		}
		if !s.track(c) {
			return nil
		}
		go s.serveConn(c)
	}
}

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
	br := bufio.NewReaderSize(c, MaxHead)
	bw := bufio.NewWriter(c)
	var buf bytes.Buffer
	for first := true; ; first = false {
		if !first {
			// Idle between requests: no deadline until the next one starts.
			if c.SetReadDeadline(time.Time{}) != nil {
				return
			}
			if _, err := br.Peek(1); err != nil {
				return
			}
		}
		if c.SetReadDeadline(time.Now().Add(HeadTimeout)) != nil {
			return
		}
		req, err := ReadRequest(br)
		var rep Reply
		switch {
		case errors.Is(err, ErrHeadTooLarge):
			rep, req.Close = Text(431, "request header fields too large"), true
		case errors.Is(err, ErrBadRequest):
			rep, req.Close = Text(400, "bad request"), true
		case err != nil:
			return
		default:
			buf.Reset()
			rep = s.h(req, &buf)
		}
		end := req.Close || rep.Stream != nil
		if c.SetWriteDeadline(time.Now().Add(WriteTimeout+rep.Span)) != nil ||
			WriteReply(bw, rep, end) != nil {
			return
		}
		if end {
			Drain(c, HeadTimeout)
			return
		}
	}
}
