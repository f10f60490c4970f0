package netdht

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime/pprof"
	"runtime/trace"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"dhsketch/internal/chord"
	"dhsketch/internal/metrics"
	"dhsketch/internal/respond"
	"dhsketch/internal/store"
)

// Status is the /statusz document: a point-in-time snapshot of one
// node's identity, ring neighborhood, store, and load counters. Field
// names are part of the admin API surface (dhsnode status parses them).
type Status struct {
	ID     string `json:"id"` // 16-hex-digit ring identifier
	Name   string `json:"name"`
	Addr   string `json:"addr"`
	Alive  bool   `json:"alive"`
	Linked bool   `json:"linked"`
	Tick   int64  `json:"tick"`

	Predecessor string   `json:"predecessor,omitempty"`
	Successors  []string `json:"successors"`
	// Fingers counts the distinct addresses in the finger table — a
	// converged large ring shows many, a ring of one shows zero.
	Fingers int `json:"fingers"`

	StoreTuples int   `json:"store_tuples"`
	StoreBytes  int64 `json:"store_bytes"`

	Routed   int64 `json:"routed"`
	Probed   int64 `json:"probed"`
	StoreOps int64 `json:"store_ops"`
}

// Status snapshots the server for /statusz (and tests).
func (s *Server) Status() Status {
	var st Status
	s.status(&st)
	return st
}

// status fills st with the server's snapshot. It keeps st's successor
// array and, while the node's identifier reads the same, its ID string:
// /statusz fills the Status of a pooled admin buffer, and allocates nothing.
func (s *Server) status(st *Status) {
	var id [16]byte
	for i, v := len(id)-1, s.ID(); i >= 0; i, v = i-1, v>>4 {
		id[i] = "0123456789abcdef"[v&15]
	}
	if st.ID != string(id[:]) {
		st.ID = string(id[:])
	}
	st.Name, st.Addr = s.Name(), s.addr
	st.Alive, st.Linked, st.Tick = s.Alive(), s.linked.Load(), s.tick.Load()
	nb := s.Protocol().Neighbors()
	st.Predecessor = nb.Pred.Addr // "" when unknown
	if st.Successors == nil {
		st.Successors = []string{} // a node with none shows [], not null
	}
	st.Successors = st.Successors[:0]
	for _, sc := range nb.Succ {
		st.Successors = append(st.Successors, sc.Addr)
	}
	fingers := s.Protocol().Fingers()
	st.Fingers = 0
	for i, f := range fingers {
		if f.Valid() && f.ID != s.ID() &&
			!slices.ContainsFunc(fingers[:i], func(g chord.Ref) bool { return g.Addr == f.Addr }) {
			st.Fingers++
		}
	}
	st.StoreTuples, st.StoreBytes = 0, 0
	if tup, ok := s.App().(*store.Store); ok {
		now := s.nowFn()
		st.StoreTuples = tup.Len(now)
		st.StoreBytes = tup.Bytes(now)
	}
	c := s.Counters().Snapshot()
	st.Routed, st.Probed, st.StoreOps = c.Routed, c.Probed, c.StoreOps
}

// Healthy reports the node's /healthz verdict: not OK while shutting
// down, and not OK when a node that was ever linked into a ring has
// lost every successor (partitioned). A fresh bootstrap ring-of-one —
// never linked — is healthy: it is the state every ring starts in.
func (s *Server) Healthy() (bool, string) {
	if !s.Alive() {
		return false, "shutting down"
	}
	if _, ok := s.Protocol().Successor(); s.linked.Load() && !ok {
		return false, "partitioned: no successors"
	}
	return true, "ok"
}

// The admin listener speaks the subset of HTTP/1.1 its readers use — curl,
// Prometheus, `go tool pprof`, `dhsnode status`: one GET per connection,
// answered and closed (DESIGN.md §15), over internal/respond's head reader
// and reply writer. Its bounds (conndeadline and wirebounds invariants,
// DESIGN.md §10): a request's head arrives within adminReadTimeout and in at
// most adminMaxHead bytes, or is answered 431; a reply is written within
// adminWriteTimeout, plus the seconds a trace was asked to run; a profile
// or a trace runs at most adminMaxSeconds. The timeouts are variables, not
// constants, so tests can shrink them.
const (
	adminMaxHead    = respond.MaxHead
	adminMaxSeconds = 600
	// adminMaxReply caps what AdminGet reads of a reply.
	adminMaxReply = 1 << 20
)

var (
	adminReadTimeout  = 5 * time.Second
	adminWriteTimeout = 30 * time.Second
)

// StartAdmin binds an HTTP listener at listen serving the operational
// endpoints — /metrics (Prometheus text exposition of reg), /healthz,
// /statusz (JSON Status), and /debug/pprof/ — and ties its lifetime to
// the server: Close shuts the admin listener and every admin connection
// down and waits for them. Must be called before Close; returns the
// bound address.
func (s *Server) StartAdmin(listen string, reg *metrics.Registry) (string, error) {
	select {
	case <-s.quit:
		return "", fmt.Errorf("netdht: admin: server already closed")
	default:
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return "", fmt.Errorf("netdht: admin listen %s: %w", listen, err)
	}
	s.wg.Add(1)
	go s.serveAdmin(ln, reg) // returns once the watcher closes ln
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		<-s.quit
		ln.Close()
	}()
	addr := ln.Addr().String()
	s.logKV("admin-listening", "addr", addr)
	return addr, nil
}

// serveAdmin is the admin accept loop. Its connections are tracked with
// the ring's, so Close severs an idle or a half-answered one with the rest.
func (s *Server) serveAdmin(ln net.Listener, reg *metrics.Registry) {
	defer s.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil || !s.trackConn(c) {
			return
		}
		s.wg.Add(1)
		go s.serveAdminConn(c, reg)
	}
}

// serveAdminConn answers the one request of an admin connection. A client
// that sends no whole head in time, or hangs up, gets no answer.
func (s *Server) serveAdminConn(c net.Conn, reg *metrics.Registry) {
	defer s.wg.Done()
	defer s.dropConn(c)
	b := adminBufPool.Get().(*adminBufs)
	defer b.release()
	b.r.Reset(c)
	b.w.Reset(c)
	if c.SetReadDeadline(time.Now().Add(adminReadTimeout)) != nil {
		return
	}
	req, err := respond.ReadRequest(b.r)
	var rep respond.Reply
	switch {
	case errors.Is(err, respond.ErrHeadTooLarge):
		rep = respond.Text(431, "request header fields too large")
	case errors.Is(err, respond.ErrBadRequest):
		rep = respond.Text(400, "bad request")
	case err != nil:
		return
	default:
		rep = s.adminAnswer(adminRequest{req.Method, req.Path, req.Query}, reg, b)
	}
	if writeAdminReply(c, b.w, rep) == nil {
		respond.Drain(c, adminReadTimeout)
	}
}

// adminBufs are an admin connection's read and write buffers, and the
// /statusz document with the buffer and encoder it is written with, pooled:
// a node below the runtime's first collection keeps every byte it
// allocates resident, and the benchmark polls /statusz many times.
type adminBufs struct {
	r      *bufio.Reader
	w      *bufio.Writer
	status Status
	json   bytes.Buffer
	enc    *json.Encoder
}

var adminBufPool = sync.Pool{New: func() any {
	b := &adminBufs{r: bufio.NewReaderSize(nil, adminMaxHead), w: bufio.NewWriter(nil)}
	b.enc = json.NewEncoder(&b.json)
	b.enc.SetIndent("", "  ")
	return b
}}

// release returns b to the pool, holding on to no connection.
func (b *adminBufs) release() {
	b.r.Reset(nil)
	b.w.Reset(nil)
	adminBufPool.Put(b)
}

// adminRequest is what the responder keeps of a request: its method, and
// its target split into path and query string.
type adminRequest struct {
	method, path, query string
}

const ctypeBytes = "application/octet-stream"

// writeAdminReply sends rep on c through bw, which writes to c, and asks
// the client to close.
func writeAdminReply(c net.Conn, bw *bufio.Writer, rep respond.Reply) error {
	if err := c.SetWriteDeadline(time.Now().Add(rep.Span + adminWriteTimeout)); err != nil {
		return err
	}
	return respond.WriteReply(bw, rep, true)
}

// adminAnswer routes a well-formed request to its endpoint. A /statusz
// reply is built in b and valid until b is released.
func (s *Server) adminAnswer(req adminRequest, reg *metrics.Registry, b *adminBufs) respond.Reply {
	if req.method != "GET" {
		return respond.MethodNotAllowed
	}
	switch req.path {
	case "/metrics":
		return respond.Reply{Status: 200, CType: "text/plain; version=0.0.4; charset=utf-8", Stream: reg}
	case "/healthz":
		if ok, msg := s.Healthy(); !ok {
			return respond.Text(503, msg)
		}
		return respond.Text(200, "ok")
	case "/statusz":
		s.status(&b.status)
		b.json.Reset()
		b.enc.Encode(&b.status)
		return respond.Reply{Status: 200, CType: "application/json", Body: b.json.Bytes()}
	case "/debug/pprof":
		return s.pprofAnswer("", req.query)
	}
	if name, ok := strings.CutPrefix(req.path, "/debug/pprof/"); ok {
		return s.pprofAnswer(name, req.query)
	}
	return respond.Text(404, "404 page not found")
}

// pprofAnswer serves what `go tool pprof` fetches: the named runtime/pprof
// profiles (?debug=N for text), a CPU profile (profile?seconds=N, 30 by
// default), an execution trace (trace?seconds=N, 1 by default), the
// command line, and a plain-text index of them.
func (s *Server) pprofAnswer(name, query string) respond.Reply {
	var b bytes.Buffer
	switch name {
	case "":
		b.WriteString("profiles (?debug=1 for text):\n")
		for _, p := range pprof.Profiles() {
			fmt.Fprintf(&b, "%d\t/debug/pprof/%s\n", p.Count(), p.Name())
		}
		b.WriteString("also:\n\t/debug/pprof/profile?seconds=30\n\t/debug/pprof/trace?seconds=1\n\t/debug/pprof/cmdline\n")
		return respond.Reply{Status: 200, CType: respond.CTypeText, Body: b.Bytes()}
	case "cmdline":
		return respond.Reply{Status: 200, CType: respond.CTypeText, Body: []byte(strings.Join(os.Args, "\x00"))}
	case "profile":
		d, ok := pprofSeconds(query, 30)
		if !ok {
			return respond.Text(400, "seconds out of range")
		}
		if err := pprof.StartCPUProfile(&b); err != nil {
			return respond.Text(500, "could not enable CPU profiling: "+err.Error())
		}
		s.adminWait(d)
		pprof.StopCPUProfile()
		return respond.Reply{Status: 200, CType: ctypeBytes, Body: b.Bytes()}
	case "trace":
		d, ok := pprofSeconds(query, 1)
		if !ok {
			return respond.Text(400, "seconds out of range")
		}
		if trace.IsEnabled() {
			return respond.Text(500, "could not enable tracing: tracing is already enabled")
		}
		return respond.Reply{Status: 200, CType: ctypeBytes, Span: d, Stream: traceBody{s, d}}
	}
	p := pprof.Lookup(name)
	if p == nil {
		return respond.Text(404, "unknown profile")
	}
	debug, _ := strconv.Atoi(queryValue(query, "debug"))
	if err := p.WriteTo(&b, debug); err != nil {
		return respond.Text(500, "profile "+name+": "+err.Error())
	}
	ctype := ctypeBytes
	if debug != 0 {
		ctype = respond.CTypeText
	}
	return respond.Reply{Status: 200, CType: ctype, Body: b.Bytes()}
}

// traceBody is an execution trace over d, written as it is made.
type traceBody struct {
	s *Server
	d time.Duration
}

func (t traceBody) WriteTo(w io.Writer) (int64, error) {
	cw := &countWriter{w: w}
	if err := trace.Start(cw); err != nil {
		return 0, err
	}
	t.s.adminWait(t.d)
	trace.Stop()
	return cw.n, nil
}

// countWriter counts what it passes on to w.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// pprofSeconds reads ?seconds= as net/http/pprof does — absent, unparsable
// or not positive means def — and refuses more than adminMaxSeconds.
func pprofSeconds(query string, def float64) (time.Duration, bool) {
	sec, err := strconv.ParseFloat(queryValue(query, "seconds"), 64)
	if err != nil || sec <= 0 {
		sec = def
	}
	return time.Duration(sec * float64(time.Second)), sec <= adminMaxSeconds
}

// queryValue returns the first value of key in a query string, undecoded:
// the only keys read are numeric.
func queryValue(query, key string) string {
	for query != "" {
		var kv string
		kv, query, _ = strings.Cut(query, "&")
		if k, v, _ := strings.Cut(kv, "="); k == key {
			return v
		}
	}
	return ""
}

// adminWait sleeps d, or until the server closes.
func (s *Server) adminWait(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-s.quit:
	}
}

// AdminGet fetches path from the admin listener at addr within timeout —
// the client half of StartAdmin's responder, which `dhsnode status` uses —
// and returns the reply's status code and at most adminMaxReply bytes of
// its body.
func AdminGet(addr, path string, timeout time.Duration) (int, []byte, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return 0, nil, err
	}
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(timeout)); err != nil {
		return 0, nil, err
	}
	if _, err := fmt.Fprintf(c, "GET %s HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n", path, addr); err != nil {
		return 0, nil, fmt.Errorf("GET %s: %w", path, err)
	}
	raw, err := io.ReadAll(io.LimitReader(c, adminMaxReply))
	if err != nil {
		return 0, nil, fmt.Errorf("GET %s: %w", path, err)
	}
	head, body, ok := bytes.Cut(raw, []byte("\r\n\r\n"))
	_, status, _ := bytes.Cut(head, []byte{' '})
	code, err := strconv.Atoi(string(status[:min(3, len(status))]))
	if !ok || !bytes.HasPrefix(head, []byte("HTTP/1.")) || err != nil {
		return 0, nil, fmt.Errorf("GET %s: malformed reply from %s", path, addr)
	}
	return code, body, nil
}
