package netdht

import (
	"bytes"
	"encoding/json"
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
// /statusz fills one Status again and again, and allocates nothing.
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
// Prometheus, `go tool pprof`, `dhsnode status` — on internal/respond's
// keep-alive loop, which holds its head and write bounds (DESIGN.md §15). A
// profile or a trace runs at most adminMaxSeconds; a trace's reply is given
// that long past the loop's write deadline.
const (
	adminMaxSeconds = 600
	// adminMaxReply caps what AdminGet reads of a reply.
	adminMaxReply = 1 << 20
)

// StartAdmin binds an HTTP listener at listen serving the operational
// endpoints — /metrics (Prometheus text exposition of reg), /healthz,
// /statusz (JSON Status), and /debug/pprof/ — and ties its lifetime to
// the server: Close ends a profile or a trace in flight, shuts the admin
// listener and every admin connection down, and waits for them. Must be
// called before Close; returns the bound address.
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
	srv := respond.NewServer(s.adminHandler(reg))
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		// Serve returns nil once the watcher closes srv, and an error only
		// when the listener fails for good.
		if err := srv.Serve(ln); err != nil {
			s.logKV("admin-accept-failed", "addr", ln.Addr(), "err", err)
		}
	}()
	go func() {
		defer s.wg.Done()
		<-s.quit
		srv.Close()
	}()
	addr := ln.Addr().String()
	s.logKV("admin-listening", "addr", addr)
	return addr, nil
}

// statusz is the /statusz document and the encoder it is written with,
// shared by the admin connections under mu: a node below the runtime's
// first collection keeps every byte it allocates resident, and the
// benchmark polls /statusz many times.
type statusz struct {
	mu   sync.Mutex
	st   Status
	json bytes.Buffer
	enc  *json.Encoder
}

// write encodes s's status and appends it to buf.
func (z *statusz) write(s *Server, buf *bytes.Buffer) {
	z.mu.Lock()
	defer z.mu.Unlock()
	s.status(&z.st)
	z.json.Reset()
	z.enc.Encode(&z.st)
	buf.Write(z.json.Bytes())
}

const ctypeBytes = "application/octet-stream"

// adminHandler answers the admin endpoints. /metrics and /statusz are
// built in the connection's buffer and allocate nothing once it is warm.
func (s *Server) adminHandler(reg *metrics.Registry) respond.Handler {
	z := &statusz{}
	z.enc = json.NewEncoder(&z.json)
	z.enc.SetIndent("", "  ")
	return func(req respond.Request, buf *bytes.Buffer) respond.Reply {
		if req.Method != "GET" {
			return respond.MethodNotAllowed
		}
		switch req.Path {
		case "/metrics":
			reg.WritePrometheus(buf)
			return respond.Reply{Status: 200, CType: "text/plain; version=0.0.4; charset=utf-8", Body: buf.Bytes()}
		case "/healthz":
			if ok, msg := s.Healthy(); !ok {
				return respond.Text(503, msg)
			}
			return respond.Text(200, "ok")
		case "/statusz":
			z.write(s, buf)
			return respond.Reply{Status: 200, CType: "application/json", Body: buf.Bytes()}
		case "/debug/pprof":
			return s.pprofAnswer("", req.Query)
		}
		if name, ok := strings.CutPrefix(req.Path, "/debug/pprof/"); ok {
			return s.pprofAnswer(name, req.Query)
		}
		return respond.Text(404, "404 page not found")
	}
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
	debug, _ := strconv.Atoi(respond.QueryGet(query, "debug"))
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
	sec, err := strconv.ParseFloat(respond.QueryGet(query, "seconds"), 64)
	if err != nil || sec <= 0 {
		sec = def
	}
	return time.Duration(sec * float64(time.Second)), sec <= adminMaxSeconds
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
