package netdht

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"dhsketch/internal/metrics"
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
	pred, succ, fingers := s.node.State()
	st := Status{
		ID:         fmt.Sprintf("%016x", s.id),
		Name:       s.name,
		Addr:       s.addr,
		Alive:      s.alive.Load(),
		Linked:     s.linked.Load(),
		Tick:       s.tick.Load(),
		Successors: make([]string, 0, len(succ)),
	}
	if pred.Valid() {
		st.Predecessor = pred.Addr
	}
	for _, sc := range succ {
		st.Successors = append(st.Successors, sc.Addr)
	}
	distinct := make(map[string]struct{})
	for _, f := range fingers {
		if f.Valid() && f.ID != s.id {
			distinct[f.Addr] = struct{}{}
		}
	}
	st.Fingers = len(distinct)
	if tup, ok := s.App().(*store.Store); ok {
		now := s.nowFn()
		st.StoreTuples = tup.Len(now)
		st.StoreBytes = tup.Bytes(now)
	}
	c := s.counters.Snapshot()
	st.Routed, st.Probed, st.StoreOps = c.Routed, c.Probed, c.StoreOps
	return st
}

// Healthy reports the node's /healthz verdict: not OK while shutting
// down, and not OK when a node that was ever linked into a ring has
// lost every successor (partitioned). A fresh bootstrap ring-of-one —
// never linked — is healthy: it is the state every ring starts in.
func (s *Server) Healthy() (bool, string) {
	if !s.alive.Load() {
		return false, "shutting down"
	}
	if _, ok := s.node.Successor(); s.linked.Load() && !ok {
		return false, "partitioned: no successors"
	}
	return true, "ok"
}

// StartAdmin binds an HTTP listener at listen serving the operational
// endpoints — /metrics (Prometheus text exposition of reg), /healthz,
// /statusz (JSON Status), and /debug/pprof — and ties its lifetime to
// the server: Close shuts the admin listener down and waits for it.
// Must be called before Close; returns the bound address.
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

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		ok, msg := s.Healthy()
		if !ok {
			http.Error(w, msg, http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, msg)
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.Status())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	hs := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		hs.Serve(ln) // returns once the watcher closes hs
	}()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		<-s.quit
		hs.Close()
	}()
	addr := ln.Addr().String()
	s.logKV("admin-listening", "addr", addr)
	return addr, nil
}
