package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"dhsketch/internal/core"
	"dhsketch/internal/metrics"
	"dhsketch/internal/netdht"
)

// HandlerOptions wires the optional pieces of the HTTP surface.
type HandlerOptions struct {
	// Metrics, when non-nil, is exposed at /metrics in Prometheus text
	// format (usually the same registry the Frontend was built with).
	Metrics *metrics.Registry
	// Ping, when non-nil, decides /healthz: an error turns the verdict
	// into 503. cmd/dhsd passes the ring client's Ping.
	Ping func() error
	// View, when non-nil, adds the ring arcs the client's counting scans
	// start from to /statusz as "ring_view". cmd/dhsd passes the ring
	// client's View.
	View func() []netdht.Arc
}

// NewHandler builds the dhsd HTTP surface over f:
//
//	GET /count?metric=NAME  — serve the metric's estimate. The body is
//	    the canonical JSON CountResult (byte-identical to a direct
//	    Client.Count when the cache is off); serving provenance rides
//	    in the X-Dhs-Source (direct|cache|coalesced) and X-Dhs-Age-Ms
//	    headers, never in the body. Shed queries answer 429 with a
//	    Retry-After hint; ring failures answer 502.
//	GET /healthz — 200 "ok", or 503 when the Ping hook fails.
//	GET /statusz — indented-JSON Stats snapshot, and the ring view when
//	    the View hook is set.
//	GET /metrics — Prometheus exposition (when a registry was given).
//
// Metric names are hashed with core.MetricID, the same derivation every
// writer uses, so dhsd serves the metrics dhsnode insert wrote.
func NewHandler(f *Frontend, opt HandlerOptions) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/count", func(w http.ResponseWriter, r *http.Request) {
		name := r.URL.Query().Get("metric")
		if name == "" {
			http.Error(w, "missing metric query parameter", http.StatusBadRequest)
			return
		}
		res, err := f.Count(core.MetricID(name))
		if errors.Is(err, ErrShed) {
			w.Header().Set("Retry-After", "1")
			http.Error(w, err.Error(), http.StatusTooManyRequests)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("X-Dhs-Source", res.Source)
		h.Set("X-Dhs-Age-Ms", strconv.FormatInt(res.Age.Milliseconds(), 10))
		w.Write(res.Body)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if opt.Ping != nil {
			if err := opt.Ping(); err != nil {
				http.Error(w, "ring unreachable: "+err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		doc := struct {
			Stats
			RingView []netdht.Arc `json:"ring_view,omitempty"`
		}{Stats: f.Stats()}
		if opt.View != nil {
			doc.RingView = opt.View()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(doc)
	})
	if opt.Metrics != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			opt.Metrics.WritePrometheus(w)
		})
	}
	return mux
}
