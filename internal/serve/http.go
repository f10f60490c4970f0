package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"

	"dhsketch/internal/core"
	"dhsketch/internal/metrics"
	"dhsketch/internal/netdht"
	"dhsketch/internal/respond"
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

// Answer is the dhsd HTTP surface over f, as a handler of
// internal/respond's keep-alive loop (cmd/dhsd serves it):
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
// Any other method is 405, any other path 404. NAME is decoded as
// URL.Query().Get("metric") decodes it, and hashed with core.MetricID,
// the same derivation every writer uses, so dhsd serves the metrics
// dhsnode insert wrote. For a name that needs no decoding, neither a cache
// hit nor — on a warm *netdht.Client — a fan-out with the cache and
// coalescing off allocates anything: the reply is built in buf, the body
// copied from the cache or encoded there.
func Answer(f *Frontend, opt HandlerOptions) respond.Handler {
	return func(req respond.Request, buf *bytes.Buffer) respond.Reply {
		if req.Method != "GET" {
			return respond.MethodNotAllowed
		}
		switch req.Path {
		case "/count":
			return countReply(f, req.Query, buf)
		case "/healthz":
			if opt.Ping != nil {
				if err := opt.Ping(); err != nil {
					return errorReply(503, "ring unreachable: "+err.Error())
				}
			}
			return respond.Reply{Status: 200, CType: respond.CTypeText, Body: okBody}
		case "/statusz":
			doc := struct {
				Stats
				RingView []netdht.Arc `json:"ring_view,omitempty"`
			}{Stats: f.Stats()}
			if opt.View != nil {
				doc.RingView = opt.View()
			}
			enc := json.NewEncoder(buf)
			enc.SetIndent("", "  ")
			enc.Encode(doc)
			return respond.Reply{Status: 200, CType: ctypeJSON, Body: buf.Bytes()}
		case "/metrics":
			if opt.Metrics != nil {
				opt.Metrics.WritePrometheus(buf)
				return respond.Reply{Status: 200, CType: "text/plain; version=0.0.4; charset=utf-8", Body: buf.Bytes()}
			}
		}
		return errorReply(404, "404 page not found")
	}
}

const ctypeJSON = "application/json"

var (
	okBody = []byte("ok\n")
	// http.Error's header, on every error reply.
	nosniff    = []byte("X-Content-Type-Options: nosniff\r\n")
	shedHeader = []byte("Retry-After: 1\r\nX-Content-Type-Options: nosniff\r\n")
)

// countReply answers /count with the query string query, building the
// reply in buf: the body first, then the headers.
func countReply(f *Frontend, query string, buf *bytes.Buffer) respond.Reply {
	name := respond.QueryGet(query, "metric")
	if name == "" {
		return errorReply(400, "missing metric query parameter")
	}
	res, err := f.answer(core.MetricID(name), buf.AvailableBuffer())
	if errors.Is(err, ErrShed) {
		rep := errorReply(429, err.Error())
		rep.Header = shedHeader
		return rep
	}
	if err != nil {
		return errorReply(502, err.Error())
	}
	// A direct answer's body was encoded in buf's free room, and Write
	// moves it onto itself; a shared one is copied in.
	buf.Write(res.Body)
	body := buf.Bytes()
	buf.WriteString("X-Dhs-Source: ")
	buf.WriteString(res.Source)
	buf.WriteString("\r\nX-Dhs-Age-Ms: ")
	buf.Write(strconv.AppendInt(buf.AvailableBuffer(), res.Age.Milliseconds(), 10))
	buf.WriteString("\r\n")
	return respond.Reply{Status: 200, CType: ctypeJSON, Header: buf.Bytes()[len(body):], Body: body}
}

// errorReply is the reply http.Error writes.
func errorReply(status int, msg string) respond.Reply {
	rep := respond.Text(status, msg)
	rep.Header = nosniff
	return rep
}

// NewHandler is Answer through net/http: the same replies, written with
// http.ResponseWriter. It is the reference the responder's answers are
// held to (TestAnswerParity), and what bench/rungs.go times.
func NewHandler(f *Frontend, opt HandlerOptions) http.Handler {
	answer := Answer(f, opt)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		rep := answer(respond.Request{Method: r.Method, Path: r.URL.Path, Query: r.URL.RawQuery}, &buf)
		h := w.Header()
		h.Set("Content-Type", rep.CType)
		for lines := string(rep.Header); lines != ""; {
			var line string
			line, lines, _ = strings.Cut(lines, "\r\n")
			name, value, _ := strings.Cut(line, ": ")
			h.Set(name, value)
		}
		w.WriteHeader(rep.Status)
		w.Write(rep.Body)
	})
}
