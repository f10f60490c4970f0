// Package respond holds the one accept loop every port of the daemons runs
// on, Loop, and the HTTP/1.x responder both daemons serve on instead of
// net/http: a keep-alive connection handler on that loop, Server, which
// dhsnode's admin listener (internal/netdht) and dhsd answer every request
// with, over one request-head reader and one reply writer. dhsnode's ring
// port hands its own connection handler to a Loop. It speaks the subset its
// clients send — curl, Prometheus, `go tool pprof`, Go's http.Client: a
// request head with an origin-form target and no body — and once a
// connection's reused buffers are warm it allocates nothing to read a head
// or write a reply (DESIGN.md §15, §16).
//
// Its bounds are fixed (conndeadline and wirebounds invariants, DESIGN.md
// §10): a head is at most MaxHead bytes, or is answered 431; it arrives
// within 5 s of its first byte (of the accept, for the first on a
// connection), an idle connection waits IdleTimeout for its next request,
// a reply is written within WriteTimeout, plus its Span, and a port holds
// at most MaxConns connections open, answering 503 past them.
package respond

import (
	"bufio"
	"errors"
	"io"
	"net"
	"strconv"
	"strings"
	"time"
	"unsafe"
)

// MaxHead caps a request head: the request line and the header lines.
const MaxHead = 8 << 10

var (
	errBadRequest   = errors.New("respond: malformed request")
	errHeadTooLarge = errors.New("respond: request head too large")
)

// Request is what the responder keeps of a request head: its method, and
// its target split into path and raw query string. The strings are views
// of the reader's buffer, valid until the reader is next read.
type Request struct {
	Method, Path, Query string
	// Close is set when the connection cannot carry another request after
	// this one: the request is HTTP/1.0, says `Connection: close`, or has a
	// body, which the responder does not read.
	Close bool
}

// readRequest reads one request head from r: an HTTP/1.0 or 1.1 request
// line with an origin-form target, then header lines up to the empty line,
// each checked for a field name and kept only for what sets Close. It
// consumes the head and nothing after it. A head longer than MaxHead is
// errHeadTooLarge, one that is not HTTP/1.x is errBadRequest, and any other
// error is r's own.
//
// The head is parsed where it lies in r's buffer, with each line read once;
// offsets into the unread bytes stay valid while more arrive, because r
// moves them to the front of its buffer only together.
func readRequest(r *bufio.Reader) (Request, error) {
	var req Request
	var method, target [2]int // offsets of the method and the target
	for n := 0; ; {
		buf, _ := r.Peek(r.Buffered())
		for {
			i := strings.IndexByte(view(buf[n:]), '\n')
			if i < 0 {
				break
			}
			if n+i+1 > MaxHead {
				return Request{}, errHeadTooLarge
			}
			line := strings.TrimSuffix(view(buf[n:n+i]), "\r")
			switch {
			case n == 0:
				m, rest, ok1 := strings.Cut(line, " ")
				t, proto, ok2 := strings.Cut(rest, " ")
				if !ok1 || !ok2 || m == "" || !strings.HasPrefix(t, "/") ||
					proto != "HTTP/1.0" && proto != "HTTP/1.1" {
					return Request{}, errBadRequest
				}
				method = [2]int{0, len(m)}
				target = [2]int{len(m) + 1, len(m) + 1 + len(t)}
				req.Close = proto == "HTTP/1.0"
			case line == "":
				req.Method = view(buf[method[0]:method[1]])
				req.Path, req.Query, _ = strings.Cut(view(buf[target[0]:target[1]]), "?")
				r.Discard(n + i + 1)
				return req, nil
			default:
				name, value, ok := strings.Cut(line, ":")
				if !ok || name == "" {
					return Request{}, errBadRequest
				}
				req.Close = req.Close || endsConn(name, strings.TrimSpace(value))
			}
			n += i + 1
		}
		if len(buf) >= MaxHead {
			return Request{}, errHeadTooLarge
		}
		if _, err := r.Peek(len(buf) + 1); err != nil {
			if errors.Is(err, bufio.ErrBufferFull) {
				return Request{}, errHeadTooLarge
			}
			return Request{}, err
		}
	}
}

// endsConn reports whether a header field leaves no next request on the
// connection: `Connection: close`, or a request body.
func endsConn(name, value string) bool {
	switch {
	case strings.EqualFold(name, "Connection"):
		for value != "" {
			var tok string
			tok, value, _ = strings.Cut(value, ",")
			if strings.EqualFold(strings.TrimSpace(tok), "close") {
				return true
			}
		}
	case strings.EqualFold(name, "Content-Length"):
		return value != "0"
	case strings.EqualFold(name, "Transfer-Encoding"):
		return true
	}
	return false
}

// view is b as a string, sharing b's bytes: the caller keeps it no longer
// than b holds them.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// Reply is one response: its status and content type, extra header lines,
// and either the whole body, sent behind its length, or a body written as
// it is made (Stream) and ended by closing the connection, within Span past
// the write timeout.
type Reply struct {
	Status int
	CType  string
	// Header holds extra header lines, each "Name: value\r\n".
	Header []byte
	Body   []byte
	Stream io.WriterTo
	Span   time.Duration
}

// Text is a one-line plain-text reply, as http.Error writes one.
func Text(status int, msg string) Reply {
	return Reply{Status: status, CType: CTypeText, Body: []byte(msg + "\n")}
}

// MethodNotAllowed is the reply to any method but GET.
var MethodNotAllowed = Reply{Status: 405, CType: CTypeText, Header: []byte("Allow: GET\r\n"), Body: []byte("method not allowed\n")}

const CTypeText = "text/plain; charset=utf-8"

var statusText = map[int]string{
	200: "OK",
	400: "Bad Request",
	404: "Not Found",
	405: "Method Not Allowed",
	429: "Too Many Requests",
	431: "Request Header Fields Too Large",
	500: "Internal Server Error",
	502: "Bad Gateway",
	503: "Service Unavailable",
}

// writeReply writes rep through w and flushes it. With close, the head says
// `Connection: close`; a Stream reply must be closed after, as nothing else
// ends its body. Setting the write deadline is the caller's.
func writeReply(w *bufio.Writer, rep Reply, close bool) error {
	w.WriteString("HTTP/1.1 ")
	w.Write(strconv.AppendInt(w.AvailableBuffer(), int64(rep.Status), 10))
	w.WriteByte(' ')
	w.WriteString(statusText[rep.Status])
	w.WriteString("\r\nContent-Type: ")
	w.WriteString(rep.CType)
	w.WriteString("\r\n")
	w.Write(rep.Header)
	if close {
		w.WriteString("Connection: close\r\n")
	}
	if rep.Stream != nil {
		w.WriteString("\r\n")
		rep.Stream.WriteTo(w)
	} else {
		w.WriteString("Content-Length: ")
		w.Write(strconv.AppendInt(w.AvailableBuffer(), int64(len(rep.Body)), 10))
		w.WriteString("\r\n\r\n")
		w.Write(rep.Body)
	}
	return w.Flush()
}

// drain half-closes c after its last reply and reads what the client still
// sends, for at most d: closing with unread request bytes in the socket
// would reset the connection, and a reset can discard the reply before the
// client reads it.
func drain(c net.Conn, d time.Duration) {
	if tc, ok := c.(*net.TCPConn); ok && tc.CloseWrite() == nil &&
		c.SetReadDeadline(time.Now().Add(d)) == nil {
		io.Copy(io.Discard, io.LimitReader(c, MaxHead))
	}
}
