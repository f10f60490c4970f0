package metrics

import (
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered family in Prometheus text
// exposition format (version 0.0.4): a # HELP and # TYPE header per
// family, then one line per series. Output order is deterministic —
// families sorted by name, series sorted by their canonical label
// signature, histogram buckets in bound order — so two scrapes of the
// same state are byte-identical and golden tests can pin the format.
// A nil registry writes nothing.
//
// A scrape of a registry that has registered nothing since the last one
// allocates nothing: the order is kept between scrapes (Registry.order),
// and the text is built in the buffer the last scrape left (Registry.spare)
// and written to w a few KiB at a time. A daemon that has not reached its
// first collection keeps every byte a scrape would leave behind.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	order, buf := r.startScrape()
	e := expo{w: w, buf: buf}
	for _, fo := range order {
		f := fo.f
		b := append(append(append(append(e.buf, "# HELP "...), f.name...), ' '), f.help...)
		b = append(append(append(b, "\n# TYPE "...), f.name...), ' ')
		e.buf = append(append(b, f.kind.String()...), '\n')
		for _, s := range fo.series {
			e.series(f, s)
		}
	}
	e.flush()
	r.endScrape(e.buf)
	return e.err
}

// expo is one scrape in progress: the lines not yet written to w, and the
// first error writing them.
type expo struct {
	w   io.Writer
	buf []byte
	err error
}

// expoChunk is how much text a scrape gathers before it writes.
const expoChunk = 4 << 10

// flush writes what has gathered; after an error it writes nothing more.
func (e *expo) flush() {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// series appends the lines of one series, and writes them out once a
// chunk has gathered.
func (e *expo) series(f *family, s *series) {
	noLE := math.NaN()
	switch f.kind {
	case kindCounter:
		e.buf = strconv.AppendUint(sampleHead(e.buf, f.name, "", s.sig, noLE), s.c.Value(), 10)
	case kindGauge:
		e.buf = strconv.AppendInt(sampleHead(e.buf, f.name, "", s.sig, noLE), s.g.Value(), 10)
	case kindGaugeFunc:
		e.buf = appendFloat(sampleHead(e.buf, f.name, "", s.sig, noLE), s.gf())
	case kindHistogram:
		h := s.h
		cum := uint64(0)
		for i, bound := range h.bounds {
			cum += h.counts[i].Load()
			e.buf = append(strconv.AppendUint(sampleHead(e.buf, f.name, "_bucket", s.sig, bound), cum, 10), '\n')
		}
		cum += h.counts[len(h.bounds)].Load()
		e.buf = append(strconv.AppendUint(sampleHead(e.buf, f.name, "_bucket", s.sig, math.Inf(1)), cum, 10), '\n')
		e.buf = append(appendFloat(sampleHead(e.buf, f.name, "_sum", s.sig, noLE), h.Sum()), '\n')
		e.buf = strconv.AppendUint(sampleHead(e.buf, f.name, "_count", s.sig, noLE), h.Count(), 10)
	}
	e.buf = append(e.buf, '\n')
	if len(e.buf) >= expoChunk {
		e.flush()
	}
}

// sampleHead appends what precedes a sample's value: `name+suffix{sig} `,
// without the braces when there are no labels, and with the bucket label
// le="le" behind sig unless le is NaN.
func sampleHead(b []byte, name, suffix, sig string, le float64) []byte {
	b = append(append(b, name...), suffix...)
	bucket := !math.IsNaN(le)
	if sig != "" || bucket {
		b = append(append(b, '{'), sig...)
		if bucket {
			if sig != "" {
				b = append(b, ',')
			}
			b = append(appendFloat(append(b, `le="`...), le), '"')
		}
		b = append(b, '}')
	}
	return append(b, ' ')
}

// renderLabels canonicalizes a label set into its exposition form:
// keys sorted, values escaped, `k1="v1",k2="v2"`. Registration-time
// work, never on an instrument hot path.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel escapes a label value per the exposition format:
// backslash, double quote, and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a help string: backslash and newline.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// appendFloat renders a float the shortest way that round-trips —
// integral values print without an exponent or trailing zeros.
func appendFloat(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }
