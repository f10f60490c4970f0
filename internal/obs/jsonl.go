package obs

import (
	"bufio"
	"fmt"
	"io"
	"sync"

	"dhsketch/internal/dht"
)

// JSONL streams events to an io.Writer as one JSON object per line, for
// offline analysis. The field order is fixed and zero-valued optional
// fields are omitted, so a deterministic run produces a byte-identical
// trace file. Node and metric identifiers are emitted as decimal strings:
// they are full 64-bit values, beyond the exact-integer range of tools
// that read JSON numbers as doubles.
//
// The writer is buffered; call Flush before reading the file. Write
// errors latch: the first one is kept, subsequent events are dropped, and
// Flush reports it.
type JSONL struct {
	mu  sync.Mutex
	w   *bufio.Writer
	err error
}

// NewJSONL returns a JSONL sink writing to w.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: bufio.NewWriter(w)}
}

// Event writes one event line.
func (j *JSONL) Event(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	// Fixed field order: identical runs must produce identical bytes.
	fmt.Fprintf(j.w, `{"tick":%d,"kind":%q`, e.Tick, e.Kind.String())
	if e.Pass != 0 {
		fmt.Fprintf(j.w, `,"pass":%d`, e.Pass)
	}
	if e.Node != 0 {
		fmt.Fprintf(j.w, `,"node":"%d"`, e.Node)
	}
	if e.Metric != 0 {
		fmt.Fprintf(j.w, `,"metric":"%d"`, e.Metric)
	}
	if e.Bit >= 0 {
		fmt.Fprintf(j.w, `,"bit":%d`, e.Bit)
	}
	if e.Arg != 0 {
		fmt.Fprintf(j.w, `,"arg":%d`, e.Arg)
	}
	if e.Err != dht.ClassNone {
		fmt.Fprintf(j.w, `,"err":%q`, e.Err.String())
	}
	if _, err := j.w.WriteString("}\n"); err != nil {
		j.err = err
	}
}

// Flush drains the buffer and returns the first write error, if any.
func (j *JSONL) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	return j.w.Flush()
}
