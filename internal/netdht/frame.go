package netdht

import (
	"encoding/binary"
	"errors"
	"io"

	"dhsketch/internal/wire"
)

// Framing: internal/wire deliberately defines no framing ("the
// transport is expected to provide it"); this is that transport. Every
// message travels as a 4-byte big-endian payload length followed by the
// payload, which is a wire-style buffer (version byte, tag byte, body).
//
// maxFrame bounds what a reader will allocate for one frame. The
// largest legitimate message is a dense probe reply with 65535 masks of
// ⌈m/8⌉ bytes; 1 MiB covers every configuration this repository runs
// while keeping a garbage length prefix from ballooning into a
// gigabyte allocation. It is wire.MaxFrame, the bound a coded reply's
// decoder holds its expanded masks to.
//
// Frames are read into and built in buffers that belong to a connection:
// an accepted connection (inbound) and an outbound pool slot (peerConn)
// each own one for reading and one for writing, reused from one exchange
// to the next. The one rule that follows: a frame is valid until the next
// read on its connection. Whatever must outlive that is copied out by the
// connection's owner before it lets go — peerPool.exchange hands the reply
// to its caller's decoder before the slot is released, every decoder
// returns memory of its own, and nothing else keeps frame bytes (DESIGN.md
// §14 "Framing and codecs").
//
// A connection carries one exchange at a time: a request is not sent before
// the last one's reply has been read, so whatever a read finds waiting is
// one frame or the start of one. readFrame relies on it — it takes the
// prefix and as much of the payload as has arrived in one Read — and bytes
// behind a whole frame are a peer that broke the rule: the frame is refused
// with them (errFrameSurplus), not read and the rest dropped.
const maxFrame = wire.MaxFrame

// keepFrame is the most buffer a connection holds on to between frames. A
// frame may need up to maxFrame; once it has been handled, a buffer that
// grew beyond keepFrame for it is dropped, so that one large reply does not
// pin a megabyte for the connection's idle life. Ordinary frames — stores,
// lookups, a scan's probe replies at any m this repository runs — are far
// below it and never reallocate.
const keepFrame = 64 << 10

// frameBufMin is what a connection's read buffer starts at: room for the
// length prefix and for every ordinary request without a second allocation.
const frameBufMin = 256

var (
	errFrameTooBig = errors.New("netdht: frame exceeds size bound")
	errEmptyFrame  = errors.New("netdht: empty frame")
	// errFrameSurplus is a read that found bytes behind a whole frame.
	errFrameSurplus = errors.New("netdht: bytes behind the frame")
)

// beginFrame empties buf and reserves the length prefix; the payload is
// appended behind it and writeFrame sends the two together.
func beginFrame(buf []byte) []byte { return append(buf[:0], 0, 0, 0, 0) }

// writeFrame sends the frame built in frame (beginFrame, then the payload
// appended). Header and payload go out in a single Write so a frame is one
// TCP send on the common path. The size bound is enforced symmetrically: a
// payload the remote reader is guaranteed to refuse fails here, before any
// bytes move.
func writeFrame(w io.Writer, frame []byte) error {
	n := len(frame) - 4
	if n > maxFrame {
		return errFrameTooBig
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	_, err := w.Write(frame)
	return err
}

// readFrame receives one length-prefixed payload into buf's memory and
// returns it — buf again, or a larger buffer when the frame needed one,
// which the caller keeps in buf's place. One Read takes the prefix and
// whatever of the payload came with it; only a payload that had not all
// arrived, or does not fit buf, costs a second. Oversized and empty frames
// are refused before anything grows, and so is a frame with bytes behind it.
// The payload is valid until the next readFrame into the same buffer; on
// error the buffer comes back empty.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < frameBufMin {
		buf = make([]byte, frameBufMin)
	}
	buf = buf[:cap(buf)]
	got, err := io.ReadAtLeast(r, buf, 4)
	if err != nil {
		return buf[:0], err
	}
	n := binary.BigEndian.Uint32(buf)
	if n == 0 {
		return buf[:0], errEmptyFrame
	}
	if n > maxFrame {
		return buf[:0], errFrameTooBig
	}
	have := buf[4:got] // the payload's start, behind the prefix
	if len(have) > int(n) {
		return buf[:0], errFrameSurplus
	}
	if int(n) > cap(buf) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	copy(buf, have)
	if _, err := io.ReadFull(r, buf[len(have):]); err != nil {
		return buf[:0], err
	}
	return buf, nil
}

// trimFrame is applied to a connection's buffer once its frame has been
// handled: a buffer that grew beyond keepFrame is let go.
func trimFrame(buf []byte) []byte {
	if cap(buf) > keepFrame {
		return nil
	}
	return buf
}
