package netdht

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"dhsketch/internal/chord"
	"dhsketch/internal/core"
	"dhsketch/internal/dht"
	"dhsketch/internal/obs"
	"dhsketch/internal/wire"
)

// The codecs as the tests like them: each message in a slice of its own.
// The package itself only appends into a connection's buffer or a caller's
// scratch; these are those same encoders with nil for the buffer.

func encodeFindSucc(m findSuccMsg) []byte     { return appendFindSucc(nil, m, nil) }
func encodeStoreAck(f chord.Found) []byte     { return appendStoreAck(nil, f, nil) }
func encodeFindSuccResp(f chord.Found) []byte { return appendFindSuccResp(nil, f) }
func encodeNeighborsResp(self chord.Ref, nb chord.Neighbors) []byte {
	return appendNeighborsResp(nil, self, nb)
}
func encodeNotify(self chord.Ref) []byte               { return appendNotify(nil, self) }
func encodeAck(changed bool) []byte                    { return appendAck(nil, changed) }
func encodeErr(c dht.Class, hops, stale uint16) []byte { return appendErr(nil, c, hops, stale) }
func encodePing() []byte                               { return bytes.Clone(pingFrame) }
func encodePong() []byte                               { return bytes.Clone(pongFrame) }

// decodeStoreAck is the stateless decoder of the store ack, and refuses
// tagStoreAckKept.
func decodeStoreAck(buf []byte) (chord.Found, error) { return decodeStoreAckOn(buf, nil, nil) }

// tupleOf is the tuple a tuple frame reads as; the frame must be one.
func tupleOf(frame []byte) wire.Tuple {
	t, err := wire.ReadTuple(frame)
	if err != nil {
		panic(err)
	}
	return t
}

// raw is the request that sends frame as it is, on any socket.
func raw(frame []byte) request {
	return func(dst []byte, _ *wire.Memory) []byte { return append(dst, frame...) }
}

// storeFrame is the stateless routed store of m's header with payload
// behind it, whatever the payload: the frame a peer could send.
func storeFrame(m findSuccMsg, payload []byte) []byte {
	frame := encodeFindSucc(m)
	frame[1] = tagStore
	return append(frame, payload...)
}

// shrinkBound sets one of the package's bounds to v for the rest of tb and
// restores it when tb ends. Call it before starting what reads the bound:
// cleanups run after the test's defers and last first, so the bound is
// restored once what the test started has been closed.
func shrinkBound[T any](tb testing.TB, bound *T, v T) {
	saved := *bound
	*bound = v
	tb.Cleanup(func() { *bound = saved })
}

// count is Client.Count over any interval prober, the pass's events sent
// to sink (nil: untraced).
func (c *Client) count(p core.Prober, metric uint64, sink obs.Tracer) CountResult {
	est := c.geom.Scan(p, []uint64{metric}, func(int) int { return c.cfg.Lim }, core.Trace{Sink: sink})[0]
	return CountResult{Estimate: est.Value, Quality: est.Quality}
}

// countTraced is Client.Count with the pass's events sent to sink, in the
// state the client's passes share.
func (c *Client) countTraced(metric uint64, sink obs.Tracer) CountResult {
	ps := c.passes.get(c)
	defer c.release(ps)
	ps.metrics = append(ps.metrics[:0], metric)
	c.scan(ps, core.Trace{Sink: sink})
	return ps.results[0]
}

// sinkFunc adapts a function to obs.Tracer.
type sinkFunc func(obs.Event)

func (f sinkFunc) Event(e obs.Event) { f(e) }

// framed is payload as writeFrame takes it: behind its length prefix.
func framed(payload []byte) []byte { return append(beginFrame(nil), payload...) }

// dispatch answers req as a connection of its own would, and returns the
// reply's payload in memory of its own.
func (s *Server) dispatch(req []byte) []byte {
	return bytes.Clone(s.newInbound().dispatch(req)[4:])
}

// replayInsert returns the target stream Client.Insert draws from when a
// client seeded with seed inserts item under metric.
func replayInsert(seed, metric, item uint64) *rand.Rand {
	s := insertStreams.New().(*insertStream)
	s.seed(seed, metric, item)
	return s.rng
}
