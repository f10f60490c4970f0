package serve

import (
	"testing"
	"time"
)

// AppendBody is the encoder of every /count body.
var AppendBody = appendBody

// ShrinkAdmission sets the admission bounds — fan-outs in flight, queries
// queued, the longest wait in the queue — for the rest of tb, and restores
// them when tb ends. A Frontend reads them in New.
func ShrinkAdmission(tb testing.TB, inFlight, queued int, wait time.Duration) {
	savedIn, savedQueued, savedWait := maxInFlight, maxQueue, queueTimeout
	maxInFlight, maxQueue, queueTimeout = inFlight, queued, wait
	tb.Cleanup(func() { maxInFlight, maxQueue, queueTimeout = savedIn, savedQueued, savedWait })
}
