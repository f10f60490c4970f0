package a

import (
	"bufio"
	"time"
)

// guardsEnclose arms each guard in a block that encloses the I/O it
// guards: the read deadline before the loop covers the reads in it, and
// a branch's write deadline only the writes in that branch.
func guardsEnclose(idle bool) {
	var c conn
	c.SetReadDeadline(time.Now().Add(time.Second))
	for i := 0; i < 2; i++ {
		if idle {
			c.SetWriteDeadline(time.Now().Add(time.Second))
			c.Write(nil)
		}
		c.Read(nil)
	}
	switch {
	case idle:
		c.SetWriteDeadline(time.Now().Add(time.Second))
		c.Write(nil)
	default:
		c.Write(nil) // want `call SetWriteDeadline or SetDeadline`
	}
}

// readWriteFrame reads and writes its conn parameter.
func readWriteFrame(c conn) {
	c.Read(nil)
	c.Write(nil)
}

// callerHalfGuarded arms only the read deadline before handing the conn
// to a helper that also writes it.
func callerHalfGuarded() {
	var c conn
	c.SetReadDeadline(time.Now().Add(time.Second))
	readWriteFrame(c) // want `readWriteFrame → Write\) .* call SetWriteDeadline or SetDeadline`
	c.SetDeadline(time.Now().Add(time.Second))
	readWriteFrame(c) // ok: SetDeadline bounds both ways
}

// bufWriteAfterReadDeadline flushes a writer made on a conn that has only
// a read deadline.
func bufWriteAfterReadDeadline() {
	var c conn
	bw := bufio.NewWriter(c)
	c.SetReadDeadline(time.Now().Add(time.Second))
	bw.Flush() // want `Flush via bw`
}
