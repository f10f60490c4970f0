package planted

import "time"

func (conn) Write(p []byte) (int, error) { return 0, nil }

// writeAfterReadDeadline arms only a read deadline before it writes.
func writeAfterReadDeadline() {
	var c conn
	c.SetReadDeadline(time.Now().Add(time.Second))
	c.Write(nil) // want `call SetWriteDeadline or SetDeadline`
}

// readGuardedInBranch arms its one read deadline inside a branch that
// does not enclose the read.
func readGuardedInBranch(idle bool) {
	var c conn
	if idle {
		c.SetReadDeadline(time.Now().Add(time.Second))
	}
	c.Read(nil) // want `call SetReadDeadline or SetDeadline`
}
