// Package planted holds conndeadline violations at pinned positions (see
// TestPlantedPositions).
package planted

import "time"

type conn struct{}

func (conn) Read(p []byte) (int, error)         { return 0, nil }
func (conn) SetDeadline(t time.Time) error      { return nil }
func (conn) SetReadDeadline(t time.Time) error  { return nil }
func (conn) SetWriteDeadline(t time.Time) error { return nil }

func violate() {
	var c conn
	c.Read(nil) // want `no dominating deadline`
}

// readCleared clears the read deadline before it reads: a deadline set to
// the zero time guards nothing.
func readCleared() {
	var c conn
	c.SetReadDeadline(time.Time{})
	c.Read(nil) // want `no dominating deadline`
}
