package planted

import "bufio"

// readBuffered reads through a buffer made on a conn, with no deadline on
// the conn.
func readBuffered() {
	var c conn
	br := bufio.NewReader(c)
	br.ReadByte() // want `ReadByte via br`
}
