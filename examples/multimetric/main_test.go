//go:build !race

// The example runs on one goroutine, so the race detector has nothing to
// check and would make the test ten times slower; plain `go test` runs it.

package main

import (
	"bytes"
	"testing"

	"dhsketch/internal/golden"
)

// TestRun pins the example's output: every draw derives from its seed.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "stdout.golden", out.Bytes())
}
