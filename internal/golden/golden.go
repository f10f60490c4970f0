// Package golden pins a test's output to a file under the package's
// testdata directory. The experiment tables, the examples' stdout, the
// ablation table and the estimators' accuracy curve are all checked this
// way, so a refactor that changes one draw, one metered byte or one trace
// event fails `go test`. Regenerate every pin with
//
//	go test . ./internal/experiments ./internal/sketch ./examples/... -update
//
// and commit the rewritten files on their own, with their diff explained.
// Only tests import this package.
package golden

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update rewrites the golden files instead of comparing against them.
var update = flag.Bool("update", false, "rewrite testdata golden files")

// Check compares got with testdata/name byte for byte.
func Check(t testing.TB, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden file:\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}

// CheckSHA256 pins data by its SHA-256, for output too large to check in
// (a JSONL trace).
func CheckSHA256(t testing.TB, name string, data []byte) {
	t.Helper()
	sum := sha256.Sum256(data)
	Check(t, name, []byte(hex.EncodeToString(sum[:])+"\n"))
}
