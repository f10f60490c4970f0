package lint

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestExpandSkipsNestedModules: "./..." covers the module's own packages
// and stops at a nested go.mod, as the go tool does — the benchmark
// module under bench/ is wall-clock code the analyzers' scopes were never
// written for.
func TestExpandSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	for _, f := range []string{"go.mod", "a/a.go", "a/deep/d.go", "nested/go.mod", "nested/n.go", "nested/sub/s.go"} {
		path := filepath.Join(root, f)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte("package x\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dirs, err := NewLoader(root, "m").expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{filepath.Join(root, "a"), filepath.Join(root, "a", "deep")}
	if !reflect.DeepEqual(dirs, want) {
		t.Errorf("expand(./...) = %v, want %v", dirs, want)
	}
}
