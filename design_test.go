package dhsketch_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDesignCitesOnlyDefinedTests keeps DESIGN.md's test citations live:
// every Test…, Benchmark… or Fuzz… name it cites must be defined in some
// _test.go file of the tree (bench/ included). A trailing * cites every
// name with that prefix, and at least one must exist.
func TestDesignCitesOnlyDefinedTests(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	funcDecl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	defined := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range funcDecl.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	cited := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*\*?`)
	for _, name := range cited.FindAllString(string(design), -1) {
		if prefix, ok := strings.CutSuffix(name, "*"); ok {
			if !anyHasPrefix(defined, prefix) {
				t.Errorf("DESIGN.md cites %s, but no test name starts with %s", name, prefix)
			}
		} else if !defined[name] {
			t.Errorf("DESIGN.md cites %s, which no _test.go defines", name)
		}
	}
}

func anyHasPrefix(names map[string]bool, prefix string) bool {
	for name := range names {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}
