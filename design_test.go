package dhsketch_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDesignCitesOnlyDefinedTests keeps the documents' test citations
// live: every Test…, Benchmark… or Fuzz… name DESIGN.md, README.md or
// EXPERIMENTS.md cites must be defined in some _test.go file of the tree
// (bench/ included). A trailing * cites every name with that prefix, and
// at least one must exist.
func TestDesignCitesOnlyDefinedTests(t *testing.T) {
	defined := definedTests(t)
	cited := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*\*?`)
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range cited.FindAllString(string(text), -1) {
			if !isDefined(defined, name) {
				t.Errorf("%s cites %s, which no _test.go defines", doc, name)
			}
		}
	}
}

// contractSections are the DESIGN.md sections that open with a contract
// table.
var contractSections = []string{"8", "9", "10", "13", "14", "15", "16"}

// TestDesignContractTables holds DESIGN.md's contract index to its
// grammar. Each section of contractSections opens with a table headed
// | contract | held by | divergence |, and in every row:
//   - "held by" lists, comma-separated and each in backquotes, tests that
//     some _test.go defines or the gates `make smoke`, `make lint` and
//     `go vet` — or reads "untested — ROADMAP item N";
//   - "divergence" reads "none" or "ROADMAP item N";
//   - every ROADMAP item N named is a numbered open item of ROADMAP.md,
//     a line "N. **" under "## Open items".
//
// So a re-anchor that closes an item fails here until each row citing it
// is closed or re-pointed.
func TestDesignContractTables(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	roadmap, err := os.ReadFile("ROADMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	defined := definedTests(t)
	open := openItems(string(roadmap))
	if len(open) == 0 {
		t.Fatal(`ROADMAP.md lists no open item under "## Open items"`)
	}
	sections := designSections(string(design))

	item := func(where, ref string) {
		n, err := strconv.Atoi(strings.TrimPrefix(ref, "ROADMAP item "))
		if err != nil || !strings.HasPrefix(ref, "ROADMAP item ") {
			t.Errorf("%s: %q is not `ROADMAP item N`", where, ref)
		} else if !open[n] {
			t.Errorf("%s: ROADMAP.md has no open item %d", where, n)
		}
	}
	for _, sec := range contractSections {
		body, ok := sections[sec]
		if !ok {
			t.Errorf("DESIGN.md has no §%s", sec)
			continue
		}
		rows, ok := contractTable(body)
		if !ok {
			t.Errorf("DESIGN.md §%s does not open with a | contract | held by | divergence | table", sec)
			continue
		}
		if len(rows) == 0 {
			t.Errorf("DESIGN.md §%s: the contract table has no rows", sec)
		}
		for _, row := range rows {
			where := "DESIGN.md §" + sec + " row " + strconv.Quote(row.line)
			if len(row.cells) != 3 {
				t.Errorf("%s: %d cells, want 3", where, len(row.cells))
				continue
			}
			contract, heldBy, divergence := row.cells[0], row.cells[1], row.cells[2]
			if contract == "" {
				t.Errorf("%s: empty contract", where)
			}
			if ref, ok := strings.CutPrefix(heldBy, "untested — "); ok {
				item(where, ref)
			} else if heldBy == "" {
				t.Errorf("%s: empty held by: name a test or a gate, or write `untested — ROADMAP item N`", where)
			} else {
				for _, h := range strings.Split(heldBy, ", ") {
					name, ok := strings.CutPrefix(h, "`")
					name, closed := strings.CutSuffix(name, "`")
					switch {
					case !ok || !closed || strings.Contains(name, "`"):
						t.Errorf("%s: held by %q is not one backquoted test or gate", where, h)
					case gates[name]:
					case !testName.MatchString(name):
						t.Errorf("%s: held by %q is neither a Test…/Benchmark…/Fuzz… name nor a gate", where, h)
					case !isDefined(defined, name):
						t.Errorf("%s: held by %s, which no _test.go defines", where, name)
					}
				}
			}
			if divergence != "none" {
				for _, ref := range strings.Split(divergence, ", ") {
					item(where, ref)
				}
			}
		}
	}
}

// gates are the checks besides tests that a contract row may name.
var gates = map[string]bool{"make smoke": true, "make lint": true, "go vet": true}

var testName = regexp.MustCompile(`^(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*\*?$`)

// definedTests returns every Test…, Benchmark… and Fuzz… function that a
// _test.go file of the tree declares, bench/ included.
func definedTests(t *testing.T) map[string]bool {
	t.Helper()
	funcDecl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	defined := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
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
	return defined
}

// isDefined reports whether name is defined, or, for a name ending in *,
// whether some defined name has that prefix.
func isDefined(defined map[string]bool, name string) bool {
	prefix, ok := strings.CutSuffix(name, "*")
	if !ok {
		return defined[name]
	}
	for d := range defined {
		if strings.HasPrefix(d, prefix) {
			return true
		}
	}
	return false
}

// openItems returns the numbers of the items listed as "N. **" lines
// under ROADMAP.md's "## Open items" heading.
func openItems(roadmap string) map[int]bool {
	open := map[int]bool{}
	itemLine := regexp.MustCompile(`^(\d+)\. \*\*`)
	in := false
	for _, line := range strings.Split(roadmap, "\n") {
		if strings.HasPrefix(line, "## ") {
			in = line == "## Open items"
			continue
		}
		if m := itemLine.FindStringSubmatch(line); in && m != nil {
			n, _ := strconv.Atoi(m[1])
			open[n] = true
		}
	}
	return open
}

// designSections splits DESIGN.md at its "## N." headings and returns
// each section's body by its number.
func designSections(design string) map[string]string {
	heading := regexp.MustCompile(`(?m)^## (\d+)\.`)
	out := map[string]string{}
	locs := heading.FindAllStringSubmatchIndex(design, -1)
	for i, loc := range locs {
		end := len(design)
		if i+1 < len(locs) {
			end = locs[i+1][0]
		}
		out[design[loc[2]:loc[3]]] = design[loc[1]:end]
	}
	return out
}

type tableRow struct {
	line  string
	cells []string
}

// contractTable returns the rows of the table a section opens with, and
// false when the section's first table is not a contract table.
func contractTable(section string) ([]tableRow, bool) {
	lines := strings.Split(section, "\n")
	start := -1
	for i, line := range lines {
		if strings.HasPrefix(line, "|") {
			start = i
			break
		}
	}
	if start < 0 || start+1 >= len(lines) ||
		lines[start] != "| contract | held by | divergence |" ||
		!strings.HasPrefix(lines[start+1], "|---") {
		return nil, false
	}
	var rows []tableRow
	for _, line := range lines[start+2:] {
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(strings.TrimSuffix(strings.TrimPrefix(line, "|"), "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		rows = append(rows, tableRow{line: line, cells: cells})
	}
	return rows, true
}
