package lint

import (
	"encoding/json"
	"go/token"
	"os"
	"regexp"
	"strconv"
	"testing"
)

// TestProblemMatcherReadsFindings holds CI's problem matcher
// (.github/dhslint-matcher.json) to what dhslint prints: for every
// analyzer, the line Diagnostic.String gives yields back the file, line,
// column, analyzer and message, and the run's closing count line and a
// go vet finding yield nothing.
func TestProblemMatcherReadsFindings(t *testing.T) {
	raw, err := os.ReadFile("../../.github/dhslint-matcher.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		ProblemMatcher []struct {
			Owner   string `json:"owner"`
			Pattern []struct {
				Regexp  string `json:"regexp"`
				File    int    `json:"file"`
				Line    int    `json:"line"`
				Column  int    `json:"column"`
				Code    int    `json:"code"`
				Message int    `json:"message"`
			} `json:"pattern"`
		} `json:"problemMatcher"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.ProblemMatcher) != 1 || len(m.ProblemMatcher[0].Pattern) != 1 {
		t.Fatalf("want one matcher with one pattern, got %+v", m)
	}
	p := m.ProblemMatcher[0].Pattern[0]
	re, err := regexp.Compile(p.Regexp)
	if err != nil {
		t.Fatal(err)
	}

	for _, a := range All() {
		d := Diagnostic{
			Analyzer: a.Name,
			Pos:      token.Position{Filename: "/w/repo/internal/netdht/server.go", Line: 446, Column: 11},
			Message:  "allocation sized from decoded wire input: n",
		}
		g := re.FindStringSubmatch(d.String())
		if g == nil {
			t.Errorf("matcher does not read %q", d.String())
			continue
		}
		want := map[string][2]string{
			"file":    {g[p.File], d.Pos.Filename},
			"line":    {g[p.Line], strconv.Itoa(d.Pos.Line)},
			"column":  {g[p.Column], strconv.Itoa(d.Pos.Column)},
			"code":    {g[p.Code], d.Analyzer},
			"message": {g[p.Message], d.Message},
		}
		for field, got := range want {
			if got[0] != got[1] {
				t.Errorf("%s: matcher reads %s %q, want %q", a.Name, field, got[0], got[1])
			}
		}
	}
	for _, line := range []string{
		"dhslint: 1 finding(s)",
		"internal/sim/x.go:3:2: assignment copies lock value to m: dhsketch/internal/sim.Meter contains sync/atomic.Int64",
	} {
		if re.MatchString(line) {
			t.Errorf("matcher reads %q, which is no dhslint finding", line)
		}
	}
}
