package lint

import (
	"bytes"
	"encoding/json"
	"go/token"
	"strings"
	"testing"
)

func sampleDiags() []Diagnostic {
	return []Diagnostic{
		{
			Analyzer: "lockrpc",
			Pos:      token.Position{Filename: "/repo/internal/netdht/cluster.go", Line: 347, Column: 2},
			Message:  "c.mu is held across network I/O",
		},
		{
			Analyzer: "wirebounds",
			Pos:      token.Position{Filename: "/repo/internal/netdht/server.go", Line: 446, Column: 11},
			Message:  "allocation sized from decoded wire input",
		},
	}
}

func TestWriteSARIF(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, All(), sampleDiags(), "/repo"); err != nil {
		t.Fatalf("WriteSARIF: %v", err)
	}

	// The log must round-trip as JSON with the 2.1.0 envelope, one rule
	// per analyzer, and root-relative forward-slashed URIs.
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Level     string `json:"level"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-2.1.0") {
		t.Errorf("envelope = version %q schema %q, want 2.1.0", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "dhslint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	if len(run.Tool.Driver.Rules) != len(All()) {
		t.Errorf("got %d rules, want one per analyzer (%d)", len(run.Tool.Driver.Rules), len(All()))
	}
	for _, r := range run.Tool.Driver.Rules {
		if r.ShortDescription.Text == "" {
			t.Errorf("rule %s has no description", r.ID)
		}
	}
	if len(run.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(run.Results))
	}
	first := run.Results[0]
	if first.RuleID != "lockrpc" || first.Level != "error" {
		t.Errorf("result 0 = rule %q level %q", first.RuleID, first.Level)
	}
	if run.Tool.Driver.Rules[first.RuleIndex].ID != first.RuleID {
		t.Errorf("ruleIndex %d does not point at rule %q", first.RuleIndex, first.RuleID)
	}
	loc := first.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/netdht/cluster.go" {
		t.Errorf("URI = %q, want root-relative slash path", loc.ArtifactLocation.URI)
	}
	if loc.Region.StartLine != 347 || loc.Region.StartColumn != 2 {
		t.Errorf("region = %d:%d, want 347:2", loc.Region.StartLine, loc.Region.StartColumn)
	}
}
