package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestNoHTTPStack pins what dhsnode links. Its admin listener answers GETs
// without net/http (DESIGN.md §15); one convenience import of net/http, or
// of anything that pulls in crypto/tls, doubles the binary, and a node's
// resident memory is mostly its binary.
func TestNoHTTPStack(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to list dependencies with")
	}
	out, err := exec.Command(gobin, "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	for _, pkg := range strings.Fields(string(out)) {
		if pkg == "net/http" || pkg == "crypto/tls" {
			t.Errorf("dhsnode links %s", pkg)
		}
	}
}
