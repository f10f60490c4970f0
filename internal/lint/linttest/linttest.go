// Package linttest is a golden-file test harness for the dhslint
// analyzers, mirroring golang.org/x/tools/go/analysis/analysistest on
// the standard library alone. Fixture packages live under a GOPATH-style
// testdata/src tree; expected findings are written as trailing comments:
//
//	x := rand.IntN(5) // want `process-global`
//
// Each `want` backquoted string is a regular expression that must match
// exactly one diagnostic reported on that line, and every diagnostic
// must be matched by exactly one want. //dhslint:allow suppression is
// applied before matching, so fixtures also pin the escape hatch's
// behavior: an allowed line simply carries no want.
package linttest

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
	"testing"

	"dhsketch/internal/lint"
)

var wantRE = regexp.MustCompile("// want (`[^`]*`(?: `[^`]*`)*)")

// Run loads the fixture packages at testdata/src/<path> for each given
// path, runs the analyzer over them (bypassing its package Match — the
// fixture layout opts in explicitly), and compares findings against the
// // want comments.
func Run(t *testing.T, testdata string, a *lint.Analyzer, paths ...string) {
	t.Helper()
	loader := lint.NewLoader(testdata+"/src", "")
	pkgs, err := loader.Load(paths...)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	diags, err := lint.Run([]*lint.Analyzer{a}, pkgs, false)
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	type key struct {
		file string
		line int
	}
	got := map[key][]string{}
	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		got[k] = append(got[k], d.Message)
	}

	for _, pkg := range pkgs {
		for _, file := range pkg.Syntax {
			for _, want := range wantsIn(t, pkg.Fset, file) {
				k := key{want.file, want.line}
				msgs := got[k]
				found := false
				for i, msg := range msgs {
					if want.re.MatchString(msg) {
						msgs[i] = msgs[len(msgs)-1]
						got[k] = msgs[:len(msgs)-1]
						found = true
						break
					}
				}
				if !found {
					t.Errorf("%s:%d: no diagnostic matching %q (remaining: %v)", want.file, want.line, want.re, msgs)
				}
			}
		}
	}
	for k, msgs := range got {
		for _, msg := range msgs {
			t.Errorf("%s:%d: unexpected diagnostic: %s", k.file, k.line, msg)
		}
	}
}

type wantSpec struct {
	file string
	line int
	re   *regexp.Regexp
}

func wantsIn(t *testing.T, fset *token.FileSet, file *ast.File) []wantSpec {
	t.Helper()
	var out []wantSpec
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			m := wantRE.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			pos := fset.Position(c.Pos())
			for _, q := range regexp.MustCompile("`[^`]*`").FindAllString(m[1], -1) {
				expr := strings.Trim(q, "`")
				re, err := regexp.Compile(expr)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, expr, err)
				}
				out = append(out, wantSpec{pos.Filename, pos.Line, re})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].file != out[j].file {
			return out[i].file < out[j].file
		}
		return out[i].line < out[j].line
	})
	return out
}

// MustFindAt asserts that running a over the fixture packages reports at
// least one diagnostic at exactly file:line:col — used to pin that each
// analyzer's planted violation is reported at the exact position.
func MustFindAt(t *testing.T, testdata string, a *lint.Analyzer, pkgPath, file string, line, col int) {
	t.Helper()
	loader := lint.NewLoader(testdata+"/src", "")
	pkgs, err := loader.Load(pkgPath)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	diags, err := lint.Run([]*lint.Analyzer{a}, pkgs, false)
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	for _, d := range diags {
		if strings.HasSuffix(d.Pos.Filename, file) && d.Pos.Line == line && d.Pos.Column == col {
			return
		}
	}
	var have []string
	for _, d := range diags {
		have = append(have, fmt.Sprintf("%s:%d:%d", d.Pos.Filename, d.Pos.Line, d.Pos.Column))
	}
	t.Errorf("%s: no diagnostic at %s:%d:%d (have %v)", a.Name, file, line, col, have)
}
