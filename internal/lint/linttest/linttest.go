// Package linttest runs simlint analyzers over testdata packages and
// checks their findings against // want annotations, mirroring
// golang.org/x/tools/go/analysis/analysistest on the in-repo framework.
//
// Testdata is laid out GOPATH-style: <testdata>/src/<import path>/*.go.
// Stub packages (for example a minimal mptcpsim/internal/netem defining
// just Packet and Free) live in the same tree and shadow both the real
// module and the standard library, so analyzer tests stay hermetic and
// fast. A line expecting findings carries one or more quoted regular
// expressions:
//
//	p.Free() // want `use of p after Free` `second finding`
//
// Every finding must match an annotation on its line and vice versa.
// Suppression directives are processed exactly as in cmd/simlint, so
// testdata can also prove that //simlint:ignore works and that unused
// directives are reported.
package linttest

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mptcpsim/internal/lint"
	"mptcpsim/internal/lint/loader"
)

var wantRE = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// Run loads pkgPath from testdata/src, applies the analyzers, and reports
// any mismatch between findings and // want annotations as test errors.
func Run(t *testing.T, testdata string, pkgPath string, analyzers ...*lint.Analyzer) {
	t.Helper()
	abs, err := filepath.Abs(testdata)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	prog := loader.NewProgram(loader.Config{SrcRoots: []string{abs}})
	pkgs, err := prog.Load(pkgPath)
	if err != nil {
		t.Fatalf("linttest: loading %s: %v", pkgPath, err)
	}
	diags, err := lint.RunSelected(prog, pkgs, analyzers, analyzers)
	if err != nil {
		t.Fatalf("linttest: running analyzers on %s: %v", pkgPath, err)
	}

	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*regexp.Regexp)
	for _, f := range pkgs[0].Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := prog.Fset.Position(c.Pos())
				for _, m := range wantRE.FindAllStringSubmatch(text, -1) {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
					}
					k := key{pos.Filename, pos.Line}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}

	for _, d := range diags {
		k := key{d.File, d.Line}
		matched := false
		for i, re := range wants[k] {
			if re.MatchString(d.Message) {
				wants[k] = append(wants[k][:i], wants[k][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d:%d: unexpected finding [%s]: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
		}
	}
	for k, res := range wants {
		for _, re := range res {
			t.Errorf("%s:%d: expected finding matching %q, got none", k.file, k.line, re)
		}
	}
}
