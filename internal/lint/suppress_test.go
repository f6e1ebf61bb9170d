package lint

import (
	"go/ast"
	"path/filepath"
	"strings"
	"testing"

	"mptcpsim/internal/lint/loader"
)

// TestSuppressions drives the directive engine end to end with a dummy
// analyzer that flags every call to a function named trigger. The fixture
// covers: a directive suppressing the next line, a surviving finding, an
// unused directive, a reason-less directive, an unknown analyzer name, and
// a directive for a known analyzer that did not run on the package (which
// must not be reported unused).
func TestSuppressions(t *testing.T) {
	dummy := &Analyzer{
		Name: "dummy",
		Doc:  "flag calls to trigger",
		Run: func(p *Pass) error {
			for _, f := range p.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "trigger" {
							p.Reportf(call.Pos(), "call to trigger")
						}
					}
					return true
				})
			}
			return nil
		},
	}
	notran := &Analyzer{
		Name:      "notran",
		Doc:       "never runs",
		AppliesTo: func(string) bool { return false },
		Run:       func(*Pass) error { return nil },
	}

	abs, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	prog := loader.NewProgram(loader.Config{SrcRoots: []string{abs}})
	pkgs, err := prog.Load("suppresscase")
	if err != nil {
		t.Fatal(err)
	}
	all := []*Analyzer{dummy, notran}
	diags, err := RunSelected(prog, pkgs, all, all)
	if err != nil {
		t.Fatal(err)
	}

	want := []struct {
		analyzer string
		line     int
		contains string
	}{
		{"dummy", 12, "call to trigger"},
		{"simlint", 14, "unused //simlint:ignore dummy"},
		{"simlint", 17, "a reason is mandatory"},
		{"dummy", 18, "call to trigger"},
		{"simlint", 20, `unknown analyzer "nosuch"`},
		{"dummy", 21, "call to trigger"},
		{"dummy", 24, "call to trigger"},
	}
	if len(diags) != len(want) {
		for _, d := range diags {
			t.Logf("got: %s:%d [%s] %s", d.File, d.Line, d.Analyzer, d.Message)
		}
		t.Fatalf("got %d diagnostics, want %d", len(diags), len(want))
	}
	for i, w := range want {
		d := diags[i]
		if d.Analyzer != w.analyzer || d.Line != w.line || !strings.Contains(d.Message, w.contains) {
			t.Errorf("diag %d = %s:%d [%s] %q; want line %d [%s] containing %q",
				i, d.File, d.Line, d.Analyzer, d.Message, w.line, w.analyzer, w.contains)
		}
	}
}

// TestRunSelected: running a -run subset keeps the full catalog for
// directive validation — suppressions naming a cataloged-but-unselected
// analyzer are neither "unknown" nor "unused", while malformed and truly
// unknown-name directives are still reported.
func TestRunSelected(t *testing.T) {
	mk := func(name string) *Analyzer {
		return &Analyzer{Name: name, Doc: "no-op", Run: func(*Pass) error { return nil }}
	}
	dummy, notran, other := mk("dummy"), mk("notran"), mk("other")

	abs, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	prog := loader.NewProgram(loader.Config{SrcRoots: []string{abs}})
	pkgs, err := prog.Load("suppresscase")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunSelected(prog, pkgs, []*Analyzer{dummy, notran, other}, []*Analyzer{other})
	if err != nil {
		t.Fatal(err)
	}

	want := []struct {
		line     int
		contains string
	}{
		{17, "a reason is mandatory"},
		{20, `unknown analyzer "nosuch"`},
	}
	if len(diags) != len(want) {
		for _, d := range diags {
			t.Logf("got: %s:%d [%s] %s", d.File, d.Line, d.Analyzer, d.Message)
		}
		t.Fatalf("got %d diagnostics, want %d", len(diags), len(want))
	}
	for i, w := range want {
		d := diags[i]
		if d.Analyzer != "simlint" || d.Line != w.line || !strings.Contains(d.Message, w.contains) {
			t.Errorf("diag %d = %s:%d [%s] %q; want line %d [simlint] containing %q",
				i, d.File, d.Line, d.Analyzer, d.Message, w.line, w.contains)
		}
	}
}
