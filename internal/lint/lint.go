// Package lint is a small, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary — Analyzer, Pass, Diagnostic —
// plus the runner and the //simlint:ignore suppression engine shared by
// cmd/simlint and the analyzer self-tests. The x/tools module is not
// available in this repository's hermetic build, so the framework is grown
// here on the standard library; analyzers are written against the same
// shape (a Run function over a typed Pass) and would port to the real
// framework mechanically.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"mptcpsim/internal/lint/loader"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in findings and in //simlint:ignore
	// directives. Lowercase, no spaces.
	Name string
	// Doc is a one-paragraph description of what the analyzer reports.
	Doc string
	// AppliesTo, if non-nil, restricts the analyzer to packages for which
	// it returns true (by import path). The determinism analyzer uses this
	// to confine itself to the simulation packages.
	AppliesTo func(pkgPath string) bool
	// Run performs the analysis on one package, reporting findings
	// through the pass.
	Run func(*Pass) error
}

// A Pass provides one analyzer run with one package's syntax and types.
type Pass struct {
	// Analyzer is the analyzer being run.
	Analyzer *Analyzer
	// Fset maps positions.
	Fset *token.FileSet
	// Files are the package's parsed files, with comments.
	Files []*ast.File
	// Pkg is the checked package.
	Pkg *types.Package
	// Info is the package's full type information.
	Info *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  sprintf(format, args...),
	})
}

// Diagnostic is one finding, ready for text or JSON rendering.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// RunSelected applies the selected analyzers to each package (honoring
// AppliesTo), applies the //simlint:ignore suppression pass per package, and
// returns the surviving findings sorted by position. Suppression misuse — a
// missing reason, an unknown analyzer name, a directive that matched nothing
// — is itself returned as a finding attributed to the pseudo-analyzer
// "simlint". Directives naming any cataloged analyzer stay valid: running a
// -run subset must not turn the other analyzers' suppressions into
// unknown-name findings (nor report them unused, since they never got the
// chance to match). Pass the same list twice to run every analyzer.
func RunSelected(prog *loader.Program, pkgs []*loader.Package, catalog, selected []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, pkg := range pkgs {
		var ran []*Analyzer
		var diags []Diagnostic
		for _, a := range selected {
			if a.AppliesTo != nil && !a.AppliesTo(pkg.Path) {
				continue
			}
			ran = append(ran, a)
			pass := &Pass{
				Analyzer: a,
				Fset:     prog.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, err
			}
		}
		out = append(out, applySuppressions(prog.Fset, pkg, catalog, ran, diags)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out, nil
}
