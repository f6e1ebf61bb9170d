package lint_test

import (
	"path/filepath"
	"testing"

	"mptcpsim/internal/lint"
	"mptcpsim/internal/lint/ctxflow"
	"mptcpsim/internal/lint/determinism"
	"mptcpsim/internal/lint/errwrap"
	"mptcpsim/internal/lint/exhaustive"
	"mptcpsim/internal/lint/hotpathalloc"
	"mptcpsim/internal/lint/loader"
	"mptcpsim/internal/lint/poolsafety"
	"mptcpsim/internal/lint/unitsafety"
)

// TestDogfood runs every analyzer over the whole module and requires a
// clean bill: the tree must carry zero findings, with every accepted
// exception spelled out as a //simlint:ignore <analyzer> <reason>. This is
// the same gate `make lint` and CI apply via cmd/simlint.
func TestDogfood(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	const modulePath = "mptcpsim"
	paths, err := loader.ModulePackages(root, modulePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 10 {
		t.Fatalf("suspiciously few packages under %s: %v", root, paths)
	}
	prog := loader.NewProgram(loader.Config{ModulePath: modulePath, ModuleRoot: root})
	pkgs, err := prog.Load(paths...)
	if err != nil {
		t.Fatal(err)
	}
	analyzers := []*lint.Analyzer{
		ctxflow.Analyzer,
		determinism.Analyzer,
		errwrap.Analyzer,
		exhaustive.Analyzer,
		hotpathalloc.Analyzer,
		poolsafety.Analyzer,
		unitsafety.Analyzer,
	}
	diags, err := lint.RunSelected(prog, pkgs, analyzers, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
	}
}
