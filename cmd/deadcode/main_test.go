package main

import (
	"bufio"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"
)

func TestDeclare(t *testing.T) {
	for _, tc := range []struct {
		pkg, src string
		want     []string
	}{
		{"mod/x", `package x
type T int
type G[K comparable, V any] struct{}
type H[E any] []E
func F() {}
func init() {}
func _() {}
func (T) Val() {}
func (*T) Ptr() {}
func (g *G[K, V]) Gen() {}
func (h H[E]) GenVal() {}
`, []string{"mod/x.F", "mod/x.init", "mod/x.T.Val", "mod/x.(*T).Ptr", "mod/x.(*G).Gen", "mod/x.H.GenVal"}},
		{"mod/cmd/tool", `package main
type flags struct{}
func main() {}
func (f *flags) parse() {}
`, []string{"mod/cmd/tool.main", "mod/cmd/tool.(*flags).parse"}},
	} {
		f, err := parser.ParseFile(token.NewFileSet(), "x.go", tc.src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		got, want := map[string]bool{}, map[string]bool{}
		declare(got, tc.pkg, f)
		for _, sym := range tc.want {
			want[sym] = true
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: symbols %v, want %v", tc.pkg, got, want)
		}
	}
}

func TestNormalize(t *testing.T) {
	for _, tc := range [][2]string{
		{"mptcpsim/internal/sim.(*Sim).Run", "mptcpsim/internal/sim.(*Sim).Run"},
		{"mptcpsim/internal/runner.Map[go.shape.struct {}]", "mptcpsim/internal/runner.Map"},
		{"mptcpsim/internal/runner.Map[go.shape.struct { a [2]int }].func1", "mptcpsim/internal/runner.Map.func1"},
		{
			"mptcpsim/internal/runner.(*stream[go.shape.struct { one mptcpsim/internal/campaign.outcome; blk *[4][2]int }]).claim",
			"mptcpsim/internal/runner.(*stream).claim",
		},
		{"mptcpsim/internal/sim.init.0", "mptcpsim/internal/sim.init"},
		{"mptcpsim/internal/sim.init.12", "mptcpsim/internal/sim.init"},
		{"mptcpsim.init", "mptcpsim.init"},
		{"mptcpsim.init.func1", "mptcpsim.init.func1"},
		{"mptcpsim.init.0.func1", "mptcpsim.init.0.func1"},
	} {
		if got := normalize(tc[0]); got != tc[1] {
			t.Errorf("normalize(%q) = %q, want %q", tc[0], got, tc[1])
		}
	}
}

// TestRead: a package line's files are parsed from the directory its import
// path names within the module (here the module is this directory, and the
// file this command); a binary's text symbols are normalised, a command's
// under its import path, and data and undefined symbols are not code.
func TestRead(t *testing.T) {
	in := `package mod mod main.go
binary mod/cmd/tool
  6bd2a0 T main.main
  6bd3a0 t main.(*flags).parse
  575be0 T mod.init.0
  6cb1a0 T mod/internal/runner.Map[go.shape.struct { a [2]int }]
  7a0000 D mod/internal/sim.table
         U __errno_location
binary mod/examples/demo
  6bd2a0 T main.main
`
	decls, linked, err := read(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	wantDecls := map[string]bool{"mod.main": true, "mod.read": true, "mod.declare": true, "mod.normalize": true, "mod.check": true}
	wantLinked := map[string]bool{
		"mod/cmd/tool.main": true, "mod/cmd/tool.(*flags).parse": true, "mod.init": true,
		"mod/internal/runner.Map": true, "mod/examples/demo.main": true,
	}
	if !reflect.DeepEqual(decls, wantDecls) || !reflect.DeepEqual(linked, wantLinked) {
		t.Fatalf("declared %v and linked %v, want %v and %v", decls, linked, wantDecls, wantLinked)
	}
}

func TestCheck(t *testing.T) {
	decls := map[string]bool{"mod.used": true, "mod.dead": true, "mod.kept": true, "mod.keptLinked": true, "mod.bare": true}
	linked := map[string]bool{"mod.used": true, "mod.keptLinked": true, "runtime.main": true}
	allow := `mod.kept root API, locked by api.txt

mod.keptLinked test helper
mod.gone item 4 reads it
mod.bare
mod.kept listed twice
`
	want := []string{
		"allowlist.txt:5: mod.bare: one line per symbol, each with its reason",
		"allowlist.txt:6: mod.kept: one line per symbol, each with its reason",
		"mod.bare: linked by no binary",
		"mod.dead: linked by no binary",
		"mod.gone: stale allowlist line, not declared",
		"mod.keptLinked: stale allowlist line, linked",
	}
	if got := check(decls, linked, allow); !reflect.DeepEqual(got, want) {
		t.Fatalf("problems\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	delete(decls, "mod.dead")
	delete(decls, "mod.bare")
	if got := check(decls, linked, "mod.kept root API, locked by api.txt\n"); len(got) != 0 {
		t.Fatalf("problems %q on a clean tree", got)
	}
}

// TestCommittedAllowlist: every line of the allowlist the command embeds
// gives a reason and names its symbol once.
func TestCommittedAllowlist(t *testing.T) {
	decls := map[string]bool{}
	for _, line := range strings.Split(allowlist, "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			decls[f[0]] = true
		}
	}
	if got := check(decls, nil, allowlist); len(got) != 0 {
		t.Fatalf("allowlist.txt:\n%s", strings.Join(got, "\n"))
	}
}
