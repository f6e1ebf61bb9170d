// Command deadcode fails on a function or method of the module's non-test Go
// that no binary links and allowlist.txt gives no reason to keep, and on a
// stale allowlist line (its symbol linked or gone), so the list only shrinks.
// `make deadcode` feeds it, from the module root, the files `go list` names
// and the `go tool nm` symbols of every binary, each built with
// -gcflags=all=-l so that a function with callers keeps a symbol of its own.
package main

import (
	"bufio"
	_ "embed"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"regexp"
	"sort"
	"strings"
)

//go:embed allowlist.txt
var allowlist string

var brackets, ordinal = regexp.MustCompile(`\[[^\[\]]*\]`), regexp.MustCompile(`\.init\.[0-9]+$`)

func main() {
	decls, linked, err := read(bufio.NewScanner(os.Stdin))
	problems := check(decls, linked, allowlist)
	if err != nil {
		problems = []string{err.Error()}
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "%s\ndeadcode: %d problem(s): delete what no binary links or allowlist it with a reason; delete stale lines\n", strings.Join(problems, "\n"), len(problems))
		os.Exit(1)
	}
	fmt.Printf("deadcode: %d functions and methods, each linked by a binary or allowlisted\n", len(decls))
}

// read takes "package <import path> <module path> <file>..." lines, naming
// the non-test Go files, and "binary <import path>" lines, each followed by
// its `go tool nm` lines: the symbols declared, and the text symbols linked.
func read(sc *bufio.Scanner) (decls, linked map[string]bool, err error) {
	decls, linked = map[string]bool{}, map[string]bool{}
	fset, binary := token.NewFileSet(), ""
	for sc.Scan() {
		switch f := strings.Fields(sc.Text()); {
		case len(f) >= 3 && f[0] == "package":
			for _, name := range f[3:] {
				file, err := parser.ParseFile(fset, "."+strings.TrimPrefix(f[1], f[2])+"/"+name, nil, parser.SkipObjectResolution)
				if err != nil {
					return nil, nil, err
				}
				declare(decls, f[1], file)
			}
		case len(f) == 2 && f[0] == "binary":
			binary = f[1]
		case len(f) >= 3 && (f[1] == "T" || f[1] == "t"):
			sym := normalize(strings.Join(f[2:], " "))
			if fn, ok := strings.CutPrefix(sym, "main."); ok {
				sym = binary + "." + fn // a command's package, by its import path
			}
			linked[sym] = true
		}
	}
	return decls, linked, sc.Err()
}

// declare adds the functions and methods f declares in package pkg to decls,
// named as the linker names them: pkg.F, pkg.T.M, pkg.(*T).M.
func declare(decls map[string]bool, pkg string, f *ast.File) {
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name != "_" {
			name := pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				recv := brackets.ReplaceAllString(types.ExprString(fn.Recv.List[0].Type), "")
				if strings.HasPrefix(recv, "*") {
					recv = "(" + recv + ")"
				}
				name = pkg + "." + recv + "." + fn.Name.Name
			}
			decls[name] = true
		}
	}
}

// normalize drops an instantiation's type arguments, nested ones included
// (runner.Map[go.shape.struct { a [2]int }] is runner.Map), and an init
// function's ordinal (init.0 is init).
func normalize(sym string) string {
	for brackets.MatchString(sym) {
		sym = brackets.ReplaceAllString(sym, "")
	}
	return ordinal.ReplaceAllString(sym, ".init")
}

// check lists, sorted, each declaration no binary links and no allowlist line
// names, and each allowlist line with no reason, a repeated symbol or stale.
func check(decls, linked map[string]bool, allowlist string) (problems []string) {
	listed := map[string]bool{}
	for n, line := range strings.Split(allowlist, "\n") {
		switch f := strings.Fields(line); {
		case len(f) == 0:
		case len(f) == 1 || listed[f[0]]:
			problems = append(problems, fmt.Sprintf("allowlist.txt:%d: %s: one line per symbol, each with its reason", n+1, f[0]))
		case !decls[f[0]]:
			problems = append(problems, f[0]+": stale allowlist line, not declared")
		case linked[f[0]]:
			problems = append(problems, f[0]+": stale allowlist line, linked")
		default:
			listed[f[0]] = true
		}
	}
	for sym := range decls {
		if !linked[sym] && !listed[sym] {
			problems = append(problems, sym+": linked by no binary")
		}
	}
	sort.Strings(problems)
	return problems
}
