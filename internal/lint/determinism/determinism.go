// Package determinism implements the simlint analyzer that keeps the
// simulation packages bit-deterministic: byte-identical output for a given
// (spec, seed) at any worker count is the property every golden file, the
// fuzzer's re-run digest check, and the paper's figures rest on. The
// analyzer statically rejects the four ways nondeterminism has historically
// crept into discrete-event simulators:
//
//   - wall-clock reads (time.Now, time.Since, timers): virtual time must
//     come from the kernel clock, Sim.Now;
//   - the global math/rand source (rand.Intn and friends): every draw must
//     come from the per-simulation seeded source, Sim.Rand;
//   - goroutines: the kernel is single-threaded by contract, and all
//     fan-out concurrency lives behind internal/runner's deterministic
//     index-ordered worker pool;
//   - ranging over a map when the loop body is not provably
//     order-insensitive: map iteration order is randomized by the runtime,
//     so any body that could let the visit order reach output or event
//     scheduling (calls, returns, plain assignments) is flagged. Bodies
//     that only count, sum, collect keys for later sorting, or copy into
//     another map are accepted.
package determinism

import (
	"go/ast"
	"go/printer"
	"go/types"
	"strings"

	"mptcpsim/internal/lint"
)

// Analyzer is the determinism checker.
var Analyzer = &lint.Analyzer{
	Name:      "determinism",
	Doc:       "forbid wall-clock time, the global math/rand source, goroutines, and order-sensitive map iteration in simulation packages",
	AppliesTo: InScope,
	Run:       run,
}

const modulePrefix = "mptcpsim/"

// scoped lists the simulation packages (and, implicitly, their
// subpackages) whose results must be a deterministic function of
// (spec, seed), and the experiment registry above them, whose tables must
// be a deterministic function of (Config, ids): its one fan-out is a
// runner.Stream, never a goroutine of its own.
var scoped = []string{
	"internal/sim",
	"internal/netem",
	"internal/tcp",
	"internal/mptcp",
	"internal/scenario",
	"internal/harness",
}

// InScope reports whether the analyzer applies to the package.
func InScope(pkgPath string) bool {
	rest, ok := strings.CutPrefix(pkgPath, modulePrefix)
	if !ok {
		return false
	}
	for _, d := range scoped {
		if rest == d || strings.HasPrefix(rest, d+"/") {
			return true
		}
	}
	return false
}

// bannedTime are package time functions that read or wait on the wall
// clock; simulation code must use the virtual clock instead.
var bannedTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// bannedRand are the top-level math/rand (and math/rand/v2) functions
// drawing from the global, seed-uncontrolled source.
var bannedRand = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true,
	// math/rand/v2 spellings not shared with v1.
	"IntN": true, "Int32": true, "Int32N": true, "Int64": true,
	"Int64N": true, "N": true, "Uint": true, "UintN": true,
	"Uint32N": true, "Uint64N": true,
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				checkIdent(pass, n)
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "goroutine spawned in simulation code; the kernel is single-threaded and fan-out concurrency belongs in internal/runner")
			case *ast.RangeStmt:
				checkRange(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkIdent flags uses (calls or function values) of banned package-level
// functions. Methods — e.g. (*rand.Rand).Intn on a Sim-seeded source — are
// exempt: only the global-state entry points are nondeterministic.
func checkIdent(pass *lint.Pass, id *ast.Ident) {
	fn, ok := pass.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if bannedTime[fn.Name()] {
			pass.Reportf(id.Pos(), "wall-clock time.%s in simulation code; virtual time comes from the kernel clock (Sim.Now)", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if bannedRand[fn.Name()] {
			pass.Reportf(id.Pos(), "global math/rand source (%s.%s) in simulation code; draw from the per-simulation seeded source (Sim.Rand)", fn.Pkg().Name(), fn.Name())
		}
	}
}

// checkRange flags `range` over a map unless the body is provably
// order-insensitive.
func checkRange(pass *lint.Pass, rs *ast.RangeStmt) {
	t := pass.Info.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if orderInsensitive(pass, rs.Body) {
		return
	}
	pass.Reportf(rs.Pos(), "range over map: iteration order is nondeterministic and the body is not order-insensitive; collect and sort the keys first (or prove the body commutative)")
}

// orderInsensitive reports whether executing the block once per map entry
// yields the same state for every visit order. Accepted statement forms:
// commutative accumulation (x += e, x++, x |= e, ...), appending to the
// same slice (x = append(x, ...)), writes into another map, pure local
// definitions, delete, continue, and if-statements whose branches are
// themselves order-insensitive. Function calls (other than a small builtin
// set), plain assignments (last-writer-wins), returns, and breaks are all
// order-sensitive.
func orderInsensitive(pass *lint.Pass, body *ast.BlockStmt) bool {
	for _, s := range body.List {
		if !stmtInsensitive(pass, s) {
			return false
		}
	}
	return true
}

func stmtInsensitive(pass *lint.Pass, s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.IncDecStmt:
		return callFree(pass, s.X)
	case *ast.AssignStmt:
		return assignInsensitive(pass, s)
	case *ast.ExprStmt:
		// delete(m, k) is the only bare call that commutes.
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok {
				if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
					return callFree(pass, call.Args...)
				}
			}
		}
		return false
	case *ast.IfStmt:
		if s.Init != nil && !stmtInsensitive(pass, s.Init) {
			return false
		}
		if !callFree(pass, s.Cond) || !orderInsensitive(pass, s.Body) {
			return false
		}
		if s.Else != nil {
			return stmtInsensitive(pass, s.Else)
		}
		return true
	case *ast.BlockStmt:
		return orderInsensitive(pass, s)
	case *ast.BranchStmt:
		return s.Tok.String() == "continue"
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return false
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				return false
			}
			if !callFree(pass, vs.Values...) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

func assignInsensitive(pass *lint.Pass, s *ast.AssignStmt) bool {
	switch s.Tok.String() {
	case "+=", "-=", "*=", "|=", "&=", "^=":
		return callFree(pass, s.Lhs...) && callFree(pass, s.Rhs...)
	case ":=":
		// Fresh locals scoped to this iteration cannot carry order between
		// visits.
		return callFree(pass, s.Rhs...)
	case "=":
		if len(s.Lhs) != len(s.Rhs) {
			return false
		}
		for i, lhs := range s.Lhs {
			if !pairInsensitive(pass, lhs, s.Rhs[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// pairInsensitive accepts `x = append(x, pure...)` and `m[pure] = pure`
// where m is a map (per-key writes commute because range keys are
// distinct). Everything else — notably plain overwrites, whose final value
// depends on which entry is visited last — is order-sensitive.
func pairInsensitive(pass *lint.Pass, lhs, rhs ast.Expr) bool {
	if call, ok := rhs.(*ast.CallExpr); ok {
		if id, ok := call.Fun.(*ast.Ident); ok {
			if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
				return len(call.Args) > 0 &&
					render(pass, lhs) == render(pass, call.Args[0]) &&
					callFree(pass, call.Args[1:]...)
			}
		}
	}
	if ix, ok := lhs.(*ast.IndexExpr); ok {
		if t := pass.Info.TypeOf(ix.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				return callFree(pass, ix.Index, rhs)
			}
		}
	}
	return false
}

// callFree reports whether the expressions contain no calls other than
// builtins and type conversions.
func callFree(pass *lint.Pass, exprs ...ast.Expr) bool {
	free := true
	for _, e := range exprs {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return free
			}
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				if _, isBuiltin := pass.Info.Uses[fun].(*types.Builtin); isBuiltin {
					return free
				}
			}
			if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
				return free // conversion, not a call
			}
			free = false
			return false
		})
	}
	return free
}

func render(pass *lint.Pass, e ast.Expr) string {
	var b strings.Builder
	_ = printer.Fprint(&b, pass.Fset, e)
	return b.String()
}
