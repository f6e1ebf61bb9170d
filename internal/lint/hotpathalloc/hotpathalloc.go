// Package hotpathalloc implements the simlint analyzer that statically
// guards the kernel's zero-allocation hot path — the property measured
// empirically by the benchmark's netem.allocs_per_pkt and
// tcp.flow_allocs_per_pkt.
//
// A function is hot when it is (a) a method named RunEvent, Recv, Acked,
// or Lost — the per-packet entry points of sim.Handler and netem.Node, and
// the per-ACK and per-loss entry points of core.Controller, which tcp
// calls across a package boundary that hotness propagation does not cross
// — (b) explicitly marked with a
// //simlint:hot directive on its doc comment, or (c) statically reachable
// from a hot function through same-package calls. A //simlint:cold
// directive excludes a function (a failure/diagnostic path such as an
// invariant-violation reporter, or per-flow set-up an arrival event calls)
// from both hotness propagation and call-site checks: invoking a cold
// function is asserted to happen only off the per-packet path, so its
// argument boxing is not charged to the hot path.
//
// Inside hot functions the analyzer reports the allocation idioms the
// kernel was rewritten to avoid:
//
//   - the closure conveniences (*sim.Sim).At / After (each call allocates
//     a closure slot; hot code implements sim.Handler and uses
//     Schedule/ScheduleTimer);
//   - function literals (closure allocation, including closure-capturing
//     arguments to Schedule-style APIs);
//   - implicit interface conversions of non-pointer-shaped values
//     (boxing allocates); arguments to panic(...) are exempt, since a
//     panicking simulation is past caring;
//   - append to a function-local slice that was not preallocated with
//     make or derived from a reused field/parameter buffer (appends to
//     long-lived component fields amortize to zero and are allowed);
//   - fresh heap objects: new(T), slice literals, and make — except make
//     of a slice with constant length and capacity, which the compiler
//     keeps on the stack when it does not escape (the preallocation the
//     append rule asks for). Scratch belongs in a field of the long-lived
//     component; an amortised grower carries a reasoned //simlint:ignore.
package hotpathalloc

import (
	"go/ast"
	"go/types"
	"strings"

	"mptcpsim/internal/lint"
)

// Analyzer is the hot-path allocation checker.
var Analyzer = &lint.Analyzer{
	Name: "hotpathalloc",
	Doc:  "forbid closure timers, interface boxing, unpreallocated appends, and make/new/slice-literal allocation in per-packet hot paths",
	Run:  run,
}

const simPkgPath = "mptcpsim/internal/sim"

// hotEntryNames are method names that make a function a hot root: the
// kernel dispatches every per-packet event through the first two, and
// tcp calls its core.Controller through Acked and Lost on every ACK and
// loss.
var hotEntryNames = map[string]bool{"RunEvent": true, "Recv": true, "Acked": true, "Lost": true}

const (
	hotDirective  = "//simlint:hot"
	coldDirective = "//simlint:cold"
)

func run(pass *lint.Pass) error {
	// Collect the package's function declarations and their markers.
	decls := make(map[*types.Func]*ast.FuncDecl)
	cold := make(map[*types.Func]bool)
	var roots []*types.Func
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls[obj] = fd
			if hasDirective(fd.Doc, coldDirective) {
				cold[obj] = true
				continue
			}
			if hasDirective(fd.Doc, hotDirective) ||
				(fd.Recv != nil && hotEntryNames[fd.Name.Name]) {
				roots = append(roots, obj)
			}
		}
	}

	// Propagate hotness through same-package static calls.
	hot := make(map[*types.Func]bool)
	var queue []*types.Func
	for _, r := range roots {
		hot[r] = true
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		ast.Inspect(decls[fn].Body, func(n ast.Node) bool {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false // the literal itself is already a finding
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(pass, call)
			if callee == nil || cold[callee] || hot[callee] {
				return true
			}
			if _, local := decls[callee]; !local {
				return true
			}
			hot[callee] = true
			queue = append(queue, callee)
			return true
		})
	}

	for fn := range hot {
		checkHotFunc(pass, decls[fn], cold)
	}
	return nil
}

// hasDirective reports whether the doc comment group carries the marker.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return true
		}
	}
	return false
}

// calleeFunc resolves a call expression to the called function object, if
// it names one statically. A method of an instantiated generic type resolves
// to its declaration (Origin), the object the package's FuncDecls are keyed
// by.
func calleeFunc(pass *lint.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pass.Info.Uses[fun].(*types.Func); ok {
			return fn.Origin()
		}
	case *ast.SelectorExpr:
		if fn, ok := pass.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn.Origin()
		}
	}
	return nil
}

// checkHotFunc walks one hot function's body reporting allocation idioms.
func checkHotFunc(pass *lint.Pass, fd *ast.FuncDecl, cold map[*types.Func]bool) {
	w := &walker{pass: pass, fd: fd, cold: cold}
	w.walk(fd.Body)
}

type walker struct {
	pass *lint.Pass
	fd   *ast.FuncDecl
	cold map[*types.Func]bool
}

func (w *walker) walk(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.pass.Reportf(n.Pos(), "closure allocated in hot path %s; implement sim.Handler on a long-lived component instead", w.fd.Name.Name)
			return false // do not double-report the literal's body
		case *ast.CallExpr:
			return w.call(n)
		case *ast.CompositeLit:
			if t := w.pass.Info.TypeOf(n); t != nil && isSlice(t) {
				w.pass.Reportf(n.Pos(), "slice literal allocates in hot path %s; keep the backing array in a field of the long-lived component", w.fd.Name.Name)
			}
		case *ast.AssignStmt:
			w.boxingInAssign(n)
		case *ast.ReturnStmt:
			w.boxingInReturn(n)
		}
		return true
	})
}

// call checks one call site; it reports whether to descend into children.
func (w *walker) call(call *ast.CallExpr) bool {
	callee := calleeFunc(w.pass, call)

	// panic(...) is a failure path: nothing under it is hot.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := w.pass.Info.Uses[id].(*types.Builtin); ok {
			if b.Name() == "panic" {
				return false
			}
			switch b.Name() {
			case "append":
				w.checkAppend(call)
			case "new":
				w.pass.Reportf(call.Pos(), "new allocates in hot path %s; keep the object in a field of the long-lived component or a pool", w.fd.Name.Name)
			case "make":
				if !w.constSliceMake(call) {
					w.pass.Reportf(call.Pos(), "make allocates in hot path %s; keep the buffer in a field of the long-lived component and size it on demand", w.fd.Name.Name)
				}
			}
			return true
		}
	}
	if tv, ok := w.pass.Info.Types[call.Fun]; ok && tv.IsType() {
		return true // conversion; interface targets are caught at use sites
	}

	// Calls to functions asserted cold are exceptional paths: skip the
	// whole call, arguments included.
	if callee != nil && w.cold[callee] {
		return false
	}

	// The kernel's closure conveniences.
	if callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == simPkgPath &&
		(callee.Name() == "At" || callee.Name() == "After") {
		if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
			w.pass.Reportf(call.Pos(), "(*sim.Sim).%s allocates a closure slot per call in hot path %s; implement sim.Handler and use Schedule/ScheduleTimer", callee.Name(), w.fd.Name.Name)
		}
	}

	w.boxingInCall(call)
	return true
}

// boxingInCall flags arguments whose assignment to an interface parameter
// boxes a non-pointer-shaped value.
func (w *walker) boxingInCall(call *ast.CallExpr) {
	sig, ok := w.pass.Info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	if call.Ellipsis.IsValid() {
		return // s... forwards an existing slice; nothing new is boxed
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		w.checkBox(arg, pt)
	}
}

func (w *walker) boxingInAssign(s *ast.AssignStmt) {
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i, lhs := range s.Lhs {
		lt := w.pass.Info.TypeOf(lhs)
		if lt == nil {
			continue
		}
		w.checkBox(s.Rhs[i], lt)
	}
}

func (w *walker) boxingInReturn(s *ast.ReturnStmt) {
	results := w.pass.Info.TypeOf(w.fd.Name)
	sig, ok := results.(*types.Signature)
	if !ok || sig.Results().Len() != len(s.Results) {
		return
	}
	for i, r := range s.Results {
		w.checkBox(r, sig.Results().At(i).Type())
	}
}

// checkBox reports expr if assigning it to target boxes an allocation.
func (w *walker) checkBox(expr ast.Expr, target types.Type) {
	if target == nil || !types.IsInterface(target.Underlying()) {
		return
	}
	if _, isLit := expr.(*ast.FuncLit); isLit {
		return // already reported as a closure
	}
	tv, ok := w.pass.Info.Types[expr]
	if !ok || tv.Type == nil {
		return
	}
	if tv.IsNil() || types.IsInterface(tv.Type.Underlying()) {
		return
	}
	if pointerShaped(tv.Type) {
		return
	}
	w.pass.Reportf(expr.Pos(), "converting %s to %s boxes (allocates) in hot path %s; pass a pointer or restructure the callee", tv.Type, target, w.fd.Name.Name)
}

// pointerShaped reports whether values of t fit an interface word without
// allocating: pointers, channels, maps, funcs, unsafe pointers, zero-size
// types, and single-field wrappers of those.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Struct:
		if u.NumFields() == 0 {
			return true
		}
		if u.NumFields() == 1 {
			return pointerShaped(u.Field(0).Type())
		}
		return false
	case *types.Array:
		if u.Len() == 0 {
			return true
		}
		if u.Len() == 1 {
			return pointerShaped(u.Elem())
		}
		return false
	default:
		return false
	}
}

func isSlice(t types.Type) bool {
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

// constSliceMake reports whether call makes a slice whose length and
// capacity are all constants: the one make the compiler can keep on the
// stack.
func (w *walker) constSliceMake(call *ast.CallExpr) bool {
	if len(call.Args) < 2 {
		return false
	}
	if t := w.pass.Info.TypeOf(call.Args[0]); t == nil || !isSlice(t) {
		return false
	}
	for _, size := range call.Args[1:] {
		if w.pass.Info.Types[size].Value == nil {
			return false
		}
	}
	return true
}

// checkAppend flags append whose destination is a function-local slice
// with no visible preallocation. Fields and parameters are reused buffers
// by construction (their capacity survives across events), so only fresh
// locals are charged.
func (w *walker) checkAppend(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	base := rootIdent(call.Args[0])
	if base == nil {
		return
	}
	v, ok := w.pass.Info.Uses[base].(*types.Var)
	if !ok {
		if v, ok = w.pass.Info.Defs[base].(*types.Var); !ok {
			return
		}
	}
	if v.Pkg() == nil || v.Parent() == nil {
		return
	}
	// Only plain locals declared in this function body are suspect.
	if !declaredIn(v, w.fd) || isParamOrResult(w.pass, v, w.fd) {
		return
	}
	if w.preallocated(v) {
		return
	}
	w.pass.Reportf(call.Pos(), "append to %s grows an unpreallocated local slice in hot path %s; preallocate with make(..., 0, n) or reuse a field buffer", v.Name(), w.fd.Name.Name)
}

// preallocated reports whether v's initializer visibly reserves capacity:
// a make call, or a slice derived from a field/parameter (x := s.buf[:0]).
func (w *walker) preallocated(v *types.Var) bool {
	found := false
	ast.Inspect(w.fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || w.pass.Info.Defs[id] != v {
					continue
				}
				if i < len(n.Rhs) && initPreallocates(w.pass, n.Rhs[i]) {
					found = true
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if w.pass.Info.Defs[name] != v {
					continue
				}
				if i < len(n.Values) && initPreallocates(w.pass, n.Values[i]) {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// initPreallocates recognizes make(...) and expressions rooted in a
// non-local buffer (field or parameter reslices).
func initPreallocates(pass *lint.Pass, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "make" {
				return true
			}
		}
		return false
	case *ast.SliceExpr:
		return true // derived from an existing buffer (s.buf[:0] idiom)
	case *ast.SelectorExpr:
		return true // field buffer
	default:
		return false
	}
}

// rootIdent unwraps selector/index/slice/star chains to the base
// identifier, or nil if the base is not an identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// declaredIn reports whether v's declaration lies within the function
// body's extent.
func declaredIn(v *types.Var, fd *ast.FuncDecl) bool {
	return v.Pos() >= fd.Body.Pos() && v.Pos() <= fd.Body.End()
}

// isParamOrResult reports whether v is one of fd's parameters, results, or
// its receiver.
func isParamOrResult(pass *lint.Pass, v *types.Var, fd *ast.FuncDecl) bool {
	check := func(fl *ast.FieldList) bool {
		if fl == nil {
			return false
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if pass.Info.Defs[name] == v {
					return true
				}
			}
		}
		return false
	}
	return check(fd.Recv) || check(fd.Type.Params) || check(fd.Type.Results)
}
