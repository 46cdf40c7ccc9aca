// Package zeroalloc defines the fmmvet analyzer behind the repository's
// strongest contract: functions marked //fastmm:zeroalloc — the steady-state
// DFS multiply, the batch submit/metrics hot path, the trace-ring publish —
// must not allocate, and neither may anything they statically call inside
// the module.
//
// The AllocsPerRun tests pin these paths at (near) zero allocs/op and the
// repository benchmark reports workspace.allocs_per_op, but both notice a
// regression only after it is written. This analyzer rejects the
// allocation at review time instead. Starting from every //fastmm:zeroalloc
// function it walks the static call graph across the whole module and flags,
// in every reachable body:
//
//   - make, new, append (growth reallocates)
//   - map and slice composite literals, &T{} literals (heap escape)
//   - closures that capture variables (the closure header allocates)
//   - conversions that box into an interface, and string<->[]byte/[]rune
//     conversions
//   - string concatenation with +
//   - go statements (a goroutine is an allocation, and a spawn)
//   - calls to out-of-module functions beyond a small allocation-free
//     allowlist (sync, sync/atomic, math, math/bits, a few time/errors/
//     runtime entry points) — fmt is deliberately not on it
//   - dynamic calls (func values, interface methods) — unprovable, so they
//     must be waived explicitly
//
// Escape hatches: a //fastmm:allow line waives the finding on that line and,
// for calls, stops traversal into the callee (the waiver covers what the
// callee does on this path); a //fastmm:allow function directive exempts the
// whole function and prunes it from the graph (the canonical use is the
// BFS/HYBRID spawn path, which allocates per task by design).
//
// The walk needs every module package's syntax, so the full contract is
// checked by the standalone `fmmvet ./...` driver; under `go vet -vettool`
// each package is analyzed alone and cross-package edges are skipped.
package zeroalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"fastmm/internal/analysis/directive"
	"fastmm/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "zeroalloc",
	Doc:  "//fastmm:zeroalloc functions and their in-module callees must not allocate",
	Run:  run,
}

// allowedCalls are out-of-module callees accepted on zeroalloc paths. A nil
// set allows the whole package.
var allowedCalls = map[string]map[string]bool{
	"sync/atomic": nil,
	"math":        nil,
	"math/bits":   nil,
	"sync":        nil, // Pool.Get amortizes; Mutex/WaitGroup don't allocate
	"runtime":     {"Gosched": true, "KeepAlive": true, "NumCPU": true},
	"time":        {"Now": true, "Since": true, "Sub": true, "Seconds": true, "Nanoseconds": true, "Microseconds": true, "Milliseconds": true, "UnixNano": true, "Duration": true, "IsZero": true, "Before": true, "After": true, "Equal": true, "Compare": true},
	"errors":      {"Is": true},
}

func run(pass *framework.Pass) error {
	st := pass.Prog.Cached("zeroalloc.state", func() any {
		return analyze(pass.Prog)
	}).(*state)
	for _, d := range st.diags[pass.Pkg.Path()] {
		pass.Reportf(d.pos, "%s", d.msg)
	}
	return nil
}

type state struct {
	diags map[string][]diag // package path -> findings
}

type diag struct {
	pos token.Pos
	msg string
}

// funcSite is one module function's declaration and home package.
type funcSite struct {
	pkg  *framework.Package
	decl *ast.FuncDecl
}

type analyzer struct {
	prog  *framework.Program
	sites map[*types.Func]funcSite
	index map[string]*directive.Index
	st    *state

	visited map[*types.Func]bool
	queue   []queued
}

type queued struct {
	fn   *types.Func
	root string
}

func analyze(prog *framework.Program) *state {
	a := &analyzer{
		prog:    prog,
		sites:   map[*types.Func]funcSite{},
		index:   map[string]*directive.Index{},
		st:      &state{diags: map[string][]diag{}},
		visited: map[*types.Func]bool{},
	}
	for _, pkg := range prog.Packages {
		a.index[pkg.Path] = directive.Parse(prog.Fset, pkg.Files)
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					a.sites[fn] = funcSite{pkg: pkg, decl: fd}
				}
			}
		}
	}
	// Roots: every //fastmm:zeroalloc-marked declaration, in deterministic
	// order (map iteration above is not, so re-walk via sites sorted by pos).
	for fn, site := range a.sites {
		if directive.FuncHas(directive.ZeroAlloc, site.decl) {
			a.enqueue(fn, site.pkg.Path+"."+fn.Name())
		}
	}
	for len(a.queue) > 0 {
		q := a.queue[0]
		a.queue = a.queue[1:]
		a.scan(q.fn, q.root)
	}
	return a.st
}

func (a *analyzer) enqueue(fn *types.Func, root string) {
	if a.visited[fn] {
		return
	}
	a.visited[fn] = true
	a.queue = append(a.queue, queued{fn, root})
}

// scan checks one reachable function body and enqueues its in-module static
// callees.
func (a *analyzer) scan(fn *types.Func, root string) {
	site := a.sites[fn]
	idx := a.index[site.pkg.Path]
	info := site.pkg.Info
	w := &walker{a: a, pkg: site.pkg, info: info, idx: idx, root: root}
	w.walk(site.decl.Body)
}

type walker struct {
	a    *analyzer
	pkg  *framework.Package
	info *types.Info
	idx  *directive.Index
	root string
}

func (w *walker) reportf(pos token.Pos, format string, args ...any) {
	if w.idx.LineHas(directive.Allow, pos) {
		return
	}
	msg := fmt.Sprintf(format, args...) + fmt.Sprintf(" (on //fastmm:zeroalloc path from %s)", w.root)
	w.a.st.diags[w.pkg.Path] = append(w.a.st.diags[w.pkg.Path], diag{pos, msg})
}

func (w *walker) waived(pos token.Pos) bool {
	return w.idx.LineHas(directive.Allow, pos)
}

// walk inspects one body, handling the nodes that can allocate. It recurses
// manually so waived closures can skip their bodies.
func (w *walker) walk(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			if w.waived(x.Pos()) {
				return false // waiver covers the closure and its body
			}
			if capturesOuter(w.info, x) {
				w.reportf(x.Pos(), "closure captures variables and allocates its header")
			}
			return true
		case *ast.GoStmt:
			w.reportf(x.Pos(), "go statement allocates a goroutine")
			return true
		case *ast.CompositeLit:
			w.compositeLit(x)
			return true
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if cl, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					w.reportf(x.Pos(), "&composite literal escapes to the heap")
					// The inner literal was reported; don't double-flag it.
					for _, e := range cl.Elts {
						w.walk(e)
					}
					return false
				}
			}
			return true
		case *ast.BinaryExpr:
			if x.Op == token.ADD {
				if tv, ok := w.info.Types[x]; ok {
					if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						w.reportf(x.Pos(), "string concatenation allocates")
					}
				}
			}
			return true
		case *ast.CallExpr:
			return w.call(x)
		}
		return true
	})
}

func (w *walker) compositeLit(cl *ast.CompositeLit) {
	tv, ok := w.info.Types[cl]
	if !ok {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Map:
		w.reportf(cl.Pos(), "map literal allocates")
	case *types.Slice:
		w.reportf(cl.Pos(), "slice literal allocates")
	}
}

// call handles one call expression: conversions, builtins, static calls
// (traversed in-module, allowlisted out), and dynamic calls. Returns whether
// ast.Inspect should descend into the call's children.
func (w *walker) call(call *ast.CallExpr) bool {
	// Type conversion?
	if tv, ok := w.info.Types[call.Fun]; ok && tv.IsType() {
		w.conversion(call, tv.Type)
		return true
	}
	// Builtin? (unsafe.Sizeof and friends arrive as selector-form builtins.)
	if b, ok := builtinCallee(w.info, call).(*types.Builtin); ok {
		switch b.Name() {
		case "append":
			w.reportf(call.Pos(), "append may grow and reallocate")
		case "make":
			w.reportf(call.Pos(), "make allocates")
		case "new":
			w.reportf(call.Pos(), "new allocates")
		}
		return true
	}
	fn := staticCallee(w.info, call)
	if fn == nil {
		w.reportf(call.Pos(), "dynamic call: cannot prove the target allocation-free")
		return true
	}
	// Instantiated generic methods are distinct objects from their declared
	// form; Origin maps them back to the declaration the sites index holds.
	fn = fn.Origin()
	if site, ok := w.a.sites[fn]; ok {
		// In-module static call: a line waiver or an allow-marked callee
		// stops traversal; otherwise the callee joins the zeroalloc set.
		if w.waived(call.Pos()) || directive.FuncHas(directive.Allow, site.decl) {
			return true
		}
		w.a.enqueue(fn, w.root)
		return true
	}
	// Out-of-module (or bodyless in-module, e.g. assembly stubs / vettool
	// single-package mode): check the allowlist.
	pkg := fn.Pkg()
	if pkg == nil {
		return true // builtin error method etc.
	}
	if w.a.inModulePath(pkg.Path()) {
		return true // module function without loaded syntax: unverifiable here
	}
	if names, ok := allowedCalls[pkg.Path()]; ok && (names == nil || names[fn.Name()]) {
		return true
	}
	w.reportf(call.Pos(), "call to %s.%s is outside the allocation-free allowlist", pkg.Path(), fn.Name())
	return true
}

func (w *walker) conversion(call *ast.CallExpr, target types.Type) {
	if len(call.Args) != 1 {
		return
	}
	argTV, ok := w.info.Types[call.Args[0]]
	if !ok {
		return
	}
	src := argTV.Type
	if _, ok := target.Underlying().(*types.Interface); ok {
		if _, srcIface := src.Underlying().(*types.Interface); !srcIface {
			w.reportf(call.Pos(), "conversion to interface boxes the value")
		}
		return
	}
	tb, tIsBasic := target.Underlying().(*types.Basic)
	sb, sIsBasic := src.Underlying().(*types.Basic)
	_, tIsSlice := target.Underlying().(*types.Slice)
	_, sIsSlice := src.Underlying().(*types.Slice)
	if tIsBasic && tb.Info()&types.IsString != 0 && sIsSlice {
		w.reportf(call.Pos(), "[]byte/[]rune to string conversion allocates")
	}
	if tIsSlice && sIsBasic && sb.Info()&types.IsString != 0 {
		w.reportf(call.Pos(), "string to slice conversion allocates")
	}
}

// inModulePath reports whether path belongs to the main module (loaded or
// not). In vettool mode ModulePath is derived from the package under
// analysis, so unloaded sibling packages are recognized and skipped rather
// than misread as stdlib.
func (a *analyzer) inModulePath(path string) bool {
	mp := a.prog.ModulePath
	return mp != "" && (path == mp || strings.HasPrefix(path, mp+"/"))
}

// builtinCallee resolves the call's target to a builtin object, in either
// plain (append) or selector (unsafe.Sizeof) form.
func builtinCallee(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := info.Uses[fun].(*types.Builtin); ok {
			return b
		}
	case *ast.SelectorExpr:
		if b, ok := info.Uses[fun.Sel].(*types.Builtin); ok {
			return b
		}
	}
	return nil
}

// staticCallee resolves the call's target when it is a statically known
// function or concrete method; nil for func values and interface methods.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if s, ok := info.Selections[fun]; ok {
			if _, isIface := s.Recv().Underlying().(*types.Interface); isIface {
				return nil
			}
			if f, ok := s.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f // package-qualified call
		}
	}
	return nil
}

// capturesOuter reports whether the closure references variables declared
// outside its own body (parameters and locals live inside [Pos,End)).
func capturesOuter(info *types.Info, fl *ast.FuncLit) bool {
	found := false
	ast.Inspect(fl, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Pkg() == nil {
			return true
		}
		if v.Parent() == v.Pkg().Scope() {
			return true // package-level, not captured
		}
		if v.Pos() < fl.Pos() || v.Pos() >= fl.End() {
			found = true
		}
		return true
	})
	return found
}
