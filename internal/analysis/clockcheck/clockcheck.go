// Package clockcheck defines the fmmvet analyzer that keeps Clock-injected
// packages off the raw wall clock.
//
// internal/batch runs its entire QoS layer — deadline expiry, lane aging,
// admission estimates — on an injectable Clock so tests are
// deterministic state machines instead of sleeps. One careless time.Now in a
// helper quietly re-introduces wall-clock flakiness and splits the time base
// between the fake and the real clock. Packages opt in with a
// //fastmm:clocked comment; inside them, calls into package time that read
// or schedule on the wall clock are violations unless the call site or its
// enclosing function carries //fastmm:wallclock (the production Clock
// implementation itself, gemm's leaf timing, the STREAM benchmark whose
// measured wall time is the output).
package clockcheck

import (
	"go/ast"
	"go/types"

	"fastmm/internal/analysis/directive"
	"fastmm/internal/analysis/framework"
)

// wallFuncs are the package-time entry points that read or schedule on the
// wall clock. Pure constructors/converters (time.Duration arithmetic,
// time.Unix, time.Date) are fine — they don't touch the clock.
var wallFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
	"Since":     true,
	"Until":     true,
}

var Analyzer = &framework.Analyzer{
	Name: "clockcheck",
	Doc:  "in //fastmm:clocked packages, route time through the injected Clock, not package time",
	Run:  run,
}

func run(pass *framework.Pass) error {
	idx := directive.Parse(pass.Fset, pass.Files)
	if !idx.PkgHas(directive.Clocked) {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			enclosing, _ := decl.(*ast.FuncDecl)
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !wallFuncs[sel.Sel.Name] {
					return true
				}
				obj := pass.TypesInfo.Uses[sel.Sel]
				fn, ok := obj.(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
					return true
				}
				// Methods like (time.Time).After share names with the
				// package-level clock readers but are pure arithmetic.
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					return true
				}
				if idx.LineHas(directive.WallClock, call.Pos()) || idx.LineHas(directive.Allow, call.Pos()) {
					return true
				}
				if directive.FuncHas(directive.WallClock, enclosing) {
					return true
				}
				pass.Reportf(call.Pos(), "time.%s in a //fastmm:clocked package: use the injected Clock (or annotate //fastmm:wallclock with a reason)", sel.Sel.Name)
				return true
			})
		}
	}
	return nil
}
