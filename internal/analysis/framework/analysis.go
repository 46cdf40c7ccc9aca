// Package framework is a dependency-free re-implementation of the core of
// golang.org/x/tools/go/analysis, sized for this repository's own vet suite
// (cmd/fmmvet). The build environment bakes in only the Go toolchain — no
// module proxy — so the suite cannot depend on x/tools; everything here is
// built from go/ast, go/types, and the go command's -json output.
//
// The shape mirrors the real framework on purpose: an Analyzer is a named
// Run function over a Pass, a Pass is one package's syntax plus type
// information, and diagnostics are (position, message) pairs. Two deliberate
// departures:
//
//   - A Pass carries the whole loaded Program, not just the one package.
//     The repository's invariants are cross-package by nature (a
//     //fastmm:zeroalloc function in internal/core calls into
//     internal/workspace and internal/gemm; a field written atomically in
//     one package may be read plainly in another), and the real framework's
//     Facts machinery is the heavyweight answer to exactly this. With the
//     whole program in hand, analyzers compute module-wide state once
//     (Program.Cached) and report per package.
//
//   - There are no analyzer flags or fact serialization. The vettool mode of
//     cmd/fmmvet analyzes one package at a time with types-only dependencies
//     and simply sees a single-package Program.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
)

// Analyzer is one named static check.
type Analyzer struct {
	// Name is the analyzer's identifier, appended to its diagnostics.
	Name string
	// Doc is the one-paragraph description printed by fmmvet help.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass is one analyzer's view of one package under analysis.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files is the package's parsed syntax (non-test files only).
	Files []*ast.File
	// Pkg and TypesInfo are the package's type-checked form.
	Pkg       *types.Package
	TypesInfo *types.Info
	// Prog is the whole loaded program; Prog.Packages has syntax and type
	// info for every module package that was loaded (just this one in
	// vettool mode).
	Prog *Program

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Package is one loaded, type-checked package with syntax.
type Package struct {
	Path  string
	Pkg   *types.Package
	Info  *types.Info
	Files []*ast.File
}

// Program is a set of packages loaded for analysis, sharing one FileSet.
type Program struct {
	Fset *token.FileSet
	// Packages maps import path to every package loaded with syntax (the
	// module's packages; dependencies are types-only and not listed).
	Packages map[string]*Package
	// ModulePath is the main module's path ("" when unknown, e.g. fixture
	// loads — fixture packages are all treated as in-module).
	ModulePath string

	cache map[string]any
}

// Cached memoizes program-wide analyzer state: the first call under a key
// runs build and stores the result; later calls return it. The driver runs
// passes sequentially, so no locking is needed.
func (prog *Program) Cached(key string, build func() any) any {
	if v, ok := prog.cache[key]; ok {
		return v
	}
	if prog.cache == nil {
		prog.cache = map[string]any{}
	}
	v := build()
	prog.cache[key] = v
	return v
}

// generatedRe matches the conventional first-comment marker of generated
// files; diagnostics inside them are suppressed, like go vet does.
var generatedRe = regexp.MustCompile(`^// Code generated .* DO NOT EDIT\.$`)

// IsGenerated reports whether the file carries the standard generated-code
// header.
func IsGenerated(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() > f.Package {
			break
		}
		for _, c := range cg.List {
			if generatedRe.MatchString(c.Text) {
				return true
			}
		}
	}
	return false
}

// RunAnalyzers applies every analyzer to every listed package of the program
// (all of them when paths is nil) and returns the diagnostics sorted by
// position. Diagnostics in generated files are dropped.
func RunAnalyzers(prog *Program, analyzers []*Analyzer, paths []string) ([]Diagnostic, error) {
	if paths == nil {
		for p := range prog.Packages {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)
	var diags []Diagnostic
	for _, path := range paths {
		pkg := prog.Packages[path]
		if pkg == nil {
			return nil, fmt.Errorf("analysis: package %s was not loaded", path)
		}
		generated := map[*token.File]bool{}
		for _, f := range pkg.Files {
			if IsGenerated(f) {
				generated[prog.Fset.File(f.Pos())] = true
			}
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      prog.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Pkg,
				TypesInfo: pkg.Info,
				Prog:      prog,
				report: func(d Diagnostic) {
					if d.Pos.IsValid() && generated[prog.Fset.File(d.Pos)] {
						return
					}
					diags = append(diags, d)
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := prog.Fset.Position(diags[i].Pos), prog.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return diags[i].Message < diags[j].Message
	})
	return diags, nil
}

// NewInfo returns a types.Info with every map allocated — the loader and the
// fixture runner both need full use/def/selection information.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}
