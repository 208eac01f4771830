// Package framework is the in-tree skeleton under nomadlint's
// analyzers: the Analyzer/Pass/Diagnostic trio of
// golang.org/x/tools/go/analysis, reduced to what this module needs
// and built purely on the standard library (go/ast, go/types and the
// gc export-data importer), so the lint suite carries no dependency
// the toolchain does not already ship.
//
// It deliberately mirrors the upstream API shape — an Analyzer has a
// Name, a Doc and a Run(*Pass) error — so the analyzers port to the
// real framework mechanically if x/tools ever enters the module. The
// one structural difference is scope: a Pass here sees every package
// under analysis at once (Pass.Pkgs), because the invariants nomadlint
// enforces are module-wide (a field written atomically in
// internal/core and read plainly in internal/train is exactly the bug
// atomicmix exists for), and the upstream Facts machinery would be the
// heaviest part of the framework to reimplement for no extra power at
// this module's size.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one invariant checker: a name for diagnostics
// and -run filters, documentation, and the Run function applied to a
// fully loaded and type-checked set of packages.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Package is one loaded, type-checked package.
type Package struct {
	// ImportPath is the canonical import path ("nomad/internal/queue").
	ImportPath string
	// Dir is the directory holding the package's sources.
	Dir string
	// InModule reports whether the package belongs to the module under
	// analysis (true for everything nomadlint loads; false for
	// analysistest fixtures, which live in a testdata tree). noallochot
	// uses it to decide how to obtain compiler escape output.
	InModule bool
	Fset     *token.FileSet
	Files    []*ast.File
	Types    *types.Package
	Info     *types.Info
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string // filled in by the driver
}

// Pass carries the loaded packages and the report sink into an
// analyzer's Run.
type Pass struct {
	Fset *token.FileSet
	// Pkgs are the packages under analysis (module-wide; dependencies
	// outside the analyzed set appear only through type information).
	Pkgs []*Package

	report func(Diagnostic)
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Run applies each analyzer to the loaded packages and returns every
// diagnostic, sorted by position then analyzer name. An analyzer
// returning an error aborts the run: analyzer errors are broken
// tooling, not findings, and must not be mistaken for a clean pass.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Fset: fset,
			Pkgs: pkgs,
			report: func(d Diagnostic) {
				d.Analyzer = a.Name
				diags = append(diags, d)
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// NewInfo returns a types.Info with every map the analyzers consult
// allocated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}
