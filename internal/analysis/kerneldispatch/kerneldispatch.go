// Package kerneldispatch protects the PR 6 dispatch seam: every
// SGD/eval call site must obtain its arithmetic through the functions
// that consult the SIMD/portable dispatch — vecmath.KernelOf /
// KernelFor / DotKernelOf / DotKernel / DotRowsKernel /
// DotGatherKernel — and never invoke the scalar reference kernels
// directly. A direct vecmath.Dot in an eval loop silently pins that
// path to scalar code on every machine and escapes the dispatch switch
// (NOMAD_NO_SIMD, SetSIMD), which is how a 1.5× SIMD win quietly rots.
// Each reference kernel is one generic body over both precisions, so
// its one name covers a float64 and a float32 call alike.
//
// Both calling and capturing a kernel as a value
// (`dot := vecmath.Dot[float64]`) are flagged; vecmath itself is exempt
// (it IS the dispatcher), and deliberate direct use — a cold path that
// wants the reference scalar on purpose — is annotated
//
//	//nomad:direct-kernel <why>
package kerneldispatch

import (
	"go/ast"
	"go/types"

	"nomad/internal/analysis/directive"
	"nomad/internal/analysis/framework"
)

// Analyzer is the kerneldispatch pass.
var Analyzer = &framework.Analyzer{
	Name: "kerneldispatch",
	Doc:  "route SGD/eval arithmetic through KernelOf/DotKernelOf instead of direct scalar kernels",
	Run:  run,
}

// vecmathPath is the dispatcher package. Fixtures stub it under the
// same import path.
const vecmathPath = "nomad/internal/vecmath"

// directKernels are the width-agnostic scalar kernels the dispatch
// seam wraps, each one generic body for both precisions. Everything
// else vecmath exports (Axpy, CholeskySolve, Norm2Sq, the batch-solver
// linear algebra) is general vector math with no dispatched
// counterpart and stays fair game.
var directKernels = map[string]bool{
	"Dot":           true,
	"DotUnrolled":   true,
	"SGDUpdate":     true,
	"SGDUpdateGrad": true,
	"FusedSGDStep":  true,
}

func run(pass *framework.Pass) error {
	for _, pkg := range pass.Pkgs {
		if pkg.Types.Path() == vecmathPath {
			continue // the dispatcher's own internals
		}
		for _, f := range pkg.Files {
			idx := directive.NewIndex(pass.Fset, f)
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := pkg.Info.Uses[id].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != vecmathPath || !directKernels[fn.Name()] {
					return true
				}
				if _, ok := idx.Covered(directive.DirectKernel, id.Pos()); ok {
					return true
				}
				pass.Reportf(id.Pos(),
					"direct use of vecmath.%s bypasses the kernel dispatch; route through vecmath.KernelOf/DotKernelOf (or annotate //nomad:direct-kernel)",
					fn.Name())
				return true
			})
		}
	}
	return nil
}
