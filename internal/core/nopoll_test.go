package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRuntimeWaitsOnEvents keeps the package's runtime free of
// sleep-polls: every wait blocks on the event that ends it, and a timer
// serves only as a timeout. It parses the package's non-test files and
// fails on any call to time.Sleep, time.NewTicker, time.Tick or
// time.After outside the two named exemptions: the simulated
// straggler's sleep (the slowdown it models is a sleep) and the
// multi-process progress report, which is periodic by design.
func TestRuntimeWaitsOnEvents(t *testing.T) {
	polls := map[string]bool{"Sleep": true, "NewTicker": true, "Tick": true, "After": true}
	exempt := map[string]string{"runWorkerOf": "Sleep", "controlLoop": "NewTicker"}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "time" || !polls[sel.Sel.Name] {
					return true
				}
				if exempt[fn.Name.Name] == sel.Sel.Name {
					used[fn.Name.Name] = true
					return true
				}
				t.Errorf("%s: %s calls time.%s: wait on the event instead (a timer only for a timeout)",
					fset.Position(call.Pos()), fn.Name.Name, sel.Sel.Name)
				return true
			})
		}
	}
	for fn, call := range exempt {
		if !used[fn] {
			t.Errorf("exemption %s (time.%s) no longer matches a call: drop it", fn, call)
		}
	}
}
