// Package noallochot verifies the zero-alloc claims of NOMAD's hot
// paths against the compiler's own escape analysis. A function whose
// doc comment carries
//
//	//nomad:noalloc
//
// is asserting the PR 5 steady-state discipline: no heap allocation
// per call once buffers are warm. The analyzer replays
// `go build -gcflags=-m=2` for the package (served from the build cache
// on a warm tree) and reports every "escapes to heap" / "moved to
// heap" site the compiler attributes to a line inside a marked
// function. Deliberate allocations — pool misses, one-time arena
// growth, error paths — are waived per statement with
//
//	//nomad:alloc-ok <why>
//
// A generic body is compiled only where it is instantiated, so a
// marked generic function or method that its own package never
// instantiates has no output to check. The build runs at -m=2, whose
// inlining verdict ("can inline" / "cannot inline") names every
// function the compile built, and a marked generic declaration with no
// verdict is reported as unchecked: instantiate it in the package, in
// a blank `var _ =` if nothing else does.
//
// What -m cannot see, this checker cannot either: growth inside a
// plain `append(s, x)` is an amortized runtime reallocation, not a
// compiler-visible allocation site, so it passes — which matches the
// discipline being enforced (steady-state zero-alloc with warm
// buffers), not a stricter never-allocates claim. Conversely,
// allocation sites inlined from another package (slices.Grow's make,
// fmt.Errorf's boxing) ARE attributed to the calling line and need a
// waiver.
package noallochot

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"nomad/internal/analysis/directive"
	"nomad/internal/analysis/framework"
)

// Analyzer is the noallochot pass.
var Analyzer = &framework.Analyzer{
	Name: "noallochot",
	Doc:  "check //nomad:noalloc functions against go build -gcflags=-m=2 escape analysis",
	Run:  run,
}

// escapeLine matches the two -m diagnostics that are real heap
// allocations; inline reports and parameter-leak notes are noise. At
// -m=2 each is also preceded by an explanation whose head ends in a
// colon; run skips those, which leaves exactly the -m verdicts.
var escapeLine = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*(?:escapes to heap|moved to heap).*)$`)

// inlineVerdict matches the -m=2 line the compiler prints for every
// function it compiled, inlinable or not, at the declaration's line.
var inlineVerdict = regexp.MustCompile(`^(.+\.go):(\d+):\d+: (?:can|cannot) inline `)

// constStringEscape matches a string literal escaping on its own —
// the compiler's note for boxing a constant into an interface, as in
// panic("vecmath: Dot length mismatch"). The interface data points at
// a read-only static string, so no per-call allocation happens and
// bounds-check panics stay legal in noalloc kernels. A concatenation
// ("prefix: " + err escapes to heap) does not match and still flags.
var constStringEscape = regexp.MustCompile(`^"(?:[^"\\]|\\.)*" escapes to heap$`)

// markedFn is a //nomad:noalloc function's line span in one file.
type markedFn struct {
	name       string
	start, end int
	generic    token.Pos // the name of a generic function or method; NoPos otherwise
	compiled   bool      // the compile printed an inlining verdict at start
}

func run(pass *framework.Pass) error {
	for _, pkg := range pass.Pkgs {
		// Marked functions per file basename; skip the compiler run
		// entirely for packages that claim nothing.
		marked := make(map[string][]markedFn)
		files := make(map[string]*ast.File)
		total := 0
		for _, f := range pkg.Files {
			base := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
			files[base] = f
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if _, ok := directive.FuncMark(fd); !ok {
					continue
				}
				mf := markedFn{
					name:  fd.Name.Name,
					start: pass.Fset.Position(fd.Pos()).Line,
					end:   pass.Fset.Position(fd.End()).Line,
				}
				if isGeneric(fd) {
					mf.generic = fd.Name.Pos()
				}
				marked[base] = append(marked[base], mf)
				total++
			}
		}
		if total == 0 {
			continue
		}

		out, err := escapeOutput(pkg)
		if err != nil {
			return fmt.Errorf("noallochot: escape analysis of %s: %w", pkg.ImportPath, err)
		}
		indexes := make(map[string]*directive.Index)
		for _, line := range strings.Split(out, "\n") {
			if v := inlineVerdict.FindStringSubmatch(line); v != nil {
				lineNo, _ := strconv.Atoi(v[2])
				fns := marked[filepath.Base(v[1])]
				for i := range fns {
					if fns[i].start == lineNo {
						fns[i].compiled = true
					}
				}
				continue
			}
			if strings.HasSuffix(line, ":") {
				continue // an -m=2 explanation; its verdict follows
			}
			m := escapeLine.FindStringSubmatch(line)
			if m == nil || constStringEscape.MatchString(m[4]) {
				continue
			}
			base := filepath.Base(m[1])
			lineNo, _ := strconv.Atoi(m[2])
			col, _ := strconv.Atoi(m[3])
			f, ok := files[base]
			if !ok {
				continue
			}
			var fn *markedFn
			for i := range marked[base] {
				if mf := &marked[base][i]; lineNo >= mf.start && lineNo <= mf.end {
					fn = mf
					break
				}
			}
			if fn == nil {
				continue
			}
			pos := posAt(pass.Fset, f, lineNo, col)
			idx, ok := indexes[base]
			if !ok {
				idx = directive.NewIndex(pass.Fset, f)
				indexes[base] = idx
			}
			if _, ok := idx.Covered(directive.AllocOK, pos); ok {
				continue
			}
			pass.Reportf(pos, "%s inside //nomad:noalloc function %s; hoist the allocation or waive it with //nomad:alloc-ok <why>",
				m[4], fn.name)
		}
		for _, fns := range marked {
			for _, mf := range fns {
				if mf.generic.IsValid() && !mf.compiled {
					pass.Reportf(mf.generic, "//nomad:noalloc generic function %s is never instantiated in its package, so its claim goes unchecked; instantiate it in a blank var _ =", mf.name)
				}
			}
		}
	}
	return nil
}

// isGeneric reports whether fd declares type parameters, itself or
// through its receiver's type.
func isGeneric(fd *ast.FuncDecl) bool {
	if fd.Type.TypeParams != nil {
		return true
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	recv := fd.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	switch recv.(type) {
	case *ast.IndexExpr, *ast.IndexListExpr:
		return true
	}
	return false
}

// posAt converts a compiler file:line:col back into a token.Pos in f.
func posAt(fset *token.FileSet, f *ast.File, line, col int) token.Pos {
	tf := fset.File(f.Pos())
	if tf == nil || line < 1 || line > tf.LineCount() {
		return f.Pos()
	}
	p := tf.LineStart(line) + token.Pos(col-1)
	if p < tf.LineStart(line) || int(p) >= tf.Base()+tf.Size() {
		return tf.LineStart(line)
	}
	return p
}

// escapeOutput obtains the compiler's -m=2 output for pkg. Module
// packages are built in place, flags scoped to the one package so
// dependency noise is excluded. Out-of-module fixture packages are
// copied into a throwaway module first: `go build` refuses ad-hoc
// directories, and fixtures are plain directories under testdata.
func escapeOutput(pkg *framework.Package) (string, error) {
	if pkg.InModule {
		cmd := exec.Command("go", "build", "-gcflags="+pkg.ImportPath+"=-m=2", pkg.ImportPath)
		cmd.Dir = pkg.Dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			return "", fmt.Errorf("go build -gcflags=-m=2: %v\n%s", err, out)
		}
		return string(out), nil
	}

	tmp, err := os.MkdirTemp("", "noallochot-*")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp)
	entries, err := os.ReadDir(pkg.Dir)
	if err != nil {
		return "", err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(pkg.Dir, e.Name()))
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(filepath.Join(tmp, e.Name()), src, 0o644); err != nil {
			return "", err
		}
	}
	if err := os.WriteFile(filepath.Join(tmp, "go.mod"), []byte("module noallocfixture\n\ngo 1.24\n"), 0o644); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-gcflags=-m=2", ".")
	cmd.Dir = tmp
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go build -gcflags=-m=2 (fixture copy): %v\n%s", err, out)
	}
	return string(out), nil
}
