// Package archtest checks the design's structural rules over the source
// tree with go/parser, so tier-1 (go test ./...) enforces them.
package archtest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// backgroundLoops are the only functions in the family packages that may
// start a goroutine: each starts a loop its value's Close stops and waits
// for. A multi-partition round is a family.Fan, never a go statement of its
// own.
var backgroundLoops = map[string]bool{
	"core.(*replicator).start": true, // one replication stream per remote DC
	"core.(*Server).Start":     true, // the version-vector report loop
	"core.(*Stabilizer).Start": true, // the stabilizer's loop
}

// TestNoPerRequestGoroutines: no go statement in the non-test files of core,
// cclo and cops outside backgroundLoops.
func TestNoPerRequestGoroutines(t *testing.T) {
	var found []string
	for _, pkg := range []string{"core", "cclo", "cops"} {
		dir := filepath.Join("..", pkg)
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatalf("no Go files in %s", dir)
		}
		fset := token.NewFileSet()
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				name := pkg + "." + funcName(fn)
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					if g, ok := n.(*ast.GoStmt); ok && !backgroundLoops[name] {
						found = append(found, fset.Position(g.Pos()).String()+" in "+name)
					}
					return true
				})
			}
		}
	}
	sort.Strings(found)
	for _, f := range found {
		t.Errorf("go statement at %s: run a multi-partition round with family.Fan", f)
	}
}

// funcName renders fn as "F", "(T).M" or "(*T).M".
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	star := ""
	if s, ok := typ.(*ast.StarExpr); ok {
		star, typ = "*", s.X
	}
	return "(" + star + types.ExprString(typ) + ")." + fn.Name.Name
}
