// Package archtest checks the design's rules over the source tree, so
// tier-1 (go test ./...) enforces them: bannedWords matches forms the design
// has removed line by line, as grep would, and the structural rules below
// read the parsed source with go/parser.
package archtest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// repoRoot is the repository root, relative to this package's directory.
var repoRoot = filepath.Join("..", "..")

// module is the main module's path, as go.mod declares it.
const module = "repro"

// source is one parsed non-test Go file of the main module.
type source struct {
	dir  string // package directory, slash-separated from the repository root; "." for the root
	name string // file name
	file *ast.File
}

// parseModule parses every non-test Go file of the main module. Directories
// that hold a module of their own, and those the go tool ignores, are left
// out.
func parseModule(t *testing.T) (*token.FileSet, []source) {
	t.Helper()
	fset := token.NewFileSet()
	var out []source
	err := filepath.WalkDir(repoRoot, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == repoRoot {
				return nil
			}
			if n := d.Name(); n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(repoRoot, filepath.Dir(p))
		if err != nil {
			return err
		}
		out = append(out, source{dir: filepath.ToSlash(rel), name: d.Name(), file: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no Go files under the repository root")
	}
	return fset, out
}

// importPath returns the path spec imports.
func importPath(spec *ast.ImportSpec) string {
	p, _ := strconv.Unquote(spec.Path.Value)
	return p
}

// importName returns the name f refers to the package at path by, or ""
// when f does not import it.
func importName(f *ast.File, path string) string {
	for _, s := range f.Imports {
		if importPath(s) == path {
			if s.Name != nil {
				return s.Name.Name
			}
			return path[strings.LastIndex(path, "/")+1:]
		}
	}
	return ""
}

// layers places each package of the main module by directory: a package
// imports only packages in lower layers, so two packages of one layer
// never import each other. Every command and example is in layer 7.
var layers = map[string]int{
	"internal/vclock": 0, "internal/hlc": 0, "internal/ring": 0, "internal/metrics": 0, "internal/theory": 0, "internal/check": 0,
	"internal/wire": 1, "internal/store": 1, "internal/workload": 1, "internal/obs": 1,
	"internal/wal": 2, "internal/transport": 2, "internal/mvstore": 2,
	"internal/family": 3,
	"internal/core":   4, "internal/cclo": 4, "internal/cops": 4,
	"internal/cluster": 5,
	"internal/bench":   6, ".": 6,
}

// layerOf returns the layer of the package in dir.
func layerOf(dir string) (int, bool) {
	if l, ok := layers[dir]; ok {
		return l, true
	}
	if p := path.Dir(dir); p == "cmd" || p == "examples" {
		return 7, true
	}
	return 0, false
}

// TestImportLayers: every non-test file imports only packages of the module
// in lower layers than its own.
func TestImportLayers(t *testing.T) {
	fset, srcs := parseModule(t)
	for _, s := range srcs {
		from, ok := layerOf(s.dir)
		if !ok {
			t.Errorf("package %s has no layer: place it in layers", s.dir)
			continue
		}
		for _, spec := range s.file.Imports {
			imp := importPath(spec)
			dir, ok := strings.CutPrefix(imp, module+"/")
			if imp == module {
				dir, ok = ".", true
			}
			if !ok {
				continue
			}
			if to, known := layerOf(dir); !known || to >= from {
				t.Errorf("%s: %s (layer %d) imports %s (layer %d): a package imports only lower layers",
					fset.Position(spec.Pos()), s.dir, from, dir, to)
			}
		}
	}
}

// familyImporters are the only non-test files outside core, cclo and cops
// that import them: the cluster's family table and its Contrarian
// stabilizer, and the figure harness.
var familyImporters = []string{
	"internal/cluster/cluster.go",
	"internal/cluster/family.go",
	"internal/bench/bench.go",
	"internal/bench/ablation.go",
}

// TestFamilyImporters: outside core, cclo and cops, only familyImporters
// import them; the commands and the root package reach the families through
// internal/cluster.
func TestFamilyImporters(t *testing.T) {
	families := []string{module + "/internal/core", module + "/internal/cclo", module + "/internal/cops"}
	fset, srcs := parseModule(t)
	for _, s := range srcs {
		if slices.Contains(families, module+"/"+s.dir) || slices.Contains(familyImporters, s.dir+"/"+s.name) {
			continue
		}
		for _, spec := range s.file.Imports {
			if imp := importPath(spec); slices.Contains(families, imp) {
				t.Errorf("%s imports %s: only %v may", fset.Position(spec.Pos()), imp, familyImporters)
			}
		}
	}
}

// TestEnvelopeLiterals: among the non-test files of internal/transport,
// only endpoint.go builds a wire.Envelope; the carriers take the envelopes
// it builds.
func TestEnvelopeLiterals(t *testing.T) {
	fset, srcs := parseModule(t)
	seen := false
	for _, s := range srcs {
		if s.dir != "internal/transport" {
			continue
		}
		seen = true
		name := importName(s.file, module+"/internal/wire")
		if s.name == "endpoint.go" || name == "" {
			continue
		}
		ast.Inspect(s.file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.CompositeLit); ok && lit.Type != nil && mentions(lit.Type, name, "Envelope") {
				t.Errorf("%s: %s builds a wire.Envelope; only endpoint.go does", fset.Position(lit.Pos()), s.name)
			}
			return true
		})
	}
	if !seen {
		t.Fatal("no non-test files in internal/transport")
	}
}

// mentions reports whether the type expression typ names pkg.sel.
func mentions(typ ast.Expr, pkg, sel string) bool {
	found := false
	ast.Inspect(typ, func(n ast.Node) bool {
		if s, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := s.X.(*ast.Ident); ok && x.Name == pkg && s.Sel.Name == sel {
				found = true
			}
		}
		return !found
	})
	return found
}

// goStatements says, per package directory, which non-test files may hold
// go statements only in the listed functions (nil files: every non-test
// file of the package). Each listed function starts a loop its value's
// Close stops and waits for. A family runs a multi-partition round with
// family.Fan, never a go statement of its own, and a carrier hands each
// inbound request to endpoint.spawn.
var goStatements = map[string]struct {
	files []string
	loops map[string]string // function → the loop it starts
}{
	"internal/core": {nil, map[string]string{
		"(*Server).Start":     "the version-vector report loop",
		"(*Stabilizer).Start": "the stabilizer's loop",
	}},
	"internal/cclo": {},
	"internal/cops": {},
	"internal/transport": {[]string{"local.go", "tcp.go"}, map[string]string{
		"NewLocal":             "the delivery wheels",
		"(*TCP).attach":        "a listening node's accept loop",
		"(*tcpNode).startConn": "a connection's read and write loops",
		"(*tcpNode).getConn":   "the watcher that aborts a dial when the node closes",
	}},
}

// TestNoPerRequestGoroutines: no go statement in the files goStatements
// covers outside the functions it lists.
func TestNoPerRequestGoroutines(t *testing.T) {
	fset, srcs := parseModule(t)
	checked := map[string]int{}
	var found []string
	for _, s := range srcs {
		rule, ok := goStatements[s.dir]
		if !ok || rule.files != nil && !slices.Contains(rule.files, s.name) {
			continue
		}
		checked[s.dir]++
		for _, decl := range s.file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			name := funcName(fn)
			if _, ok := rule.loops[name]; ok {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					found = append(found, fset.Position(g.Pos()).String()+" in "+s.dir+"."+name)
				}
				return true
			})
		}
	}
	for dir, rule := range goStatements {
		if want := max(len(rule.files), 1); checked[dir] < want {
			t.Errorf("%s: %d of the files goStatements names parsed, want at least %d", dir, checked[dir], want)
		}
	}
	sort.Strings(found)
	for _, f := range found {
		t.Errorf("go statement at %s: run a multi-partition round with family.Fan and an inbound request with endpoint.spawn", f)
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

// maxServerFlags bounds cmd/kvserver's flags; a new one edits this number
// in review.
const maxServerFlags = 15

// flagRegistrations are the flag package's functions that each register
// one flag on the command line.
var flagRegistrations = []string{
	"Bool", "BoolFunc", "BoolVar", "Duration", "DurationVar", "Float64", "Float64Var", "Func",
	"Int", "Int64", "Int64Var", "IntVar", "String", "StringVar", "TextVar",
	"Uint", "Uint64", "Uint64Var", "UintVar", "Var",
}

// TestServerFlags: cmd/kvserver registers at most maxServerFlags flags, each
// with one call on the flag package; a flag set of its own, or the command
// line reached directly, would register flags this count cannot see.
func TestServerFlags(t *testing.T) {
	fset, srcs := parseModule(t)
	n, files := 0, 0
	for _, s := range srcs {
		if s.dir != "cmd/kvserver" {
			continue
		}
		files++
		name := importName(s.file, "flag")
		if name == "" {
			continue
		}
		ast.Inspect(s.file, func(node ast.Node) bool {
			sel, ok := node.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); !ok || x.Name != name {
				return true
			}
			switch {
			case sel.Sel.Name == "NewFlagSet" || sel.Sel.Name == "CommandLine":
				t.Errorf("%s: flag.%s: register kvserver's flags with the flag package's functions", fset.Position(sel.Pos()), sel.Sel.Name)
			case slices.Contains(flagRegistrations, sel.Sel.Name):
				n++
			}
			return true
		})
	}
	if files == 0 {
		t.Fatal("no non-test files in cmd/kvserver")
	}
	if n > maxServerFlags {
		t.Errorf("cmd/kvserver registers %d flags, more than %d", n, maxServerFlags)
	}
}
