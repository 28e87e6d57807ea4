package crimson_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// maxInternalExports caps the exported names (top-level funcs, types, vars
// and consts plus exported methods) of the non-test files under internal/.
const maxInternalExports = 600

// stdlibMethods are the exported methods that need no caller in another
// directory because they satisfy a standard-library interface. Key:
// package directory under internal/, type and method.
var stdlibMethods = map[string]string{
	"internal/server.startedWriter.WriteHeader": "http.ResponseWriter",
	"internal/server.startedWriter.Unwrap":      "http.ResponseController reaches the wrapped writer's Flush through it",
}

// goFile is one parsed .go file of the module tree.
type goFile struct {
	dir  string // slash-separated, relative to the repo root
	test bool
	ast  *ast.File
}

// parseTree parses every .go file under the repo root: the module, its
// tests, examples/, cmd/ and perfbench/ (its own module over this one).
func parseTree(t *testing.T) []goFile {
	t.Helper()
	var files []goFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, goFile{
			dir:  filepath.ToSlash(filepath.Dir(path)),
			test: strings.HasSuffix(path, "_test.go"),
			ast:  f,
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestInternalExportsHaveCallers: an exported name under internal/ is
// there because another directory uses it. Every exported top-level
// name is selected as <import>.Name from another directory; every
// exported method is selected by name from another directory or
// satisfies a standard-library interface (stdlibMethods); every
// unexported top-level func has a caller in its own package's non-test
// files; and the exported names number at most maxInternalExports.
func TestInternalExportsHaveCallers(t *testing.T) {
	files := parseTree(t)

	qualified := map[string]bool{}        // "internal/x.Name" selected from outside internal/x
	selectedFrom := map[string][]string{} // selector name -> directories that select it
	for _, f := range files {
		imports := map[string]string{} // local name -> directory under the repo
		for _, spec := range f.ast.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			dir, ok := strings.CutPrefix(path, "repro/")
			if !ok || !strings.HasPrefix(dir, "internal/") {
				continue
			}
			name := dir[strings.LastIndex(dir, "/")+1:]
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = dir
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			selectedFrom[sel.Sel.Name] = append(selectedFrom[sel.Sel.Name], f.dir)
			if x, ok := sel.X.(*ast.Ident); ok {
				if dir, ok := imports[x.Name]; ok && dir != f.dir {
					qualified[dir+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	selectedOutside := func(name, dir string) bool {
		for _, d := range selectedFrom[name] {
			if d != dir {
				return true
			}
		}
		return false
	}

	count := 0
	var uncalled []string
	calledInPackage := map[string]map[string]bool{} // dir -> unexported funcs referenced by another decl
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, decl := range f.ast.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				count++
				if d.Recv == nil {
					if !qualified[f.dir+"."+d.Name.Name] {
						uncalled = append(uncalled, f.dir+"."+d.Name.Name)
					}
					continue
				}
				method := f.dir + "." + recvType(d) + "." + d.Name.Name
				if _, ok := stdlibMethods[method]; !ok && !selectedOutside(d.Name.Name, f.dir) {
					uncalled = append(uncalled, method)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					var names []*ast.Ident
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						names = s.Names
					}
					for _, id := range names {
						if !id.IsExported() {
							continue
						}
						count++
						if !qualified[f.dir+"."+id.Name] {
							uncalled = append(uncalled, f.dir+"."+id.Name)
						}
					}
				}
			}
		}
		refs := calledInPackage[f.dir]
		if refs == nil {
			refs = map[string]bool{}
			calledInPackage[f.dir] = refs
		}
		for _, decl := range f.ast.Decls {
			self := ""
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				self = fd.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool { return visitIdent(n, self, refs) })
		}
	}
	var unreferenced []string
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, decl := range f.ast.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Name.IsExported() || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			if !calledInPackage[f.dir][fd.Name.Name] {
				unreferenced = append(unreferenced, f.dir+"."+fd.Name.Name)
			}
		}
	}

	t.Logf("%d exported names in internal/ (ceiling %d)", count, maxInternalExports)
	sort.Strings(uncalled)
	sort.Strings(unreferenced)
	if len(uncalled) > 0 {
		t.Errorf("%d exported names have no caller in another directory (delete or unexport them):\n%s",
			len(uncalled), strings.Join(uncalled, "\n"))
	}
	if len(unreferenced) > 0 {
		t.Errorf("%d unexported funcs have no caller in their package's non-test files (delete them, or move them into a _test.go file):\n%s",
			len(unreferenced), strings.Join(unreferenced, "\n"))
	}
	if count > maxInternalExports {
		t.Errorf("%d exported names in internal/, above the ceiling of %d", count, maxInternalExports)
	}
}

// visitIdent records an identifier as a reference unless it names the
// func being walked (recursion is not a caller). A declared func or
// method name and the name a selector picks are not references to a
// top-level func of the package.
func visitIdent(n ast.Node, self string, refs map[string]bool) bool {
	visit := func(n ast.Node) bool { return visitIdent(n, self, refs) }
	switch x := n.(type) {
	case *ast.FuncDecl:
		if x.Recv != nil {
			ast.Inspect(x.Recv, visit)
		}
		ast.Inspect(x.Type, visit)
		if x.Body != nil {
			ast.Inspect(x.Body, visit)
		}
		return false
	case *ast.SelectorExpr:
		ast.Inspect(x.X, visit)
		return false
	case *ast.Ident:
		if x.Name != self {
			refs[x.Name] = true
		}
	}
	return true
}

// recvType names a method's receiver type, without pointer or type
// parameters.
func recvType(d *ast.FuncDecl) string {
	x := d.Recv.List[0].Type
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.Ident:
			return t.Name
		default:
			return "?"
		}
	}
}
