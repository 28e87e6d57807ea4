package relstore

import (
	"fmt"
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

// indexReads are the calls that read a secondary index by name.
var indexReads = map[string]bool{"IndexScanCtx": true, "IndexKeysCtx": true, "IndexGetBatchCtx": true}

// TestEveryIndexHasAReader: every secondary index the program declares — an
// Index{Name: …} literal in a non-test file of the repository — is read by
// the program: its name is passed to an index read inside a function that
// non-test code calls. An index nothing reads still costs every Put and Delete
// a root-to-leaf path and every bulk load a sorted run. The scan is by name
// (stdlib go/parser only), so an index read under a name that is not a string
// literal, or from a function literal outside any declared function, counts
// for nothing.
func TestEveryIndexHasAReader(t *testing.T) {
	const root = "../.."
	fset := token.NewFileSet()
	declared := map[string]string{}  // index name -> where it is declared
	readers := map[string][]string{} // index name -> functions that read it
	named := map[string]bool{}       // identifiers used other than as a declared function's name
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, _ := decl.(*ast.FuncDecl)
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if fn == nil || n != fn.Name {
						named[n.Name] = true
					}
				case *ast.CompositeLit:
					for _, lit := range indexLits(f.Name.Name, n) {
						if name, ok := fieldString(lit, "Name"); ok {
							declared[name] = fset.Position(lit.Pos()).String()
						}
					}
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok || !indexReads[sel.Sel.Name] || fn == nil {
						break
					}
					for _, arg := range n.Args {
						if name, ok := stringLit(arg); ok {
							readers[name] = append(readers[name], fn.Name.Name)
						}
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 {
		t.Fatal("found no index declarations: the scan is broken")
	}
	var unread []string
	for name, where := range declared {
		called := false
		for _, fn := range readers[name] {
			called = called || named[fn]
		}
		if !called {
			unread = append(unread, fmt.Sprintf("%s (declared at %s; read in %v)", name, where, readers[name]))
		}
	}
	sort.Strings(unread)
	if len(unread) > 0 {
		t.Fatalf("indexes no called function reads:\n%s", strings.Join(unread, "\n"))
	}
}

// indexLits returns the Index literals lit, in a file of package pkg, is or
// holds: Index{…} itself, or the elements of []Index{…} written without their
// type.
func indexLits(pkg string, lit *ast.CompositeLit) []*ast.CompositeLit {
	if isIndexType(pkg, lit.Type) {
		return []*ast.CompositeLit{lit}
	}
	arr, ok := lit.Type.(*ast.ArrayType)
	if !ok || !isIndexType(pkg, arr.Elt) {
		return nil
	}
	var out []*ast.CompositeLit
	for _, el := range lit.Elts {
		if el, ok := el.(*ast.CompositeLit); ok && el.Type == nil {
			out = append(out, el)
		}
	}
	return out
}

// isIndexType reports whether expr, in a file of package pkg, names relstore's
// Index type.
func isIndexType(pkg string, expr ast.Expr) bool {
	switch e := expr.(type) {
	case *ast.Ident:
		return pkg == "relstore" && e.Name == "Index"
	case *ast.SelectorExpr:
		pkg, ok := e.X.(*ast.Ident)
		return ok && pkg.Name == "relstore" && e.Sel.Name == "Index"
	}
	return false
}

// fieldString returns the string literal given to the named field of lit.
func fieldString(lit *ast.CompositeLit, field string) (string, bool) {
	for _, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == field {
				return stringLit(kv.Value)
			}
		}
	}
	return "", false
}

func stringLit(expr ast.Expr) (string, bool) {
	lit, ok := expr.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}
