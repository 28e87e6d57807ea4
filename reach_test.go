package crimson_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// maxInternalExports caps the exported names (top-level funcs, types, vars
// and consts plus exported methods) of the non-test files under internal/.
const maxInternalExports = 546

// layers ranks every package of the module and of perfbench/ by directory,
// lowest first. A package imports only packages of a strictly lower rank.
var layers = [][]string{
	{"internal/obs", "internal/phylo"},
	{"internal/storage", "internal/dewey", "internal/newick", "internal/project", "internal/sample", "internal/treegen", "internal/viz"},
	{"internal/relstore", "internal/core", "internal/nexus", "internal/treecmp"},
	{"internal/shard", "internal/seqsim"},
	{"internal/treestore", "internal/species", "internal/repl", "internal/distance"},
	{"internal/recon"},
	{"internal/benchmark"},
	{"internal/queryrepo"},
	{"internal/server"},
	{"."}, // the facade
	{"client"},
	{"cmd/crimson", "examples/benchmark", "examples/consensus", "examples/deeptree", "examples/quickstart", "examples/repository", "examples/server", "perfbench"},
}

// dynamicMethods are the method names the standard library looks for on a
// value at run time rather than through an interface type reachable code
// names. Such a method of a reached type is reached.
var dynamicMethods = []string{
	"Error", "String", // fmt
	"MarshalJSON", "UnmarshalJSON", // encoding/json
	"Unwrap", // errors.Is and As; http.ResponseController on a wrapped writer
}

// seams are objects no binary reaches that tests in other packages call.
// Key: directory, then the name (Type.Method for a method); value: who
// needs it.
var seams = map[string]string{
	"internal/obs.Counters.Get":          "one engine counter, read by the cost tests of storage, repl and treestore and by bench_test.go",
	"internal/obs.SpanSummary.Totals":    "a trace's counters summed, read by ledger_test.go and the span tests of server, relstore and treestore",
	"internal/project.NaiveLCA":          "the pointer-walk LCA oracle of the dewey, project and treecmp tests",
	"internal/relstore.Table.BulkInsert": "the reference load treestore's TestLoadPageFilesIdentical compares staged loads against; bench_test.go and ingest_bench_test.go time it",
	"internal/relstore.TableView.Schema": "the indexes a stored relation has, read by the schema tests of species and treestore",
	"internal/treegen.RandomAttach":      "the irregular shape among treestore's read-path test trees",
}

// TestReachableFromABinary: every func, method, type, var and const of
// the non-test files under internal/ is reachable from a binary, and the
// packages import down the layer table.
//
// The roots are the main funcs of cmd/, examples/ and perfbench/, every
// init and `var _ =`, the exported API of the facade and of client/ (with
// the exported methods of the types declared there, not of internal types
// aliased there), and the seams. The edges are what a reached declaration
// uses (types.Info.Uses, a generic instance as its origin). A method is
// also reached, RTA-style, when its type is reached and implements an
// interface that reached code names, holds or passes to a func outside the
// module, or when dynamicMethods names it. A const of an iota block is
// reached with its block. Whatever is left is deleted, moved into a
// _test.go file, or made a seam.
func TestReachableFromABinary(t *testing.T) {
	m := loadModule(t)
	checkLayers(t, m)

	r := &reach{m: m, reached: map[types.Object]bool{}, iface: map[types.Type]bool{}}
	for _, d := range m.rootDecls {
		r.walk(d)
	}
	for _, obj := range m.rootObjs {
		r.mark(obj)
	}
	r.run()
	for key := range seams {
		switch obj := m.objects[key]; {
		case obj == nil:
			t.Errorf("seam %s names nothing", key)
		case r.reached[obj]:
			t.Errorf("seam %s is reachable from a binary; take it off the seam list", key)
		default:
			r.mark(obj)
		}
	}
	r.run()
	for _, block := range m.iotaBlocks {
		if slices.ContainsFunc(block, func(c types.Object) bool { return r.reached[c] }) {
			for _, c := range block {
				r.reached[c] = true
			}
		}
	}

	var unreached []string
	exported := 0
	for key, obj := range m.objects {
		if !strings.HasPrefix(key, "internal/") {
			continue
		}
		if obj.Exported() {
			exported++
		}
		if !r.reached[obj] {
			pos := m.fset.Position(obj.Pos())
			unreached = append(unreached, fmt.Sprintf("%s (%s:%d)", key, filepath.Base(pos.Filename), pos.Line))
		}
	}
	sort.Strings(unreached)
	if len(unreached) > 0 {
		t.Errorf("%d objects under internal/ are reachable from no binary (delete them, move them into a _test.go file, or make them seams):\n%s",
			len(unreached), strings.Join(unreached, "\n"))
	}
	t.Logf("%d exported names in internal/ (ceiling %d)", exported, maxInternalExports)
	if exported > maxInternalExports {
		t.Errorf("%d exported names in internal/, above the ceiling of %d", exported, maxInternalExports)
	}
}

// decl is a top-level declaration and the type information of its package.
type decl struct {
	node ast.Node
	info *types.Info
}

// module is every package under the repo root, perfbench's included (its
// module path is repro/perfbench), type-checked from their non-test files.
type module struct {
	fset       *token.FileSet
	std        types.Importer
	pkgs       map[string]*types.Package // by directory
	objects    map[string]types.Object   // "dir.Name" or "dir.Type.Method"
	decls      map[types.Object]decl     // where each object is declared
	iotaBlocks [][]types.Object          // the consts of each iota block
	rootDecls  []decl                    // main, init and `var _ =`
	rootObjs   []types.Object            // the API of the facade and client/
}

func loadModule(t *testing.T) *module {
	t.Helper()
	// The source importer type-checks the standard library from GOROOT: no
	// export data, no network. Without cgo, net and os/user check from
	// their pure-Go files and no C compiler runs.
	build.Default.CgoEnabled = false
	m := &module{
		fset:    token.NewFileSet(),
		pkgs:    map[string]*types.Package{},
		objects: map[string]types.Object{},
		decls:   map[types.Object]decl{},
	}
	m.std = importer.ForCompiler(m.fset, "source", nil)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if bp, err := build.Default.ImportDir(path, 0); err == nil && len(bp.GoFiles) > 0 {
			_, err = m.load(filepath.ToSlash(path))
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Import resolves a path of the module to its directory and any other
// path to the standard library.
func (m *module) Import(path string) (*types.Package, error) {
	if path == "repro" {
		return m.load(".")
	}
	if dir, ok := strings.CutPrefix(path, "repro/"); ok {
		return m.load(dir)
	}
	return m.std.Import(path)
}

// load type-checks the package in dir once and indexes its declarations.
func (m *module) load(dir string) (*types.Package, error) {
	if p, ok := m.pkgs[dir]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", dir)
		}
		return p, nil
	}
	m.pkgs[dir] = nil // being loaded
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	path := "repro"
	if dir != "." {
		path += "/" + dir
	}
	p, err := (&types.Config{Importer: m}).Check(path, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	m.pkgs[dir] = p
	api := dir == "." || dir == "client"
	for _, f := range files {
		for _, d := range f.Decls {
			m.index(dir, api, d, info)
		}
	}
	return p, nil
}

// index records the objects d declares and the roots among them.
func (m *module) index(dir string, api bool, d ast.Decl, info *types.Info) {
	add := func(id *ast.Ident, key string, node ast.Node) types.Object {
		obj := info.Defs[id]
		m.objects[dir+"."+key] = obj
		m.decls[obj] = decl{node, info}
		if api && id.IsExported() {
			m.rootObjs = append(m.rootObjs, obj)
		}
		return obj
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		switch {
		case d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && info.Defs[d.Name].Pkg().Name() == "main"):
			m.rootDecls = append(m.rootDecls, decl{d, info})
		case d.Recv == nil:
			add(d.Name, d.Name.Name, d)
		default:
			recv := info.Defs[d.Name].Type().(*types.Signature).Recv().Type()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			add(d.Name, recv.(*types.Named).Obj().Name()+"."+d.Name.Name, d)
		}
	case *ast.GenDecl:
		var block []types.Object
		implicit := false // a spec without values repeats the one before: iota
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				obj := add(s.Name, s.Name.Name, s)
				if api && s.Name.IsExported() && !s.Assign.IsValid() {
					ms := types.NewMethodSet(types.NewPointer(obj.Type()))
					for i := 0; i < ms.Len(); i++ {
						if f := ms.At(i).Obj(); f.Exported() {
							m.rootObjs = append(m.rootObjs, f) // promoted ones too
						}
					}
				}
			case *ast.ValueSpec:
				implicit = implicit || len(s.Values) == 0
				for _, id := range s.Names {
					if id.Name == "_" {
						m.rootDecls = append(m.rootDecls, decl{s, info})
					} else {
						block = append(block, add(id, id.Name, s))
					}
				}
			}
		}
		if d.Tok == token.CONST && implicit {
			m.iotaBlocks = append(m.iotaBlocks, block)
		}
	}
}

// checkLayers fails on a package with no rank, a rank for no package, and
// an import of a package whose rank is not strictly lower.
func checkLayers(t *testing.T, m *module) {
	t.Helper()
	rank := map[string]int{}
	for r, dirs := range layers {
		for _, dir := range dirs {
			rank[dir] = r
			if m.pkgs[dir] == nil {
				t.Errorf("the layer table ranks %s, which is no package", dir)
			}
		}
	}
	dirOf := map[*types.Package]string{}
	for dir, p := range m.pkgs {
		dirOf[p] = dir
	}
	for dir, p := range m.pkgs {
		r, ok := rank[dir]
		if !ok {
			t.Errorf("package %s has no rank in the layer table", dir)
			continue
		}
		for _, imp := range p.Imports() {
			if dep, ok := dirOf[imp]; ok && rank[dep] >= r {
				t.Errorf("%s (rank %d) imports %s (rank %d): imports go to a lower rank", dir, r, dep, rank[dep])
			}
		}
	}
}

// reach is the worklist of a reachability pass over a module.
type reach struct {
	m       *module
	reached map[types.Object]bool
	queue   []types.Object
	named   []*types.TypeName // reached non-interface types of the module
	matched []int             // named[i] is matched against ifaces[:matched[i]]
	ifaces  []*types.Interface
	iface   map[types.Type]bool
}

func (r *reach) mark(obj types.Object) {
	if obj != nil && !r.reached[obj] {
		r.reached[obj] = true
		r.queue = append(r.queue, obj)
	}
}

// run walks what is marked until no declaration and no method is left
// to reach.
func (r *reach) run() {
	for len(r.queue) > 0 {
		for len(r.queue) > 0 {
			obj := r.queue[len(r.queue)-1]
			r.queue = r.queue[:len(r.queue)-1]
			d, ok := r.m.decls[obj]
			if !ok {
				continue
			}
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() && !types.IsInterface(tn.Type()) {
				r.named = append(r.named, tn)
				r.matched = append(r.matched, 0)
				for _, name := range dynamicMethods {
					r.method(tn, nil, name)
				}
			}
			r.walk(d)
		}
		for i, tn := range r.named {
			for _, it := range r.ifaces[r.matched[i]:] {
				if types.Implements(types.NewPointer(tn.Type()), it) {
					for k := 0; k < it.NumMethods(); k++ {
						r.method(tn, it.Method(k).Pkg(), it.Method(k).Name())
					}
				}
			}
			r.matched[i] = len(r.ifaces)
		}
	}
}

// method marks the method name of *tn, a promoted one included.
func (r *reach) method(tn *types.TypeName, pkg *types.Package, name string) {
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), false, pkg, name)
	if f, ok := obj.(*types.Func); ok {
		r.mark(f)
	}
}

// walk visits the expressions of d: the interfaces they have, and the
// objects they use.
func (r *reach) walk(d decl) {
	ast.Inspect(d.node, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok {
			r.addIface(d.info.Types[e].Type)
		}
		if id, ok := n.(*ast.Ident); ok && d.info.Uses[id] != nil {
			r.use(d.info.Uses[id])
		}
		return true
	})
}

// use marks a module object, and collects the interface its type is and,
// for a func outside the module, the interfaces of its parameters: a value
// passed there may be called through them.
func (r *reach) use(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
		if _, ok := r.m.decls[obj]; !ok {
			sig := o.Type().(*types.Signature)
			for i := 0; i < sig.Params().Len(); i++ {
				t := sig.Params().At(i).Type()
				if s, ok := t.(*types.Slice); ok && sig.Variadic() && i == sig.Params().Len()-1 {
					t = s.Elem()
				}
				r.addIface(t)
			}
		}
	case *types.Var:
		obj = o.Origin()
	}
	r.addIface(obj.Type())
	r.mark(obj)
}

func (r *reach) addIface(t types.Type) {
	if t == nil || r.iface[t] {
		return
	}
	r.iface[t] = true
	if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
		r.ifaces = append(r.ifaces, it)
	}
}
