package d3l_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names the declarations that no program reaches but
// that stay anyway, each with the reason it stays.
var reachAllowlist = map[string]string{}

// TestEveryDeclarationIsReachable fails on every package-level
// declaration of this module, outside test files, that no program can
// reach. A declaration is reachable from a main or init function, from
// the exported API of package d3l, and from anything the benchmark
// module (a separate module built against this one) references; and
// from a reachable declaration that uses it. A method is also reachable
// when a value of its reachable type may be called through an interface
// that names it: any interface of the standard library, and any
// interface method of this module that reachable code calls.
func TestEveryDeclarationIsReachable(t *testing.T) {
	a := loadModule(t)
	a.run()

	var lines int
	var unreachable []*reachDecl
	for _, d := range a.decls {
		if a.reached[d.obj] {
			if _, ok := reachAllowlist[d.key]; ok {
				t.Errorf("%s is reachable: drop it from reachAllowlist", d.key)
			}
			continue
		}
		if _, ok := reachAllowlist[d.key]; ok {
			continue
		}
		unreachable = append(unreachable, d)
		lines += d.lines
	}
	declared := map[string]bool{}
	for _, d := range a.decls {
		declared[d.key] = true
	}
	for key := range reachAllowlist {
		if !declared[key] {
			t.Errorf("reachAllowlist names %s, which is not declared: drop it", key)
		}
	}
	if len(unreachable) == 0 {
		return
	}
	sort.Slice(unreachable, func(i, j int) bool { return unreachable[i].pos < unreachable[j].pos })
	var b strings.Builder
	for _, d := range unreachable {
		fmt.Fprintf(&b, "\n\t%s: %s (%d lines)", d.pos, d.key, d.lines)
	}
	t.Errorf("%d declarations (%d lines) are reached by no program, only by tests at most; delete them or, with a reason, add them to reachAllowlist:%s",
		len(unreachable), lines, b.String())
}

// reachDecl is one package-level declaration (or method) of the module.
type reachDecl struct {
	obj   types.Object
	key   string // package path relative to the module, then the name
	pos   string // file:line, relative to the module root
	lines int
	uses  []types.Object
	// insts records each generic instantiation the declaration makes,
	// so a type argument's methods are reached through its constraint.
	insts []instantiation
}

type instantiation struct {
	params *types.TypeParamList
	args   *types.TypeList
}

type reachAnalysis struct {
	decls   []*reachDecl
	byObj   map[types.Object]*reachDecl
	reached map[types.Object]bool
	// called holds the interface methods of this module that reachable
	// code calls; interface methods of the standard library always count.
	called map[types.Object]bool
	ifaces map[string][]*types.Interface // by method name
	insts  []instantiation               // made by reachable code
	queue  []types.Object
}

type listedPackage struct {
	ImportPath  string
	Dir         string
	Standard    bool
	Export      string
	GoFiles     []string
	TestGoFiles []string
	Module      *struct{ Path string }
}

// goList runs go list -deps in dir and decodes one record per package.
func goList(t *testing.T, dir string, args ...string) []listedPackage {
	t.Helper()
	args = append([]string{"list", "-deps", "-json=ImportPath,Dir,Standard,Export,GoFiles,TestGoFiles,Module"}, args...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs
		} else if err != nil {
			t.Fatalf("go list in %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
}

// moduleImporter serves this module's packages from source, as checked
// so far, and the standard library from its export data.
type moduleImporter struct {
	checked map[string]*types.Package
	std     types.Importer
}

func (m moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.checked[path]; ok {
		return p, nil
	}
	return m.std.Import(path)
}

func loadModule(t *testing.T) *reachAnalysis {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	mod := goList(t, root, "./...")
	bench := goList(t, filepath.Join(root, "benchmark"), "-test", ".")
	var stdPaths []string
	seen := map[string]bool{}
	for _, p := range append(mod, bench...) {
		if p.Standard && !seen[p.ImportPath] {
			seen[p.ImportPath] = true
			stdPaths = append(stdPaths, p.ImportPath)
		}
	}
	exports := map[string]string{}
	for _, p := range goList(t, root, append([]string{"-export"}, stdPaths...)...) {
		exports[p.ImportPath] = p.Export
	}
	fset := token.NewFileSet()
	imp := moduleImporter{
		checked: map[string]*types.Package{},
		std: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			if f, ok := exports[path]; ok && f != "" {
				return os.Open(f)
			}
			return nil, fmt.Errorf("no export data for %s", path)
		}),
	}
	info := &types.Info{
		Types:     map[ast.Expr]types.TypeAndValue{},
		Defs:      map[*ast.Ident]types.Object{},
		Uses:      map[*ast.Ident]types.Object{},
		Instances: map[*ast.Ident]types.Instance{},
	}
	check := func(p listedPackage, files []string) (*types.Package, []*ast.File) {
		var asts []*ast.File
		for _, name := range files {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			asts = append(asts, f)
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, fset, asts, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		return pkg, asts
	}

	a := &reachAnalysis{
		byObj:   map[types.Object]*reachDecl{},
		reached: map[types.Object]bool{},
		called:  map[types.Object]bool{},
		ifaces:  map[string][]*types.Interface{},
	}
	var roots []*reachDecl
	ours := map[*types.Package]bool{}
	for _, p := range mod { // go list -deps orders dependencies first
		if p.Standard {
			continue
		}
		pkg, files := check(p, p.GoFiles)
		imp.checked[p.ImportPath] = pkg
		ours[pkg] = true
		for _, f := range files {
			roots = append(roots, a.collect(fset, info, root, pkg, f)...)
		}
	}
	// The benchmark module's references are roots; so are its
	// instantiations and its calls through this module's interfaces.
	for _, p := range bench {
		if p.ImportPath != "d3l/benchmark" {
			continue // its test variants repeat it; d3l's are checked above
		}
		_, files := check(p, append(append([]string{}, p.GoFiles...), p.TestGoFiles...))
		for _, f := range files {
			d := &reachDecl{}
			refs(info, f, d)
			roots = append(roots, d)
		}
	}
	// Interfaces: error, every named interface of the standard-library
	// packages the type checker loaded, every interface type this module
	// spells, and the ones package errors calls.
	addIface := func(typ types.Type) {
		it, ok := typ.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			a.ifaces[name] = append(a.ifaces[name], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if visited[pkg] {
			return
		}
		visited[pkg] = true
		if !ours[pkg] {
			for _, name := range pkg.Scope().Names() {
				if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
					if n, ok := tn.Type().(*types.Named); !ok || n.TypeParams().Len() == 0 {
						addIface(tn.Type())
					}
				}
			}
		}
		for _, dep := range pkg.Imports() {
			walk(dep)
		}
	}
	for pkg := range ours {
		walk(pkg)
	}
	for _, tv := range info.Types {
		if tv.IsType() {
			if _, ok := tv.Type.(*types.Interface); ok {
				addIface(tv.Type)
			}
		}
	}
	for _, d := range a.decls {
		if tn, ok := d.obj.(*types.TypeName); ok && types.IsInterface(tn.Type()) {
			addIface(tn.Type())
		}
	}
	for _, it := range errorsContract() {
		addIface(it)
	}
	for _, d := range roots {
		if a.byObj[d.obj] == d {
			a.mark(d.obj)
		} else {
			a.enqueueUses(d)
		}
	}
	return a
}

// collect records the declarations of one file and returns those that
// are roots: main and init, blank vars (evaluated at start-up), and the
// exported API of package d3l.
func (a *reachAnalysis) collect(fset *token.FileSet, info *types.Info, root string, pkg *types.Package, f *ast.File) []*reachDecl {
	var roots []*reachDecl
	add := func(node ast.Node, name *ast.Ident) *reachDecl {
		obj := info.Defs[name]
		start, end := fset.Position(node.Pos()), fset.Position(node.End())
		rel, _ := filepath.Rel(root, start.Filename)
		d := &reachDecl{
			obj:   obj,
			key:   declKey(pkg, obj),
			pos:   fmt.Sprintf("%s:%d", rel, start.Line),
			lines: end.Line - start.Line + 1,
		}
		refs(info, node, d)
		if obj != nil && obj.Name() != "_" {
			if named := namedOf(obj.Type()); named != nil && named.Obj() != obj {
				d.uses = append(d.uses, named.Obj())
			}
			a.decls = append(a.decls, d)
			a.byObj[obj] = d
		}
		return d
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			d := add(decl, decl.Name)
			name := decl.Name.Name
			if decl.Recv == nil && (name == "init" || name == "main" && pkg.Name() == "main") || exportedAPI(d.obj) {
				roots = append(roots, d)
			}
		case *ast.GenDecl:
			var group []*reachDecl
			iotaBlock := false
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					d := add(spec, spec.Name)
					if exportedAPI(d.obj) {
						roots = append(roots, d)
					}
				case *ast.ValueSpec:
					if decl.Tok == token.CONST && len(spec.Values) == 0 {
						iotaBlock = true
					}
					for _, name := range spec.Names {
						d := add(spec, name)
						group = append(group, d)
						if name.Name == "_" || exportedAPI(d.obj) {
							roots = append(roots, d)
						}
					}
				}
			}
			// The constants of an iota block stand or fall together:
			// deleting one renumbers the rest.
			if iotaBlock {
				for _, d := range group {
					for _, other := range group {
						if other.obj != nil {
							d.uses = append(d.uses, other.obj)
						}
					}
				}
			}
		}
	}
	return roots
}

// exportedAPI reports whether obj is part of package d3l's exported API:
// an exported name, and for a method an exported receiver type too.
func exportedAPI(obj types.Object) bool {
	if obj == nil || obj.Pkg().Path() != "d3l" || !obj.Exported() {
		return false
	}
	if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
		return namedOf(fn.Signature().Recv().Type()).Obj().Exported()
	}
	return true
}

// refs records every object the node uses and every instantiation it makes.
func refs(info *types.Info, node ast.Node, d *reachDecl) {
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := info.Uses[id]; obj != nil {
			d.uses = append(d.uses, origin(obj))
		}
		if inst, ok := info.Instances[id]; ok {
			var params *types.TypeParamList
			switch obj := info.Uses[id].(type) {
			case *types.TypeName:
				params = namedOf(obj.Type()).TypeParams()
			case *types.Func:
				params = obj.Origin().Signature().TypeParams()
			}
			d.insts = append(d.insts, instantiation{params, inst.TypeArgs})
		}
		return true
	})
}

// errorsContract is the interfaces package errors declares inside its
// function bodies, out of any scope's sight: errors.Is, As and Unwrap
// call these methods.
func errorsContract() []*types.Interface {
	errT := types.Universe.Lookup("error").Type()
	anyT := types.Universe.Lookup("any").Type()
	boolT := types.Typ[types.Bool]
	tuple := func(ts ...types.Type) *types.Tuple {
		vars := make([]*types.Var, len(ts))
		for i, t := range ts {
			vars[i] = types.NewVar(token.NoPos, nil, "", t)
		}
		return types.NewTuple(vars...)
	}
	method := func(name string, params, results *types.Tuple) *types.Interface {
		sig := types.NewSignatureType(nil, nil, nil, params, results, false)
		return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil).Complete()
	}
	return []*types.Interface{
		method("Unwrap", tuple(), tuple(errT)),
		method("Unwrap", tuple(), tuple(types.NewSlice(errT))),
		method("Is", tuple(errT), tuple(boolT)),
		method("As", tuple(anyT), tuple(boolT)),
	}
}

func pointerTo(typ types.Type) types.Type {
	if _, ok := typ.(*types.Pointer); ok {
		return typ
	}
	return types.NewPointer(typ)
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func namedOf(typ types.Type) *types.Named {
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	n, _ := typ.(*types.Named)
	return n
}

func declKey(pkg *types.Package, obj types.Object) string {
	path := strings.TrimPrefix(pkg.Path(), "d3l/")
	if obj == nil {
		return path + "._"
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Signature().Recv(); recv != nil {
			if n := namedOf(recv.Type()); n != nil {
				return path + "." + n.Obj().Name() + "." + fn.Name()
			}
		}
	}
	return path + "." + obj.Name()
}

func (a *reachAnalysis) enqueueUses(d *reachDecl) {
	for _, obj := range d.uses {
		a.mark(obj)
	}
	a.insts = append(a.insts, d.insts...)
}

func (a *reachAnalysis) mark(obj types.Object) {
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
			a.called[obj] = true
		}
	}
	if a.byObj[obj] == nil || a.reached[obj] {
		return
	}
	a.reached[obj] = true
	a.queue = append(a.queue, obj)
}

// run marks everything reachable from the roots, to a fixed point.
func (a *reachAnalysis) run() {
	for {
		for len(a.queue) > 0 {
			obj := a.queue[len(a.queue)-1]
			a.queue = a.queue[:len(a.queue)-1]
			a.enqueueUses(a.byObj[obj])
		}
		before := len(a.reached)
		a.dispatch()
		if len(a.reached) == before && len(a.queue) == 0 {
			return
		}
	}
}

// dispatch marks the methods that reachable code may call through an
// interface: those a type argument supplies for its constraint, and
// those of a reachable type that satisfy an interface.
func (a *reachAnalysis) dispatch() {
	for _, inst := range a.insts {
		for i := 0; i < inst.params.Len(); i++ {
			it, ok := inst.params.At(i).Constraint().Underlying().(*types.Interface)
			if !ok {
				continue
			}
			ms := types.NewMethodSet(pointerTo(inst.args.At(i)))
			for j := 0; j < it.NumMethods(); j++ {
				m := it.Method(j)
				if !a.calls(m) {
					continue
				}
				if sel := ms.Lookup(m.Pkg(), m.Name()); sel != nil {
					a.mark(origin(sel.Obj()))
				}
			}
		}
	}
	for _, d := range a.decls {
		tn, ok := d.obj.(*types.TypeName)
		if !ok || !a.reached[tn] || types.IsInterface(tn.Type()) {
			continue
		}
		n, ok := tn.Type().(*types.Named)
		if !ok || n.TypeParams().Len() > 0 {
			continue
		}
		ptr := types.NewPointer(n)
		ms := types.NewMethodSet(ptr)
		for i := 0; i < ms.Len(); i++ {
			fn := origin(ms.At(i).Obj())
			if a.byObj[fn] == nil || a.reached[fn] {
				continue
			}
			for _, it := range a.ifaces[fn.Name()] {
				if a.ifaceCalls(it, fn.Name()) && types.Implements(ptr, it) {
					a.mark(fn)
					break
				}
			}
		}
	}
}

// ifaceCalls reports whether reachable code may call the method of it
// with the given name.
func (a *reachAnalysis) ifaceCalls(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if m := it.Method(i); m.Name() == name {
			return a.calls(m)
		}
	}
	return false
}

// calls reports whether reachable code may call the interface method m:
// always for the standard library's, which this module cannot see.
func (a *reachAnalysis) calls(m *types.Func) bool {
	m = m.Origin()
	return !a.ours(m) || a.called[m]
}

func (a *reachAnalysis) ours(obj types.Object) bool {
	return obj.Pkg() != nil && (obj.Pkg().Path() == "d3l" || strings.HasPrefix(obj.Pkg().Path(), "d3l/"))
}
