package clusterbooster

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowed names the exported functions, methods, package-level
// variables and type aliases that may have no caller in non-test code, each
// with the reason. A bare name matches a method of any type; Marshal* and
// Unmarshal* methods are always allowed.
var exportAllowed = map[string]string{
	"String":             "fmt calls it through fmt.Stringer",
	"Error":              "callers reach it through the error interface",
	"Unwrap":             "errors.Is and errors.As call it",
	"scr.SweepIntervals": "ablation A8's reference model in DESIGN.md",
}

// TestNoTestOnlyExports type-checks the non-test Go of the whole repository
// and fails on each exported function, method, package-level variable or
// type alias of the root package or of internal/ that nothing references
// outside its own declaration. A call through an interface method counts for
// every method that implements it.
func TestNoTestOnlyExports(t *testing.T) {
	r := loadRepo(t)
	fset, info, pkgs := r.fset, r.info, r.pkgs
	used := map[types.Object]bool{}
	for id, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			used[obj] = true
			continue
		}
		// A use inside the function's own declaration is a recursive call.
		if fn = fn.Origin(); fn.Scope() == nil || id.Pos() < fn.Pos() || id.Pos() > fn.Scope().End() {
			used[fn] = true
		}
	}
	viaIface := func(recv types.Type, name string) bool {
		for _, p := range pkgs {
			for _, n := range p.Scope().Names() {
				it, ok := p.Scope().Lookup(n).Type().Underlying().(*types.Interface)
				for i := 0; ok && i < it.NumMethods(); i++ {
					if m := it.Method(i); m.Name() == name && used[m] && types.Implements(recv, it) {
						return true
					}
				}
			}
		}
		return false
	}

	var unused []string
	for id, obj := range info.Defs {
		if obj == nil || !obj.Exported() || used[obj] || !inScope(obj.Pkg().Path()) {
			continue
		}
		ip, name := obj.Pkg().Path(), obj.Name()
		short := path.Base(ip) + "." + name
		if _, ok := exportAllowed[short]; ok {
			continue
		}
		switch o := obj.(type) {
		case *types.Var:
			if o.Parent() != o.Pkg().Scope() { // fields, locals, parameters
				continue
			}
		case *types.TypeName:
			if !o.IsAlias() {
				continue
			}
		case *types.Func:
			if recv := o.Type().(*types.Signature).Recv(); recv != nil {
				_, ok := exportAllowed[name]
				if ok || strings.HasPrefix(name, "Marshal") || strings.HasPrefix(name, "Unmarshal") ||
					types.IsInterface(recv.Type()) || viaIface(recv.Type(), name) {
					continue
				}
				short = path.Base(ip) + "." + types.TypeString(recv.Type(), func(*types.Package) string { return "" }) + "." + name
			}
		default:
			continue
		}
		unused = append(unused, short+" ("+fset.Position(id.Pos()).String()+")")
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported but referenced by no non-test code: %s", u)
	}
}

// fieldAllowed names the struct fields that non-test code may leave unread,
// as package.Type.Field, or package.Type for all of a type's fields, each
// with the reason.
var fieldAllowed = map[string]string{
	"scr.SimOutcome":        "ablation A8's reference model in DESIGN.md",
	"xpic.SpeciesSpec.Name": "json.Marshal reads it into every xPic compute key and run-store key",
}

// TestNoWriteOnlyFields fails on each struct field, exported or not, of the
// root package or of internal/ that no non-test code reads. A use is a write
// when it is an assignment target (= or op=), an ++/-- operand, a
// composite-literal key, or the base of a selector, index or dereference
// chain that ends in one of those; every other use is a read. Fields with a
// json tag are skipped, since encoding/json reads them by reflection.
func TestNoWriteOnlyFields(t *testing.T) {
	r := loadRepo(t)
	writes := map[*ast.Ident]bool{}
	var target func(ast.Expr)
	target = func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			writes[x.Sel] = true
			target(x.X)
		case *ast.IndexExpr:
			target(x.X)
		case *ast.StarExpr:
			target(x.X)
		case *ast.ParenExpr:
			target(x.X)
		}
	}
	owner := map[types.Object]string{} // field -> its named type or variable
	own := func(n ast.Node, name string) {
		ast.Inspect(n, func(n ast.Node) bool {
			if fl, ok := n.(*ast.Field); ok {
				for _, id := range fl.Names {
					owner[r.info.Defs[id]] = name
				}
			}
			return true
		})
	}
	tagged := map[types.Object]bool{} // fields with a json tag
	for _, fs := range r.files {
		for _, f := range fs {
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.AssignStmt:
					for _, e := range x.Lhs {
						target(e)
					}
				case *ast.IncDecStmt:
					target(x.X)
				case *ast.KeyValueExpr:
					if id, ok := x.Key.(*ast.Ident); ok {
						writes[id] = true
					}
				case *ast.TypeSpec:
					own(x.Type, x.Name.Name)
				case *ast.ValueSpec: // var V = struct{...}{...}
					own(x, x.Names[0].Name)
				case *ast.Field:
					if x.Tag == nil {
						break
					}
					tag, _ := strconv.Unquote(x.Tag.Value)
					if _, ok := reflect.StructTag(tag).Lookup("json"); ok {
						for _, id := range x.Names {
							tagged[r.info.Defs[id]] = true
						}
					}
				}
				return true
			})
		}
	}

	read := map[types.Object]bool{}
	for id, obj := range r.info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() && !writes[id] {
			read[v.Origin()] = true
		}
	}
	// A selector that reaches a promoted field or method reads every
	// embedded field on its way.
	for _, sel := range r.info.Selections {
		typ := sel.Recv()
		for _, i := range sel.Index()[:len(sel.Index())-1] {
			if ptr, ok := typ.Underlying().(*types.Pointer); ok {
				typ = ptr.Elem()
			}
			f := typ.Underlying().(*types.Struct).Field(i)
			read[f.Origin()] = true
			typ = f.Type()
		}
	}

	var unread []string
	for id, obj := range r.info.Defs {
		v, ok := obj.(*types.Var)
		if !ok || !v.IsField() || read[v] || tagged[v] || !inScope(v.Pkg().Path()) {
			continue
		}
		typ := path.Base(v.Pkg().Path()) + "." + owner[v]
		if _, ok := fieldAllowed[typ]; ok {
			continue
		}
		if _, ok := fieldAllowed[typ+"."+v.Name()]; ok {
			continue
		}
		unread = append(unread, typ+"."+v.Name()+" ("+r.fset.Position(id.Pos()).String()+")")
	}
	sort.Strings(unread)
	for _, u := range unread {
		t.Errorf("field read by no non-test code: %s", u)
	}
}

// TestSweepKnowsNoExperiment keeps the sweep engine below the experiment
// layer: no non-test file of internal/sweep may import the registry
// (internal/exp) or the packages of the families it declares.
func TestSweepKnowsNoExperiment(t *testing.T) {
	r := loadRepo(t)
	files := r.files["clusterbooster/internal/sweep"]
	if len(files) == 0 {
		t.Fatal("no non-test files in internal/sweep")
	}
	for _, f := range files {
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			switch strings.TrimPrefix(ip, "clusterbooster/internal/") {
			case "sched", "resilience", "ioexp", "exp":
				t.Errorf("%s imports %s", r.fset.Position(f.Package).Filename, ip)
			}
		}
	}
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(p string) (*types.Package, error) { return f(p) }

// repo is the type-checked non-test Go of the whole repository.
type repo struct {
	fset  *token.FileSet
	files map[string][]*ast.File // import path -> non-test files
	info  *types.Info
	pkgs  map[string]*types.Package
}

// loadRepo parses and type-checks every non-test Go file under the root.
func loadRepo(t *testing.T) *repo {
	t.Helper()
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path -> non-test files
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		ip := path.Join("clusterbooster", filepath.ToSlash(filepath.Dir(p)))
		files[ip] = append(files[ip], f)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkgs := map[string]*types.Package{}
	std := importer.Default()
	var load importerFunc
	load = func(ip string) (*types.Package, error) {
		if p, ok := pkgs[ip]; ok {
			return p, nil
		}
		if _, ok := files[ip]; !ok {
			return std.Import(ip)
		}
		p, err := (&types.Config{Importer: load}).Check(ip, fset, files[ip], info)
		pkgs[ip] = p
		return p, err
	}
	for ip := range files {
		if _, err := load(ip); err != nil {
			t.Fatalf("type-check %s: %v", ip, err)
		}
	}

	return &repo{fset: fset, files: files, info: info, pkgs: pkgs}
}

// inScope reports whether an import path is the root package or under
// internal/, the packages both guards cover.
func inScope(ip string) bool {
	return ip == "clusterbooster" || strings.HasPrefix(ip, "clusterbooster/internal/")
}
