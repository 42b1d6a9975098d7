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
	"sort"
	"strings"
	"testing"
)

// exportAllowed names the exported functions and methods that may have no
// caller in non-test code, each with the reason. A bare name matches a
// method of any type; Marshal* and Unmarshal* methods are always allowed.
var exportAllowed = map[string]string{
	"String":              "fmt calls it through fmt.Stringer",
	"Error":               "callers reach it through the error interface",
	"Unwrap":              "errors.Is and errors.As call it",
	"scr.SweepIntervals":  "ablation A8's reference model in DESIGN.md",
	"sweep.SetRunCache":   "tests compare results against the cache-off path",
	"sweep.ResetRunCache": "tests compare results against the cache-off path",
}

// TestNoTestOnlyExports type-checks the non-test Go of the whole repository
// and fails on each exported function or method of the root package or of
// internal/ that nothing references outside its own declaration. A call
// through an interface method counts for every method that implements it.
func TestNoTestOnlyExports(t *testing.T) {
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
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
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

	used := map[*types.Func]bool{}
	for id, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			// A use inside the function's own declaration is a recursive call.
			if fn = fn.Origin(); fn.Scope() == nil || id.Pos() < fn.Pos() || id.Pos() > fn.Scope().End() {
				used[fn] = true
			}
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
		fn, ok := obj.(*types.Func)
		if !ok || !fn.Exported() || used[fn] {
			continue
		}
		ip, name := fn.Pkg().Path(), fn.Name()
		short := path.Base(ip) + "." + name
		if _, ok := exportAllowed[short]; ok || ip != "clusterbooster" && !strings.HasPrefix(ip, "clusterbooster/internal/") {
			continue
		}
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			_, ok := exportAllowed[name]
			if ok || strings.HasPrefix(name, "Marshal") || strings.HasPrefix(name, "Unmarshal") ||
				types.IsInterface(recv.Type()) || viaIface(recv.Type(), name) {
				continue
			}
			short = path.Base(ip) + "." + types.TypeString(recv.Type(), func(*types.Package) string { return "" }) + "." + name
		}
		unused = append(unused, short+" ("+fset.Position(id.Pos()).String()+")")
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported but referenced by no non-test code: %s", u)
	}
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(p string) (*types.Package, error) { return f(p) }
