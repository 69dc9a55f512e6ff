package jumanji

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed lists the exported functions and methods in internal/ that
// may have only test callers, keyed "pkg.Func", "pkg.Type.Method", or
// "pkg.Type" for every method of Type. Each is a validator, oracle, model or
// failure seam that tests in other packages need.
var testOnlyAllowed = map[string]string{
	"obs.ValidateEventLog":        "schema check the root and cmd tests run over emitted event logs",
	"obs.ValidateTraceJSON":       "schema check the root and cmd tests run over emitted Chrome traces",
	"trace.MissRatioOracle":       "closed-form LRU reference the umon tests measure curves against",
	"core.Placement.IsVMIsolated": "isolation oracle the security and system tests assert per VM",
	"bank.Bank.OccupancyOf":       "per-partition occupancy the bank and security tests inspect",
	"vtb.Descriptor.Shares":       "per-bank share view the driver tests check descriptors with",
	"bank.NewVantage":             "functional model behind the FineGrainedPartitioning ablation",
	"bank.VantageBank":            "functional model behind the FineGrainedPartitioning ablation",
	"journal.NewWriter":           "failure seam: sweep tests journal into a file whose writes fail",
}

// alwaysUsed names methods that satisfy standard-library interfaces, so no
// call site in this module has to spell them.
var alwaysUsed = map[string]bool{"String": true, "Error": true, "Unwrap": true}

// TestNoTestOnlyExports enforces "no exported API whose only callers are
// tests": nothing outside the module can import internal/, so an exported
// function or method there that no non-test file names is dead code. A
// function counts as used when a non-test file names it through its package
// (or bare, inside that package); a method, when any non-test selector or
// interface type names a method of that name.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct {
		key, name, pkg string // pkg is the import path, or "" for a method
		pos            token.Position
	}
	var decls []decl
	funcUses := map[string]bool{} // import path + "." + name
	methodUses := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if file != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(file))
		self := path.Join("jumanji", dir) // this file's import path
		imports := map[string]string{}    // local name -> import path
		for _, imp := range f.Imports {
			ip := strings.Trim(imp.Path.Value, `"`)
			local := ip[strings.LastIndex(ip, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = ip
		}
		declIdents := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			fn, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declIdents[fn.Name] = true
			if !fn.Name.IsExported() || !strings.HasPrefix(dir, "internal/") {
				continue
			}
			dc := decl{key: f.Name.Name + "." + fn.Name.Name, name: fn.Name.Name, pkg: self, pos: fset.Position(fn.Name.Pos())}
			if fn.Recv != nil {
				dc.key = f.Name.Name + "." + recvTypeName(fn.Recv.List[0].Type) + "." + fn.Name.Name
				dc.pkg = ""
			}
			decls = append(decls, dc)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
					funcUses[imports[id.Name]+"."+x.Sel.Name] = true
					return false
				}
				methodUses[x.Sel.Name] = true
			case *ast.InterfaceType:
				for _, m := range x.Methods.List {
					for _, id := range m.Names {
						methodUses[id.Name] = true
					}
				}
			case *ast.Ident:
				if !declIdents[x] {
					funcUses[self+"."+x.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(testOnlyAllowed) > 10 {
		t.Errorf("allowlist has %d entries; keep it to at most 10", len(testOnlyAllowed))
	}
	var dead []string
	needed := map[string]bool{}
	for _, d := range decls {
		if d.pkg != "" && funcUses[d.pkg+"."+d.name] || d.pkg == "" && (methodUses[d.name] || alwaysUsed[d.name]) {
			continue
		}
		recv := d.key[:strings.LastIndex(d.key, ".")]
		switch {
		case testOnlyAllowed[d.key] != "":
			needed[d.key] = true
		case d.pkg == "" && testOnlyAllowed[recv] != "":
			needed[recv] = true
		default:
			dead = append(dead, d.pos.String()+": "+d.key)
		}
	}
	sort.Strings(dead)
	for _, s := range dead {
		t.Errorf("exported but called only from tests: %s", s)
	}
	for key := range testOnlyAllowed {
		if !needed[key] {
			t.Errorf("allowlist entry %s covers nothing that only tests call; drop it", key)
		}
	}
}

// recvTypeName returns the base type name of a method receiver.
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
