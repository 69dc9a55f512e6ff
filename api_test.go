package jumanji

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
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

// knobAllowed lists the exported struct fields in internal/ that no non-test
// file writes, keyed "pkg.Type.Field", each with the reason it stays.
var knobAllowed = map[string]string{
	"core.JumanjiPlacer.AllowOversubscription": "the Sec. IV-B time-multiplexing mechanism its tests pin",
	"system.Config.QueueControl":               "flipped by the queue-aware control ablation benchmark",
	"system.Config.FineGrainedPartitioning":    "flipped by the Vantage partitioning ablation benchmark",
	"system.AppConfig.BatchPhases":             "TestPhasedBatchApp backs the reconfiguration-period result in EXPERIMENTS.md",
	"system.AppConfig.PhaseEpochs":             "TestPhasedBatchApp backs the reconfiguration-period result in EXPERIMENTS.md",
	"bank.Config.Seed":                         "the BRRIP property test varies it",
	"driver.App.LatencyCritical":               "the driver isolation tests mark latency-critical apps",
	"driver.App.LatSize":                       "the driver isolation tests size latency-critical reservations",
}

// TestNoTestOnlyKnobs is the field-level "no exported API whose only callers
// are tests": every exported field of every struct declared in a non-test
// file under internal/ must be written by some non-test file, or it is a
// knob no program turns. A write is a composite-literal element (keyed or
// positional), the target of an assignment or ++/--, or &x.F (a flag
// binding). Fields with a json tag are exempt: decoders fill them. Writes
// are resolved by type, so a field named like another is not confused
// with it.
func TestNoTestOnlyKnobs(t *testing.T) {
	pkgs, exports := listModule(t)
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, errors.New("no export data for " + path)
		}
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})}

	declared := map[*types.Var]string{} // field -> "pkg.Type.Field"
	written := map[*types.Var]bool{}
	for _, lp := range pkgs { // dependency order: imports are checked first
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		pkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", lp.ImportPath, err)
		}
		checked[lp.ImportPath] = pkg
		internal := strings.HasPrefix(lp.ImportPath, "jumanji/internal/")
		for _, f := range files {
			collectKnobs(f, pkg.Name(), internal, info, declared, written)
		}
	}

	var unwritten []string
	needed := map[string]bool{}
	for v, key := range declared {
		switch {
		case written[v]:
		case knobAllowed[key] != "":
			needed[key] = true
		default:
			unwritten = append(unwritten, fset.Position(v.Pos()).String()+": "+key)
		}
	}
	sort.Strings(unwritten)
	for _, s := range unwritten {
		t.Errorf("exported field no program writes: %s", s)
	}
	for key := range knobAllowed {
		if !needed[key] {
			t.Errorf("knob allowlist entry %s names no unwritten field; drop it", key)
		}
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// listedPackage is the part of `go list -json` output TestNoTestOnlyKnobs
// reads.
type listedPackage struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	Standard                bool
}

// listModule returns the module's packages in dependency order, and the
// compiler export data of every standard-library package they import.
func listModule(t *testing.T) (pkgs []listedPackage, exports map[string]string) {
	t.Helper()
	out, err := exec.Command("go", "list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,Standard", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	exports = map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if lp.Standard {
			exports[lp.ImportPath] = lp.Export
		} else {
			pkgs = append(pkgs, lp)
		}
	}
	return pkgs, exports
}

// collectKnobs records f's exported, untagged struct fields in declared
// (when declare is set) and every field f writes in written.
func collectKnobs(f *ast.File, pkg string, declare bool, info *types.Info, declared map[*types.Var]string, written map[*types.Var]bool) {
	field := func(e ast.Expr) {
		for {
			p, ok := e.(*ast.ParenExpr)
			if !ok {
				break
			}
			e = p.X
		}
		if sel, ok := e.(*ast.SelectorExpr); ok {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				written[s.Obj().(*types.Var)] = true
			}
		}
	}
	structName := map[*ast.StructType]string{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.TypeSpec:
			if st, ok := x.Type.(*ast.StructType); ok {
				structName[st] = x.Name.Name
			}
		case *ast.StructType:
			if !declare {
				break
			}
			name := structName[x]
			if name == "" {
				name = "struct"
			}
			for _, fl := range x.Fields.List {
				if fl.Tag != nil && strings.Contains(fl.Tag.Value, "json:") {
					continue
				}
				ids := fl.Names
				if ids == nil { // embedded: the field is named by its type
					ids = []*ast.Ident{embeddedIdent(fl.Type)}
				}
				for _, id := range ids {
					if id.IsExported() {
						declared[info.Defs[id].(*types.Var)] = pkg + "." + name + "." + id.Name
					}
				}
			}
		case *ast.CompositeLit:
			st, ok := info.Types[x].Type.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, el := range x.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
						written[v] = true
					}
				} else {
					written[st.Field(i)] = true
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				field(lhs)
			}
		case *ast.IncDecStmt:
			field(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				field(x.X)
			}
		}
		return true
	})
}

// embeddedIdent returns the identifier naming an embedded field's type.
func embeddedIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			panic("unexpected embedded field type")
		}
	}
}
