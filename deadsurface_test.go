package rdgc

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadSurfaceFile lists the exported identifiers under internal/ that no
// non-test code reaches but that tests still need, one per line:
//
//	pkgpath Name reason [note]
//
// Name is Type.Method for a method; the reason is one of deadSurfaceReasons.
const deadSurfaceFile = "testdata/deadsurface.txt"

// deadSurfaceReasons are the only reasons an unreached export may stay: a
// probe is a read-only accessor tests observe state through, an oracle a
// specification tests compare other code against, a fault plants a state
// an oracle must catch, and an ablation selects an alternative a test or a
// benchmark measures.
var deadSurfaceReasons = map[string]bool{"probe": true, "oracle": true, "fault": true, "ablation": true}

// deadSurfaceSkip are the test-support packages: everything they export
// exists for tests, so they are not part of the surface.
var deadSurfaceSkip = map[string]bool{
	"internal/gc/gctest": true,
	"internal/cmdtest":   true,
}

// TestDeadSurface is a ratchet over the exported surface of internal/. It
// declares every exported top-level func, type, var and const, and every
// exported method, in the non-test files under internal/ (the test-support
// packages aside), and looks for a use in every non-test .go file of the
// root module and of benchmark/:
//
//   - a top-level name is used if its own package refers to it outside its
//     declaration, or another file names it as pkg.Name through an import;
//   - a method is used if .Name appears as a selector anywhere, or if an
//     interface declares a method of that name (conservative on purpose).
//
// An identifier nothing uses must be listed in testdata/deadsurface.txt
// with the reason a test needs it, or deleted. A listed identifier that is
// used again, or no longer declared, or listed without a known reason,
// fails too, so the list can only shrink, and only by an edit that says
// why.
func TestDeadSurface(t *testing.T) {
	pkgs := parseNonTestPackages(t, ".", "benchmark")
	decls := deadSurfaceDecls(pkgs)
	used := deadSurfaceUses(pkgs, decls)
	dead := map[string]bool{} // every declared key: is it reached by nothing?
	for _, key := range decls {
		dead[key] = !used[key]
	}

	listed := readDeadSurfaceFile(t)
	for key := range listed {
		isDead, declared := dead[key]
		switch {
		case !declared:
			t.Errorf("%s lists %s, which is no longer declared: delete the line", deadSurfaceFile, key)
		case !isDead:
			t.Errorf("%s lists %s, which non-test code now reaches: delete the line", deadSurfaceFile, key)
		}
	}
	var missing []string
	for key, isDead := range dead {
		if isDead && !listed[key] {
			missing = append(missing, key)
		}
	}
	sort.Strings(missing)
	for _, key := range missing {
		t.Errorf("%s is reached by no non-test code: delete it, or list it in %s with the reason a test needs it", key, deadSurfaceFile)
	}
}

// goPackage is one directory's non-test files, positioned in fset.
type goPackage struct {
	name  string
	files []*ast.File
	fset  *token.FileSet
}

// parseNonTestPackages parses the non-test .go files under each root,
// skipping hidden directories and testdata, keyed by slash-separated
// directory relative to the repository root.
func parseNonTestPackages(t *testing.T, roots ...string) map[string]*goPackage {
	t.Helper()
	fset := token.NewFileSet()
	pkgs := map[string]*goPackage{}
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" ||
					root == "." && path == "benchmark") {
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
			dir := filepath.ToSlash(filepath.Dir(path))
			p := pkgs[dir]
			if p == nil {
				p = &goPackage{name: f.Name.Name, fset: fset}
				pkgs[dir] = p
			}
			p.files = append(p.files, f)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return pkgs
}

// deadSurfaceDecls returns the key ("dir Name" or "dir Type.Method") of
// every exported identifier the ratchet covers.
func deadSurfaceDecls(pkgs map[string]*goPackage) []string {
	var keys []string
	for dir, p := range pkgs {
		if !strings.HasPrefix(dir, "internal/") || deadSurfaceSkip[dir] {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					if d.Recv == nil {
						keys = append(keys, dir+" "+d.Name.Name)
					} else {
						keys = append(keys, dir+" "+recvTypeName(d.Recv)+"."+d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						for _, name := range specNames(spec) {
							if name.IsExported() {
								keys = append(keys, dir+" "+name.Name)
							}
						}
					}
				}
			}
		}
	}
	return keys
}

// deadSurfaceUses returns the keys of decls, and of other package-level
// names, that some non-test file uses. A method key is used when its
// method name is, whatever the receiver.
func deadSurfaceUses(pkgs map[string]*goPackage, decls []string) map[string]bool {
	used := map[string]bool{}
	methods := map[string]bool{} // names used as a selector or declared by an interface
	modulePath := "rdgc/"
	for dir, p := range pkgs {
		for _, f := range p.files {
			imports := map[string]string{} // local name -> directory
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if !strings.HasPrefix(path, modulePath) {
					continue
				}
				target := strings.TrimPrefix(path, modulePath)
				name := filepath.Base(target)
				if q := pkgs[target]; q != nil {
					name = q.name
				}
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imports[name] = target
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					methods[n.Sel.Name] = true
					if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
						used[imports[x.Name]+" "+n.Sel.Name] = true
					}
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, name := range m.Names {
							methods[name.Name] = true
						}
					}
				}
				return true
			})
			for _, decl := range f.Decls {
				for name := range ownPackageRefs(decl) {
					used[dir+" "+name] = true
				}
			}
		}
	}
	for _, key := range decls {
		_, name, _ := strings.Cut(key, " ")
		if _, method, ok := strings.Cut(name, "."); ok && methods[method] {
			used[key] = true
		}
	}
	return used
}

// ownPackageRefs returns the unqualified identifiers a top-level declaration
// refers to, leaving out the names it declares itself, the receiver of a
// method, field and parameter names, and the selector half of x.Name.
func ownPackageRefs(decl ast.Decl) map[string]bool {
	refs := map[string]bool{}
	var walk func(n ast.Node, self map[string]bool)
	walk = func(n ast.Node, self map[string]bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if !self[n.Name] {
					refs[n.Name] = true
				}
			case *ast.SelectorExpr:
				walk(n.X, self)
				return false
			case *ast.Field:
				walk(n.Type, self)
				return false
			}
			return true
		})
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		self := map[string]bool{}
		if d.Recv == nil {
			self[d.Name.Name] = true
		}
		walk(d.Type, self)
		if d.Body != nil {
			walk(d.Body, self)
		}
	case *ast.GenDecl:
		if d.Tok == token.IMPORT {
			break
		}
		for _, spec := range d.Specs {
			self := map[string]bool{}
			for _, name := range specNames(spec) {
				self[name.Name] = true
			}
			walk(spec, self)
		}
	}
	return refs
}

// specNames returns the names a type, var or const spec declares.
func specNames(spec ast.Spec) []*ast.Ident {
	switch s := spec.(type) {
	case *ast.TypeSpec:
		return []*ast.Ident{s.Name}
	case *ast.ValueSpec:
		return s.Names
	}
	return nil
}

// recvTypeName returns the base type name of a method's receiver.
func recvTypeName(recv *ast.FieldList) string {
	x := recv.List[0].Type
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.ParenExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// readDeadSurfaceFile returns the allow-file's keys, failing on a malformed,
// duplicated or unreasoned line.
func readDeadSurfaceFile(t *testing.T) map[string]bool {
	t.Helper()
	f, err := os.Open(deadSurfaceFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	listed := map[string]bool{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 3 {
			t.Errorf("%s:%d: %q has no reason (want pkgpath Name reason)", deadSurfaceFile, line, text)
			continue
		}
		if !deadSurfaceReasons[fields[2]] {
			t.Errorf("%s:%d: %q is not a reason (want probe, oracle, fault or ablation)", deadSurfaceFile, line, fields[2])
			continue
		}
		key := fields[0] + " " + fields[1]
		if listed[key] {
			t.Errorf("%s:%d: %s is listed twice", deadSurfaceFile, line, key)
		}
		listed[key] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return listed
}

// TestCollectionsEndInOnePlace keeps the collection-end contract (DESIGN.md,
// "Measurement conventions") closed: heap.Heap.EndCollection is the one
// place a collection is counted, its live words noted and the
// after-collection hook fired, so no non-test file under internal/gc/ or
// internal/core/ may increment or assign Collections or MajorCollections,
// or call a method named NoteLive or AfterGC. A collector that writes its
// own epilogue again fails here by file and line.
func TestCollectionsEndInOnePlace(t *testing.T) {
	counters := map[string]bool{"Collections": true, "MajorCollections": true}
	calls := map[string]bool{"NoteLive": true, "AfterGC": true}
	selName := func(e ast.Expr) string {
		if s, ok := e.(*ast.SelectorExpr); ok {
			return s.Sel.Name
		}
		return ""
	}
	pkgs := parseNonTestPackages(t, "internal/gc", "internal/core")
	if len(pkgs) < 8 {
		t.Fatalf("parsed %d packages under internal/gc and internal/core, want the collectors'", len(pkgs))
	}
	for _, p := range pkgs {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				var what string
				switch n := n.(type) {
				case *ast.IncDecStmt:
					if name := selName(n.X); counters[name] {
						what = "counts " + name
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if name := selName(lhs); counters[name] {
							what = "assigns " + name
						}
					}
				case *ast.CallExpr:
					if name := selName(n.Fun); calls[name] {
						what = "calls " + name
					}
				}
				if what != "" {
					t.Errorf("%s %s itself: a collection ends in heap.Heap.EndCollection", p.fset.Position(n.Pos()), what)
				}
				return true
			})
		}
	}
}
