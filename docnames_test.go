package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// repoNames is what the repo's non-test Go code declares: for each
// package name, its top-level identifiers; for each type name, exported
// or not, its fields and methods. Packages and types that share a name
// across directories pool their members.
func repoNames(t *testing.T) (pkgs, types map[string]map[string]bool) {
	t.Helper()
	pkgs, types = map[string]map[string]bool{}, map[string]map[string]bool{}
	add := func(m map[string]map[string]bool, owner, name string) {
		if m[owner] == nil {
			m[owner] = map[string]bool{}
		}
		m[owner][name] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := f.Name.Name
		if pkgs[pkg] == nil {
			pkgs[pkg] = map[string]bool{}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					add(pkgs, pkg, decl.Name.Name)
					continue
				}
				recv := decl.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if idx, ok := recv.(*ast.IndexExpr); ok {
					recv = idx.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					add(types, id.Name, decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							add(pkgs, pkg, n.Name)
						}
					case *ast.TypeSpec:
						add(pkgs, pkg, spec.Name.Name)
						if types[spec.Name.Name] == nil {
							types[spec.Name.Name] = map[string]bool{}
						}
						addMembers(types[spec.Name.Name], spec.Type)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs, types
}

// addMembers records the field names of a struct type, embedded ones by
// their type's name, and the method names of an interface type.
func addMembers(members map[string]bool, typ ast.Expr) {
	var fields *ast.FieldList
	switch typ := typ.(type) {
	case *ast.StructType:
		fields = typ.Fields
	case *ast.InterfaceType:
		fields = typ.Methods
	default:
		return
	}
	for _, f := range fields.List {
		for _, n := range f.Names {
			members[n.Name] = true
		}
		if len(f.Names) == 0 {
			embedded := f.Type
			if star, ok := embedded.(*ast.StarExpr); ok {
				embedded = star.X
			}
			if sel, ok := embedded.(*ast.SelectorExpr); ok {
				embedded = sel.Sel
			}
			if id, ok := embedded.(*ast.Ident); ok {
				members[id.Name] = true
			}
		}
	}
}

// codeRef is a backticked span that opens with a qualified name, X.Y:
// `search.Run`, `Options.Equiv`, `Result.Save(w)`.
var codeRef = regexp.MustCompile("`([A-Za-z_][A-Za-z0-9_]*)\\.([A-Za-z_][A-Za-z0-9_]*)[^`]*`")

// TestDocsNameDeclaredThings: every backticked X.Y in DESIGN.md and
// README.md, where X is a repo package or a repo type, exported or not
// (diskStore as much as Options), names something X declares — a
// package member, or a field or method of the type. A doc that keeps
// citing a deleted or renamed declaration fails here instead of
// misleading its reader. Qualifiers that are neither
// (standard-library packages such as sync.Pool, local variables such as
// res.Nodes) are not checked, nor is an all-lowercase name after a
// package, which is a metric (search.index.retained_bytes) or a file
// (search.go), not a declaration.
// bench/README.md is left out: bench/ is the benchmark harness, changed
// only together with the benchmark itself.
func TestDocsNameDeclaredThings(t *testing.T) {
	pkgs, types := repoNames(t)
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		// Fenced blocks are commands and code, not references; a span
		// may wrap onto the next line.
		lines := strings.Split(string(b), "\n")
		fenced := false
		for i, line := range lines {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				lines[i] = ""
			} else if fenced {
				lines[i] = ""
			}
		}
		text := strings.Join(lines, "\n")
		for _, m := range codeRef.FindAllStringSubmatchIndex(text, -1) {
			x, y := text[m[2]:m[3]], text[m[4]:m[5]]
			pm, isPkg := pkgs[x]
			tm, isType := types[x]
			if isPkg && y == strings.ToLower(y) {
				continue // a metric name (search.index.retained_bytes) or a file (search.go)
			}
			if (isPkg || isType) && !pm[y] && !tm[y] {
				t.Errorf("%s:%d: %s names %s.%s, which the repo does not declare",
					doc, 1+strings.Count(text[:m[0]], "\n"), text[m[0]:m[1]], x, y)
			}
		}
	}
}
