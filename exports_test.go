package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExemptions names the exported internal functions that only
// tests call on purpose: SetNow is the injectable-clock seam the dpsql
// and serve tests reach across packages.
var testOnlyExemptions = map[string]bool{"SetNow": true}

// TestNoTestOnlyExports keeps the internal packages free of code that
// only tests keep alive. Over every non-test .go file in the tree (cmd/,
// examples/ and the perfbench module included) it fails when
//   - an exported function or method declared under internal/ has a name
//     that no non-test file mentions anywhere but at its declaration, or
//   - an internal/ package is imported by no non-test file outside it.
//
// The name check is deliberately coarse: any identifier spelled the same
// (another type's method, a field, an interface method) counts as a use.
// It can miss dead code, but it only flags a name that no non-test file
// spells out; a method reached solely by reflection would need an
// exemption.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct{ name, pos string }
	var decls []decl
	used := map[string]bool{}           // identifiers seen outside a func declaration's name
	imported := map[string]bool{}       // import paths some other package imports
	internalPkgs := map[string]string{} // import path -> a file declaring it
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		pkgPath := path.Join("repro", dir)
		inInternal := dir == "internal" || strings.HasPrefix(dir, "internal/")
		if inInternal {
			internalPkgs[pkgPath] = p
		}
		for _, im := range f.Imports {
			if ip, err := strconv.Unquote(im.Path.Value); err == nil && ip != pkgPath {
				imported[ip] = true
			}
		}
		declNames := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declNames[fd.Name] = true
			if inInternal && fd.Name.IsExported() {
				decls = append(decls, decl{fd.Name.Name, fset.Position(fd.Name.Pos()).String()})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declNames[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported internal functions found: the walk did not see the tree")
	}

	var dead []string
	for _, d := range decls {
		if !used[d.name] && !testOnlyExemptions[d.name] {
			dead = append(dead, d.pos+": "+d.name)
		}
	}
	for ip, file := range internalPkgs {
		if !imported[ip] {
			dead = append(dead, file+": package "+ip+" is imported by no non-test file outside it")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("only tests reach %s", d)
	}
}
