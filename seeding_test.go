package adhocconsensus

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestSingleV1SeedingPath keeps seed schedule v1 on one seeding path:
// every math/rand stream the program builds must come from
// seedstream.NewRandV1, whose lazy source is pinned draw-for-draw to
// math/rand. The test fails on any call of math/rand's NewSource in a
// non-test file of this module outside internal/seedstream. Nested
// modules (their own go.mod) are separate builds and are not walked.
func TestSingleV1SeedingPath(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			name := d.Name()
			if strings.HasPrefix(name, ".") || name == "testdata" || filepath.ToSlash(path) == "internal/seedstream" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
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
		local := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "math/rand" {
				local = "rand"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "NewSource" {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
				t.Errorf("%s: math/rand.NewSource outside internal/seedstream; use seedstream.NewRandV1", fset.Position(sel.Pos()))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
