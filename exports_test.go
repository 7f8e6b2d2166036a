package wanac

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

// testOnlyExports are the exported top-level identifiers in internal/ that
// may stay without a caller outside _test.go files, each with its reason.
var testOnlyExports = map[string]string{
	"clitest.Capture":              "a test helper by design",
	"clitest.CheckGolden":          "a test helper by design",
	"telemetry.ParseText":          "a test helper by design: validates an exposition",
	"wire.Envelope":                "the record type 21 references in 7 test files across 5 packages share",
	"harness.FormatFailure":        "prints TestHarness's replay artifact, which the verify recipe documents",
	"baseline.NewECHost":           "backs E11; moves into the test that publishes it",
	"baseline.NewECManager":        "backs E11; moves into the test that publishes it",
	"sim.MeasureOverhead":          "backs the E-blocks; moves into the tests that publish them",
	"sim.MeasureRevocationLatency": "backs the E-blocks; moves into the tests that publish them",
}

// benchOnlyExports are the exported top-level identifiers in internal/ whose
// only callers outside _test.go files are in the nested bench module, each
// with its reason.
var benchOnlyExports = map[string]string{
	"audit.NewRecorder":         "bench/deploy.go and isolated.go until ROADMAP item 3",
	"audit.Record":              "bench/deploy.go and isolated.go until ROADMAP item 3",
	"audit.KindDecision":        "bench/deploy.go and isolated.go until ROADMAP item 3",
	"audit.ReasonCacheHit":      "bench/deploy.go and isolated.go until ROADMAP item 3",
	"netcore.EncodeFrame":       "the bench's isolated wire rows",
	"netcore.EncodeStreamFrame": "the bench's isolated wire rows",
	"netcore.ReadStreamFrame":   "the bench's isolated wire rows",
}

// TestInternalExportsHaveCallers fails on an exported top-level identifier
// in internal/ that nothing outside _test.go files names, apart from its
// own declaration. Callers are the whole module (wanac.go, cmd/, examples/,
// internal/) and the nested bench module; one that only the bench calls
// must be listed in benchOnlyExports. Exported methods and struct fields are
// not covered.
func TestInternalExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	dirOf := make(map[*ast.File]string) // file → its directory, slash-separated
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		dirOf[f] = filepath.ToSlash(filepath.Dir(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Declarations: "pkg.Name" → declared, for every package under internal/.
	declared := make(map[string]bool)
	declIdents := make(map[*ast.Ident]bool)
	for _, f := range files {
		pkg, ok := strings.CutPrefix(dirOf[f], "internal/")
		if !ok {
			continue
		}
		for _, decl := range f.Decls {
			var names []*ast.Ident
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names = append(names, d.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names = append(names, s.Name)
					case *ast.ValueSpec:
						names = append(names, s.Names...)
					}
				}
			}
			for _, id := range names {
				if id.IsExported() {
					declared[pkg+"."+id.Name] = true
					declIdents[id] = true
				}
			}
		}
	}

	// References: pkg.Name selectors through an import of wanac/internal/pkg,
	// and bare names inside the declaring package; the bench's apart.
	used, benchUsed := make(map[string]bool), make(map[string]bool)
	for _, f := range files {
		refs := used
		if d := dirOf[f]; d == "bench" || strings.HasPrefix(d, "bench/") {
			refs = benchUsed
		}
		imports := make(map[string]string) // local name → internal package
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			pkg, ok := strings.CutPrefix(p, "wanac/internal/")
			if !ok {
				continue
			}
			local := path.Base(p)
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = pkg
		}
		own, inInternal := strings.CutPrefix(dirOf[f], "internal/")
		notRefs := make(map[*ast.Ident]bool) // method, field and selected names
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				notRefs[n.Name] = true
			case *ast.Field:
				for _, id := range n.Names {
					notRefs[id] = true
				}
			case *ast.SelectorExpr:
				notRefs[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if pkg, ok := imports[x.Name]; ok {
						refs[pkg+"."+n.Sel.Name] = true
					}
				}
			case *ast.Ident:
				if inInternal && !notRefs[n] && !declIdents[n] {
					refs[own+"."+n.Name] = true
				}
			}
			return true
		})
	}

	var unused []string
	for name := range declared {
		if !used[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		_, testOnly := testOnlyExports[name]
		_, benchOnly := benchOnlyExports[name]
		switch {
		case benchUsed[name] && !benchOnly:
			t.Errorf("%s is exported from internal/ but only bench/ calls it: list it in benchOnlyExports with a reason", name)
		case !benchUsed[name] && !testOnly:
			t.Errorf("%s is exported from internal/ but only tests call it: delete it, or allowlist it with a reason", name)
		}
	}
	for name := range testOnlyExports {
		if !declared[name] || used[name] || benchUsed[name] {
			t.Errorf("allowlist entry %s is stale: it is gone or has a non-test caller", name)
		}
	}
	for name := range benchOnlyExports {
		if !declared[name] || used[name] || !benchUsed[name] {
			t.Errorf("benchOnlyExports entry %s is stale: it is gone, has a caller outside bench/, or none in it", name)
		}
	}
}
