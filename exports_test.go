package wanac

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
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

// testOnlyMethods are the exported methods in internal/ ("pkg.Type.Method")
// that may stay without a caller outside _test.go files, each with its
// reason. Methods of the types wanac.go aliases are library API: the paper
// section a DESIGN.md row maps them to is their reason.
var testOnlyMethods = map[string]string{
	"core.Manager.ForceApply":   "§3.3's forced update at an unreachable manager",
	"core.Manager.Recover":      "§3.4's manager recovery",
	"core.Manager.SetPeers":     "§3.2's manager-set change",
	"core.Host.SetManagers":     "§3.2's manager-set change",
	"core.Host.StartPurgeLoop":  "§3.2's periodic purge of ACL_cache",
	"core.Manager.SubmitWait":   "§2.3's blocking Add/Revoke",
	"core.Manager.Has":          "§3.1's ACL(A) read at one manager, through which the simulator tests read replicas",
	"baseline.ECManager.Submit": "backs E11 with NewECManager; moves into the test that publishes it",
	"telemetry.Counter.Add":     "a counter's bulk step, which exposition and fleet test fixtures set counts with",
	"trace.Collector.Count":     "ROADMAP item 16 deletes the Collector; its readers move to journal reads then",
	"vclock.Virtual.Advance":    "a virtual clock's relative step, which 24 test call sites in vclock and slo drive",
}

// benchOnlyMethods are the exported methods in internal/ whose only callers
// outside _test.go files are in the nested bench module, each with its
// reason.
var benchOnlyMethods = map[string]string{
	"acl.Cache.LookupStatus":  "bench/isolated.go's acl.cache.lookup_hit_ns row; a host probes its app's Table",
	"core.Host.CacheGranters": "bench/sim.go's revocation-flush check",
	"sim.World.Grant":         "bench/sim.go's revocation cycles",
	"simnet.Scheduler.Run":    "bench/isolated.go's scheduler rows",
}

// TestInternalExportsHaveCallers fails on an exported top-level identifier
// or an exported method in internal/ that nothing outside _test.go files
// uses. Callers are the whole module (wanac.go, cmd/, examples/, internal/)
// and the nested bench module; one that only the bench uses must be listed
// in benchOnlyExports or benchOnlyMethods. Uses are resolved by go/types, so
// a method is told from another type's method of the same name. A method
// that implements an interface the program names, or one a standard-library
// package it depends on declares (error, fmt.Stringer,
// encoding.TextMarshaler), counts as used: a call through the interface, or
// through reflection as encoding/json makes, does not name it. Struct fields
// are not covered.
func TestInternalExportsHaveCallers(t *testing.T) {
	prog, err := loadProgram(".")
	if err != nil {
		t.Fatal(err)
	}

	// Declarations: "pkg.Name" and "pkg.Type.Method" for every package
	// under internal/, exported names only.
	declared := make(map[types.Object]string)
	for _, p := range prog.pkgs {
		pkg, ok := strings.CutPrefix(p.Path(), "wanac/internal/")
		if !ok {
			continue
		}
		scope := p.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				declared[obj] = pkg + "." + name
			}
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok {
				continue
			}
			for m := range named.Methods() {
				if m.Exported() {
					declared[m] = pkg + "." + name + "." + m.Name()
				}
			}
		}
	}

	used, benchUsed := make(map[string]bool), make(map[string]bool)
	for obj := range prog.uses {
		if name, ok := declared[obj]; ok {
			used[name] = true
		}
	}
	for obj := range prog.benchUses {
		if name, ok := declared[obj]; ok {
			benchUsed[name] = true
		}
	}
	for _, m := range prog.implementing() {
		if name, ok := declared[m]; ok {
			used[name] = true
		}
	}

	isDeclared := make(map[string]bool)
	var unused []string
	for _, name := range declared {
		isDeclared[name] = true
		if !used[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		testOnly, benchOnly := testOnlyExports, benchOnlyExports
		if strings.Count(name, ".") == 2 {
			testOnly, benchOnly = testOnlyMethods, benchOnlyMethods
		}
		_, listed := testOnly[name]
		_, benchListed := benchOnly[name]
		switch {
		case benchUsed[name] && !benchListed:
			t.Errorf("%s is exported from internal/ but only bench/ uses it: list it in the bench allowlist with a reason", name)
		case !benchUsed[name] && !listed:
			t.Errorf("%s is exported from internal/ but only tests use it: delete it, or allowlist it with a reason", name)
		}
	}
	for _, list := range []map[string]string{testOnlyExports, testOnlyMethods} {
		for name := range list {
			if !isDeclared[name] || used[name] || benchUsed[name] {
				t.Errorf("allowlist entry %s is stale: it is gone or has a non-test caller", name)
			}
		}
	}
	for _, list := range []map[string]string{benchOnlyExports, benchOnlyMethods} {
		for name := range list {
			if !isDeclared[name] || used[name] || !benchUsed[name] {
				t.Errorf("bench allowlist entry %s is stale: it is gone, has a caller outside bench/, or none in it", name)
			}
		}
	}
}

// program is the type-checked non-test Go of the module at a root and of
// the nested bench module.
type program struct {
	pkgs []*types.Package
	// uses and benchUses are the objects the module's non-test files use,
	// and the bench's.
	uses, benchUses map[types.Object]bool
	// ifaces are the interfaces the program names, and those the standard
	// library packages it depends on declare.
	ifaces []*types.Interface
}

// loadProgram parses every non-test .go file under root, bench/ included,
// and type-checks each package once from source; the bench shares the
// module's packages. The standard library comes from its export data,
// located by one go list call.
func loadProgram(root string) (*program, error) {
	fset := token.NewFileSet()
	files := make(map[string][]*ast.File) // import path → files
	std := make(map[string]bool)
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(p)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		ip := path.Join("wanac", filepath.ToSlash(rel))
		files[ip] = append(files[ip], f)
		for _, im := range f.Imports {
			if p, _ := strconv.Unquote(im.Path.Value); !isOwn(p) && p != "unsafe" && p != "C" {
				std[p] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	exports, err := exportFiles(root, std)
	if err != nil {
		return nil, err
	}
	stdImporter := importer.ForCompiler(fset, "gc", func(p string) (io.ReadCloser, error) {
		return os.Open(exports[p])
	})

	prog := &program{uses: make(map[types.Object]bool), benchUses: make(map[types.Object]bool)}
	seen := make(map[*types.Interface]bool)
	checked := make(map[string]*types.Package)
	var typeErr error
	var imp importerFunc
	check := func(ip string) (*types.Package, error) {
		if p, ok := checked[ip]; ok {
			return p, nil
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{Importer: imp, Error: func(err error) {
			if typeErr == nil {
				typeErr = err
			}
		}}
		p, _ := conf.Check(ip, fset, files[ip], info)
		if typeErr != nil {
			return nil, typeErr
		}
		checked[ip] = p
		prog.pkgs = append(prog.pkgs, p)
		uses := prog.uses
		if ip == "wanac/bench" || strings.HasPrefix(ip, "wanac/bench/") {
			uses = prog.benchUses
		}
		for _, obj := range info.Uses {
			use(uses, obj)
		}
		for _, sel := range info.Selections {
			use(uses, sel.Obj())
		}
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() && !seen[it] {
				seen[it] = true
				prog.ifaces = append(prog.ifaces, it)
			}
		}
		return p, nil
	}
	imp = func(ip string) (*types.Package, error) {
		if !isOwn(ip) {
			return stdImporter.Import(ip)
		}
		if _, ok := files[ip]; !ok {
			return nil, fmt.Errorf("no package %s under %s", ip, root)
		}
		return check(ip)
	}
	prog.addScopeInterfaces(types.Universe, seen)
	for ip := range exports {
		p, err := stdImporter.Import(ip)
		if err != nil {
			return nil, err
		}
		prog.addScopeInterfaces(p.Scope(), seen)
	}
	ips := make([]string, 0, len(files))
	for ip := range files {
		ips = append(ips, ip)
	}
	sort.Strings(ips)
	for _, ip := range ips {
		if _, err := check(ip); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

// importerFunc lets a closure serve as a types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// isOwn reports whether an import path is in the module or the bench.
func isOwn(ip string) bool { return ip == "wanac" || strings.HasPrefix(ip, "wanac/") }

// use records obj, its generic origin if it has one, as used.
func use(uses map[types.Object]bool, obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	uses[obj] = true
}

// addScopeInterfaces adds the interfaces a package scope declares.
func (prog *program) addScopeInterfaces(scope *types.Scope, seen map[*types.Interface]bool) {
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() && scope != types.Universe {
			continue
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok && !seen[it] {
			seen[it] = true
			prog.ifaces = append(prog.ifaces, it)
		}
	}
}

// implementing returns the methods by which the program's named types, or
// pointers to them, implement one of its interfaces.
func (prog *program) implementing() []*types.Func {
	var out []*types.Func
	for _, p := range prog.pkgs {
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			for _, it := range prog.ifaces {
				if it.NumMethods() == 0 || !it.IsMethodSet() || !types.Implements(ptr, it) {
					continue
				}
				for m := range it.Methods() {
					if obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); obj != nil {
						out = append(out, obj.(*types.Func))
					}
				}
			}
		}
	}
	return out
}

// exportFiles locates the export data of the standard-library packages
// named and of every package they depend on.
func exportFiles(dir string, pkgs map[string]bool) (map[string]string, error) {
	args := []string{"list", "-deps", "-export", "-f", "{{.ImportPath}} {{.Export}}"}
	for p := range pkgs {
		args = append(args, p)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %w: %s", err, stderr.Bytes())
	}
	exports := make(map[string]string)
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if ip, file, ok := strings.Cut(sc.Text(), " "); ok {
			exports[ip] = file
		}
	}
	return exports, nil
}
