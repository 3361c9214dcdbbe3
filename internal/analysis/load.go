package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Pkg is one typechecked unit handed to the analyzers: a package's
// compiled files plus its in-package test files, or the external
// _test package of a directory. Test files ride in the same unit so
// rules that care about them (sleeptest) and rules that exempt them
// (ctxflow, floatsentinel) see one consistent view.
type Pkg struct {
	Fset       *token.FileSet
	ImportPath string
	Dir        string
	Files      []*ast.File
	// IsTestFile marks files named *_test.go.
	IsTestFile map[*ast.File]bool
	Info       *types.Info
	Types      *types.Package
}

// Loader parses and typechecks packages with nothing beyond the
// standard library: go/parser for syntax and the go/importer "source"
// importer for dependencies, which resolves module-local import paths
// through go/build (and caches each dependency across packages, so the
// module is typechecked roughly once).
type Loader struct {
	fset *token.FileSet
	imp  types.Importer
}

// NewLoader builds a loader. It forces cgo off in go/build's default
// context so that cgo-using stdlib packages (net, os/user) resolve to
// their pure-Go variants, which the source importer can typecheck
// without invoking the C toolchain.
func NewLoader() *Loader {
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{fset: fset, imp: &lockedImporter{imp: importer.ForCompiler(fset, "source", nil)}}
}

// lockedImporter serializes Import calls: the go/importer "source"
// importer type-checks dependencies on demand and is not safe for
// concurrent use. Wrapping it in a mutex makes one Loader shareable
// across the parallel driver's workers while the importer's internal
// cache still checks each dependency only once. The shared FileSet is
// safe without help (token.FileSet synchronizes internally).
type lockedImporter struct {
	mu  sync.Mutex
	imp types.Importer
}

func (l *lockedImporter) Import(path string) (*types.Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.imp.Import(path)
}

// LoadDir parses and typechecks the package in dir under the given
// import path. It returns up to two units: the package itself
// (including in-package test files) and, when present, the external
// _test package. A directory with no Go files returns no units.
func (l *Loader) LoadDir(dir, importPath string) ([]*Pkg, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []parsedFile
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(l.fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if !l.buildIncluded(f) {
			// Files excluded by //go:build constraints (e.g. the race /
			// !race const-guard pairs) would redeclare symbols if both
			// halves were typechecked together; keep the same view the
			// default build does.
			continue
		}
		files = append(files, parsedFile{file: f, isTest: strings.HasSuffix(name, "_test.go")})
	}
	if len(files) == 0 {
		return nil, nil
	}

	// Split into the package unit and the external _test unit by
	// package clause; in-package test files stay with the package.
	var baseName string
	for _, p := range files {
		if !strings.HasSuffix(p.file.Name.Name, "_test") {
			baseName = p.file.Name.Name
			break
		}
	}
	var base, xtest []parsedFile
	for _, p := range files {
		if strings.HasSuffix(p.file.Name.Name, "_test") && p.file.Name.Name != baseName {
			xtest = append(xtest, p)
		} else {
			base = append(base, p)
		}
	}

	var pkgs []*Pkg
	if len(base) > 0 {
		pkg, err := l.check(importPath, dir, base)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", importPath, err)
		}
		pkgs = append(pkgs, pkg)
	}
	if len(xtest) > 0 {
		pkg, err := l.check(importPath+"_test", dir, xtest)
		if err != nil {
			return nil, fmt.Errorf("%s_test: %w", importPath, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// parsedFile pairs a parsed file with whether it is a _test.go file.
type parsedFile struct {
	file   *ast.File
	isTest bool
}

// buildIncluded evaluates a file's //go:build constraint (if any)
// against go/build's default context — GOOS, GOARCH, compiler, release
// tags, and any configured build tags — mirroring which files `go
// build` would compile. Files with no constraint are always included.
func (l *Loader) buildIncluded(f *ast.File) bool {
	expr := buildConstraint(f)
	if expr == nil {
		return true
	}
	ctxt := &build.Default
	return expr.Eval(func(tag string) bool {
		switch tag {
		case ctxt.GOOS, ctxt.GOARCH, ctxt.Compiler:
			return true
		case "unix":
			// The unix pseudo-tag covers every GOOS this repo targets in
			// practice; windows/plan9 builders would refine this.
			return ctxt.GOOS != "windows" && ctxt.GOOS != "plan9"
		case "cgo":
			return ctxt.CgoEnabled
		}
		for _, t := range ctxt.BuildTags {
			if tag == t {
				return true
			}
		}
		for _, t := range ctxt.ReleaseTags {
			if tag == t {
				return true
			}
		}
		return false
	})
}

// buildConstraint returns the file's //go:build expression, or nil.
// Only comments above the package clause can carry one.
func buildConstraint(f *ast.File) constraint.Expr {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if constraint.IsGoBuild(c.Text) {
				if expr, err := constraint.Parse(c.Text); err == nil {
					return expr
				}
			}
		}
	}
	return nil
}

func (l *Loader) check(importPath, dir string, files []parsedFile) (*Pkg, error) {
	asts := make([]*ast.File, len(files))
	isTest := make(map[*ast.File]bool, len(files))
	for i, p := range files {
		asts[i] = p.file
		isTest[p.file] = p.isTest
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l.imp}
	tpkg, err := conf.Check(importPath, l.fset, asts, info)
	if err != nil {
		return nil, err
	}
	return &Pkg{
		Fset:       l.fset,
		ImportPath: importPath,
		Dir:        dir,
		Files:      asts,
		IsTestFile: isTest,
		Info:       info,
		Types:      tpkg,
	}, nil
}

// LoadTreeParallel loads every package directory of the module rooted
// at root (testdata, hidden and underscore directories skipped).
// Directories are parsed and typechecked on a bounded pool of `workers`
// goroutines (the experiments.forEachCell shape), 0 meaning GOMAXPROCS.
// Results come back in sorted directory order regardless of completion
// order, so diagnostic output stays deterministic.
func (l *Loader) LoadTreeParallel(root string, workers int) ([]*Pkg, error) {
	modPath, dirs, err := moduleDirs(root)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(dirs) {
		workers = len(dirs)
	}
	results := make([][]*Pkg, len(dirs))
	errs := make([]error, len(dirs))
	if workers <= 1 {
		for i, dir := range dirs {
			results[i], errs[i] = l.loadDirAt(modPath, root, dir)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range idx {
					results[i], errs[i] = l.loadDirAt(modPath, root, dirs[i])
				}
			}()
		}
		for i := range dirs {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	var pkgs []*Pkg
	for i := range dirs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		pkgs = append(pkgs, results[i]...)
	}
	return pkgs, nil
}

// moduleDirs walks the module rooted at root, returning the module path
// and the sorted package directory candidates (testdata, hidden, and
// underscore directories skipped).
func moduleDirs(root string) (string, []string, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", nil, err
	}
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return "", nil, err
	}
	sort.Strings(dirs)
	return modPath, dirs, nil
}

// loadDirAt loads one directory with its module-relative import path.
func (l *Loader) loadDirAt(modPath, root, dir string) ([]*Pkg, error) {
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	importPath := modPath
	if rel != "." {
		importPath = modPath + "/" + filepath.ToSlash(rel)
	}
	return l.LoadDir(dir, importPath)
}

// modulePath reads the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("no module line in %s", gomod)
}
